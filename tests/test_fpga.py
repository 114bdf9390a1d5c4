"""Tests for the FPGA device model (architecture, RR graph, configuration memory)."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import build_rr_graph_reference, rr_graph_differences

from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.bitstream import Bitstream, ConfigurationLayout
from repro.fpga.device import build_device, device_for_netlist
from repro.fpga.routing_graph import RouterSearchView, RRNodeType, build_rr_graph
from repro.native.astar import astar_kernel
from repro.par.netlist import PhysicalNetlist
from repro.par.placement import place
from repro.par.routing import route

#: fc_in / fc_out values of the builder sweep; 0.15 at W <= 3 rounds to zero
#: tracks, where _track_subset clamps the pin to one track.
FC_VALUES = (1.0, 0.5, 0.25, 0.15)


def assert_matches_reference(arch):
    rr = build_rr_graph(arch)
    assert rr_graph_differences(rr, build_rr_graph_reference(arch)) == []


@contextmanager
def gc_disabled():
    """Only reference counting frees objects inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestArchitecture:
    def test_basic_counts(self):
        arch = FPGAArchitecture(width=4, height=3, channel_width=8)
        assert arch.num_clb_sites == 12
        assert arch.num_io_sites == 2 * (4 + 3) * 2
        assert len(list(arch.clb_sites())) == 12
        assert len(list(arch.io_sites())) == arch.num_io_sites

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FPGAArchitecture(width=0, height=3)
        with pytest.raises(ValueError):
            FPGAArchitecture(width=3, height=3, channel_width=0)
        with pytest.raises(ValueError):
            FPGAArchitecture(width=3, height=3, fc_in=0.0)

    def test_with_channel_width(self):
        arch = FPGAArchitecture(width=4, height=4, channel_width=10)
        wider = arch.with_channel_width(14)
        assert wider.channel_width == 14
        assert wider.width == arch.width

    def test_contains_clb(self):
        arch = FPGAArchitecture(width=3, height=3)
        assert arch.contains_clb(1, 1) and arch.contains_clb(3, 3)
        assert not arch.contains_clb(0, 1) and not arch.contains_clb(4, 1)

    def test_auto_size_fits_design(self):
        arch = auto_size(num_luts=100, num_ios=30)
        assert arch.num_clb_sites >= 100
        assert arch.num_io_sites >= 30

    @given(st.integers(1, 400), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_auto_size_always_sufficient(self, nluts, nios):
        arch = auto_size(nluts, nios)
        assert arch.num_clb_sites >= nluts
        assert arch.num_io_sites >= nios


class TestRRGraph:
    @pytest.fixture(scope="class")
    def small_graph(self):
        arch = FPGAArchitecture(width=3, height=3, channel_width=4)
        return arch, build_rr_graph(arch)

    def test_node_counts(self, small_graph):
        arch, rr = small_graph
        w = arch.channel_width
        expected_chanx = arch.width * (arch.height + 1) * w
        expected_chany = (arch.width + 1) * arch.height * w
        assert rr.num_wire_nodes() == expected_chanx + expected_chany

    def test_every_clb_has_terminals(self, small_graph):
        arch, rr = small_graph
        for x in range(1, arch.width + 1):
            for y in range(1, arch.height + 1):
                assert (x, y) in rr.clb_source
                assert (x, y) in rr.clb_sink
                assert (x, y) in rr.clb_opin

    def test_source_reaches_opin(self, small_graph):
        _, rr = small_graph
        src = rr.clb_source[(2, 2)]
        opin = rr.clb_opin[(2, 2)]
        assert opin in rr.fanouts(src)

    def test_opin_drives_adjacent_wires(self, small_graph):
        arch, rr = small_graph
        opin = rr.clb_opin[(2, 2)]
        wires = [n for n in rr.fanouts(opin) if rr.is_wire(n)]
        assert len(wires) == 4 * arch.channel_width  # fc_out = 1.0, four channels

    def test_wire_fanout_includes_switch_block_neighbours(self, small_graph):
        _, rr = small_graph
        # pick some CHANX wire not at the border
        wire = None
        for n in range(rr.num_nodes):
            if rr.node_type[n] == RRNodeType.CHANX and rr.node_x[n] == 2 and rr.node_y[n] == 1:
                wire = n
                break
        assert wire is not None
        neighbours = rr.fanouts(wire)
        wire_neighbours = [n for n in neighbours if rr.is_wire(n)]
        # disjoint switch block: same-track wires on adjacent segments
        assert all(rr.node_track[n] == rr.node_track[wire] for n in wire_neighbours)
        assert len(wire_neighbours) >= 4

    def test_io_sites_have_terminals(self, small_graph):
        arch, rr = small_graph
        assert len(rr.io_source) == arch.num_io_sites
        assert len(rr.io_sink) == arch.num_io_sites

    def test_sink_capacity_matches_lut_inputs(self, small_graph):
        arch, rr = small_graph
        sink = rr.clb_sink[(1, 1)]
        assert rr.node_capacity[sink] == arch.lut_inputs

    def test_kernel_completion_matches_entries_of(self, small_graph):
        """The compiled search completes into a sink through the pin the
        Python twin's entry map picks -- the first cheapest of a list in
        ascending pin id -- for every (wire, sink) pair, under the
        wirelength and the timing blend, including a crafted equal-cost tie
        between two pins of one sink that the wire's out-edges list in
        descending id order."""
        nat = astar_kernel()
        if nat is None:
            pytest.skip("native backend unavailable")
        _, rr = small_graph
        view = RouterSearchView(rr)
        types = rr.node_type
        sinks = np.flatnonzero(types == RRNodeType.SINK).tolist()
        wires = np.flatnonzero(rr.wire_mask()).tolist()
        rng = np.random.default_rng(0)
        delay = rng.integers(0, 3, rr.num_nodes) * 0.25  # coarse: many ties
        noisy = view.base_cost + rng.integers(0, 3, rr.num_nodes) * 0.5
        nat.bind_graph(view, rr, 1.1, 1.0, 3)

        def twin_pin(pins, cost, crit):
            if crit:
                blend = [(1.0 - crit) * cost[q] + crit * delay[q] for q in pins]
            else:
                blend = [cost[q] for q in pins]
            return pins[blend.index(min(blend))]

        # A wire with several pins into one sink: its last two pins tie as
        # the cheapest, so the lower id must win, not the first or last seen.
        tie = next(
            (w, sink, pins[-1], pins[-2])
            for sink in sinks
            for w, pins in view.entries_of(sink).items()
            if len(pins) > 2
        )
        w, sink, hi, lo = tie
        crafted = view.base_cost.copy()
        crafted[view.entries_of(sink)[w]] = 5.0
        crafted[[hi, lo]] = 0.5
        for crit in (0.0, 0.5):
            nat.set_costs(crafted, crafted, np.zeros(rr.num_nodes), None, 1.0)
            assert nat.entry_pin(w, sink, crit) == lo

        for cost in (view.base_cost.copy(), noisy):
            for crit in (0.0, 0.5):
                nat.set_costs(cost, cost, delay, None, 1.0)
                for sink in sinks:
                    entry = view.entries_of(sink)
                    for w in wires:
                        pins = entry.get(w)
                        want = -1 if pins is None else twin_pin(pins, cost, crit)
                        assert nat.entry_pin(w, sink, crit) == want, (w, sink, crit)

    def test_arrays_are_read_only(self, small_graph):
        _, rr = small_graph
        with pytest.raises(ValueError):
            rr.edge_dst[0] = 0
        with pytest.raises(ValueError):
            rr.node_capacity[0] = 2
        rr.node_delay_ns  # the one cached per-node vector, read-only too
        arrays = {k: v for k, v in vars(rr).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {
            "node_type", "node_x", "node_y", "node_track", "node_capacity",
            "edge_ptr", "edge_dst", "node_delay_ns",
        }
        assert not any(arr.flags.writeable for arr in arrays.values())

    def test_graphs_compare_by_identity(self, small_graph):
        arch, rr = small_graph
        assert rr == rr
        assert rr != build_rr_graph(arch)

    def test_search_view_does_not_keep_graph_alive(self):
        with gc_disabled():
            rr = build_rr_graph(FPGAArchitecture(width=3, height=3, channel_width=4))
            rr.search_view()
            ref = weakref.ref(rr)
            del rr
            assert ref() is None

    def test_released_search_view_is_rebuilt_equal(self):
        rr = build_rr_graph(FPGAArchitecture(width=3, height=3, channel_width=4))
        view = rr.search_view()
        rr.release_search_view()
        again = rr.search_view()
        assert again is not view
        for name in ("csr_ptr", "csr_dst", "base_cost", "delay_ns"):
            assert np.array_equal(getattr(again, name), getattr(view, name)), name
        rr.release_search_view()
        rr.release_search_view()  # releasing twice is harmless

    def test_routed_device_freed_by_refcount(self):
        nl = PhysicalNetlist("chain")
        prev = nl.add_block("pi", "io")
        for i in range(4):
            blk = nl.add_block(f"l{i}", "clb")
            nl.add_net(f"n{i}", prev, [blk])
            prev = blk
        nl.add_net("out", prev, [nl.add_block("po", "io")])
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        placement = place(nl, arch, seed=2, effort=0.5).placement
        with gc_disabled():
            device = build_device(arch)
            assert route(nl, placement, device).success
            rr = device.rr_graph
            # The graph's arrays too: the router's native binding keeps none.
            refs = [weakref.ref(obj) for obj in (device, rr, rr.edge_dst, rr.node_type)]
            del device, rr
            assert [r() for r in refs] == [None] * 4

    def test_device_bundle(self):
        device = device_for_netlist(num_luts=20, num_ios=10, channel_width=6)
        assert device.num_clb_sites >= 20
        assert "RR graph" in device.describe()


class TestRRBuilderMatchesReference:
    """The closed-form builder reproduces the per-edge append builder of
    ``tests/oracles.py`` exactly (the numbering and edge-order contract of
    ``repro.fpga.routing_graph``)."""

    @pytest.mark.parametrize("W", [1, 2, 3, 5, 14, 32])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 4), (4, 1), (7, 3)])
    def test_small_grids(self, grid, W):
        width, height = grid
        for k, fc_in in enumerate(FC_VALUES):
            for fc_out in FC_VALUES:
                arch = FPGAArchitecture(
                    width=width, height=height, channel_width=W,
                    fc_in=fc_in, fc_out=fc_out,
                    lut_inputs=(2, 4, 6)[k % 3], io_capacity=(1, 3)[k % 2],
                )
                assert_matches_reference(arch)

    @pytest.mark.parametrize(
        "W, fc, lut_inputs, io_capacity",
        [(14, 1.0, 4, 1), (32, 1.0, 4, 3), (5, 0.15, 6, 3), (32, 0.25, 2, 1)],
    )
    def test_large_grid(self, W, fc, lut_inputs, io_capacity):
        arch = FPGAArchitecture(
            width=34, height=34, channel_width=W, fc_in=fc, fc_out=fc,
            lut_inputs=lut_inputs, io_capacity=io_capacity,
        )
        assert_matches_reference(arch)

    @given(
        width=st.integers(1, 8),
        height=st.integers(1, 8),
        W=st.integers(1, 32),
        fc_in=st.floats(0.01, 1.0),
        fc_out=st.floats(0.01, 1.0),
        lut_inputs=st.sampled_from([2, 4, 6]),
        io_capacity=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, width, height, W, fc_in, fc_out, lut_inputs, io_capacity):
        arch = FPGAArchitecture(
            width=width, height=height, channel_width=W, fc_in=fc_in, fc_out=fc_out,
            lut_inputs=lut_inputs, io_capacity=io_capacity,
        )
        assert_matches_reference(arch)


class TestConfigurationLayout:
    def test_frames_cover_all_tiles(self):
        arch = FPGAArchitecture(width=4, height=4, channel_width=6)
        layout = ConfigurationLayout(arch)
        seen = set()
        for x in range(1, 5):
            for y in range(1, 5):
                span = layout.frames_for_tile(x, y)
                assert span.count >= 1
                seen.update(span.frames())
        assert max(seen) < layout.total_frames

    def test_same_column_tiles_can_share_frames(self):
        arch = FPGAArchitecture(width=2, height=8, channel_width=4)
        layout = ConfigurationLayout(arch, frame_bits=4096)
        span_a = layout.frames_for_tile(1, 1)
        span_b = layout.frames_for_tile(1, 2)
        # with a large frame, adjacent tiles in a column share at least one frame
        assert set(span_a.frames()) & set(span_b.frames())

    def test_different_columns_never_share_frames(self):
        arch = FPGAArchitecture(width=3, height=3, channel_width=4)
        layout = ConfigurationLayout(arch)
        f1 = set(layout.frames_for_tile(1, 2).frames())
        f2 = set(layout.frames_for_tile(2, 2).frames())
        assert not (f1 & f2)

    def test_invalid_tile_rejected(self):
        arch = FPGAArchitecture(width=3, height=3)
        layout = ConfigurationLayout(arch)
        with pytest.raises(ValueError):
            layout.frames_for_tile(0, 1)

    def test_frames_for_tiles_deduplicates(self):
        arch = FPGAArchitecture(width=3, height=3, channel_width=4)
        layout = ConfigurationLayout(arch)
        frames = layout.frames_for_tiles([(1, 1), (1, 1), (1, 2)])
        assert frames == layout.frames_for_tiles([(1, 1), (1, 2)])


class TestBitstream:
    def make(self):
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        return Bitstream(ConfigurationLayout(arch))

    def test_set_and_diff_lut_config(self):
        bs1 = self.make()
        bs2 = bs1.clone()
        bs1.set_lut_config(2, 2, 0xABCD)
        bs2.set_lut_config(2, 2, 0x1234)
        changed = bs2.diff_tiles(bs1)
        assert changed == {(2, 2)}
        assert bs2.diff_frames(bs1) == bs1.layout.frames_for_tiles({(2, 2)})

    def test_identical_bitstreams_have_empty_diff(self):
        bs1 = self.make()
        bs1.set_lut_config(1, 1, 7)
        bs2 = bs1.clone()
        assert bs2.diff_tiles(bs1) == set()
        assert bs2.diff_frames(bs1) == set()

    def test_routing_config_diff(self):
        bs1 = self.make()
        bs2 = bs1.clone()
        bs2.set_routing_config(3, 1, 0b1010)
        assert bs2.diff_tiles(bs1) == {(3, 1)}

    def test_config_range_checks(self):
        bs = self.make()
        with pytest.raises(ValueError):
            bs.set_lut_config(1, 1, 1 << 20)
        with pytest.raises(ValueError):
            bs.set_lut_config(0, 1, 1)
        with pytest.raises(ValueError):
            bs.set_routing_config(1, 1, 1 << 1000)
