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
from repro.fpga.device import build_device
from repro.fpga.routing_graph import RRNodeType, build_rr_graph
from repro.par.metrics import _narrowed
from repro.par.netlist import PhysicalNetlist
from repro.par.placement import place
from repro.par.routing import route


def assert_matches_reference(arch):
    rr = build_rr_graph(arch)
    assert rr_graph_differences(rr, build_rr_graph_reference(arch)) == []


def out_edges(rr, node):
    """Destination nodes of every switch leaving ``node``."""
    return rr.edge_dst[rr.edge_ptr[node]:rr.edge_ptr[node + 1]].tolist()


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
        assert len(list(arch.clb_sites())) == 12
        assert len(list(arch.io_sites())) == 2 * (4 + 3) * 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FPGAArchitecture(width=0, height=3)
        with pytest.raises(ValueError):
            FPGAArchitecture(width=3, height=3, channel_width=0)

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
        assert len(list(arch.clb_sites())) >= 100
        assert len(list(arch.io_sites())) >= 30

    @given(st.integers(1, 400), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_auto_size_always_sufficient(self, nluts, nios):
        arch = auto_size(nluts, nios)
        assert len(list(arch.clb_sites())) >= nluts
        assert len(list(arch.io_sites())) >= nios


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
        assert np.count_nonzero(rr.wire_mask()) == expected_chanx + expected_chany

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
        assert opin in out_edges(rr, src)

    def test_opin_drives_adjacent_wires(self, small_graph):
        arch, rr = small_graph
        opin = rr.clb_opin[(2, 2)]
        wires = [n for n in out_edges(rr, opin) if rr.wire_mask()[n]]
        assert len(wires) == 4 * arch.channel_width  # every track of four channels

    def test_wire_fanout_includes_switch_block_neighbours(self, small_graph):
        _, rr = small_graph
        # pick some CHANX wire not at the border
        wire = None
        for n in range(rr.num_nodes):
            if rr.node_type[n] == RRNodeType.CHANX and rr.node_x[n] == 2 and rr.node_y[n] == 1:
                wire = n
                break
        assert wire is not None
        is_wire = rr.wire_mask()
        wire_neighbours = [n for n in out_edges(rr, wire) if is_wire[n]]
        # disjoint switch block: same-track wires on adjacent segments
        assert all(rr.node_track[n] == rr.node_track[wire] for n in wire_neighbours)
        assert len(wire_neighbours) >= 4

    def test_io_sites_have_terminals(self, small_graph):
        arch, rr = small_graph
        assert len(rr.io_source) == len(rr.io_sink) == len(list(arch.io_sites()))

    def test_sink_capacity_matches_lut_inputs(self, small_graph):
        arch, rr = small_graph
        sink = rr.clb_sink[(1, 1)]
        assert rr.node_capacity[sink] == arch.lut_inputs

    @pytest.mark.parametrize(
        "width, height, W, io_capacity",
        [(5, 7, 1, 3), (1, 6, 2, 3), (7, 2, 32, 1), (4, 4, 2, 2), (3, 3, 32, 3)],
    )
    def test_search_edges_precede_pin_edges(self, width, height, W, io_capacity):
        """Every edge before ``search_end[n]`` enters neither an IPIN nor a
        SINK, and every edge from there to ``edge_ptr[n + 1]`` does."""
        arch = FPGAArchitecture(
            width=width, height=height, channel_width=W, io_capacity=io_capacity,
        )
        rr = build_rr_graph(arch)
        ptr, end = rr.edge_ptr, rr.search_end
        assert end.dtype == np.int64
        assert np.all((ptr[:-1] <= end) & (end <= ptr[1:]))
        dst_type = rr.node_type[rr.edge_dst]
        enters_pin = (dst_type == RRNodeType.IPIN) | (dst_type == RRNodeType.SINK)
        src = np.repeat(np.arange(rr.num_nodes), np.diff(ptr))
        before_end = np.arange(rr.num_edges) < end[src]
        assert not np.any(before_end & enters_pin)
        assert np.all(before_end | enters_pin)
        assert enters_pin.any() and not enters_pin.all()

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
            "edge_ptr", "edge_dst", "search_end", "node_delay_ns",
        }
        assert not any(arr.flags.writeable for arr in arrays.values())

    def test_graphs_compare_by_identity(self, small_graph):
        arch, rr = small_graph
        assert rr == rr
        assert rr != build_rr_graph(arch)

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
        arch = auto_size(num_luts=20, num_ios=10, channel_width=6)
        device = build_device(arch)
        assert device.arch is arch
        assert device.rr_graph.arch is arch and device.config_layout.arch is arch
        assert np.count_nonzero(device.rr_graph.wire_mask()) == 2 * arch.width * (arch.height + 1) * 6


class TestRRBuilderMatchesReference:
    """The closed-form builder reproduces the per-edge append builder of
    ``tests/oracles.py`` exactly (the numbering and edge-order contract of
    ``repro.fpga.routing_graph``)."""

    @pytest.mark.parametrize("W", [1, 2, 3, 5, 14, 32])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 4), (4, 1), (7, 3)])
    def test_small_grids(self, grid, W):
        width, height = grid
        for lut_inputs in (2, 4, 6):
            for io_capacity in (1, 3):
                arch = FPGAArchitecture(
                    width=width, height=height, channel_width=W,
                    lut_inputs=lut_inputs, io_capacity=io_capacity,
                )
                assert_matches_reference(arch)

    @pytest.mark.parametrize(
        "W, lut_inputs, io_capacity", [(14, 4, 1), (32, 4, 3), (5, 6, 3), (32, 2, 1)]
    )
    def test_large_grid(self, W, lut_inputs, io_capacity):
        arch = FPGAArchitecture(
            width=34, height=34, channel_width=W,
            lut_inputs=lut_inputs, io_capacity=io_capacity,
        )
        assert_matches_reference(arch)

    @given(
        width=st.integers(1, 8),
        height=st.integers(1, 8),
        W=st.integers(1, 32),
        lut_inputs=st.sampled_from([2, 4, 6]),
        io_capacity=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, width, height, W, lut_inputs, io_capacity):
        arch = FPGAArchitecture(
            width=width, height=height, channel_width=W,
            lut_inputs=lut_inputs, io_capacity=io_capacity,
        )
        assert_matches_reference(arch)


class TestWidthPrefix:
    """The graph at width ``W`` is the ``W_max`` graph restricted to tracks
    ``< W`` (the width-prefix property of ``repro.fpga.routing_graph``), and
    the min-CW search's narrowed ``search_end`` selects exactly its search
    edges."""

    W_MAX = 32

    @pytest.fixture(scope="class", params=[(5, 7), (20, 20), (33, 31)], ids=str)
    def wide(self, request):
        width, height = request.param
        return build_device(FPGAArchitecture(width=width, height=height, channel_width=self.W_MAX))

    @pytest.mark.parametrize("W", [1, 2, 5, 8, 17, 31])
    def test_narrow_graph_is_a_restriction(self, wide, W):
        big = wide.rr_graph
        narrow = _narrowed(wide, W)
        assert narrow.arch == wide.arch.with_channel_width(W)
        assert narrow.config_layout.arch == narrow.arch
        limited = narrow.rr_graph
        assert limited.edge_dst is big.edge_dst and limited.edge_ptr is big.edge_ptr
        assert not limited.search_end.flags.writeable
        assert _narrowed(wide, self.W_MAX) is wide
        rr = build_rr_graph(narrow.arch)

        # Nodes: every pin, and the wires of tracks < W, in id order.
        kept = ~big.wire_mask() | (big.node_track < W)
        relabel = np.cumsum(kept) - 1
        for name in ("node_type", "node_x", "node_y", "node_track", "node_capacity"):
            assert np.array_equal(getattr(big, name)[kept], getattr(rr, name)), name

        # Edges: the edges between kept nodes, in order, are the narrow graph's.
        src = np.repeat(np.arange(big.num_nodes), np.diff(big.edge_ptr))
        kept_edge = kept[src] & kept[big.edge_dst]
        assert np.array_equal(relabel[big.edge_dst[kept_edge]], rr.edge_dst)
        assert np.array_equal(
            np.bincount(relabel[src[kept_edge]], minlength=rr.num_nodes), np.diff(rr.edge_ptr)
        )

        # Search edges: every edge of a kept node before the narrowed
        # search_end is kept, and there are as many as the narrow graph's.
        searched = kept[src] & (np.arange(big.num_edges) < limited.search_end[src])
        assert np.all(kept_edge[searched])
        n_search = limited.search_end - big.edge_ptr[:-1]
        assert np.array_equal(n_search[kept], rr.search_end - rr.edge_ptr[:-1])
        assert np.all(limited.search_end[kept] <= big.edge_ptr[1:][kept])
        # Only OPIN rows were cut.
        cut = limited.search_end != big.search_end
        assert np.all(big.node_type[cut] == RRNodeType.OPIN)


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
        bs2 = Bitstream(bs1.layout)
        bs1.set_lut_config(2, 2, 0xABCD)
        bs2.set_lut_config(2, 2, 0x1234)
        changed = bs2.diff_tiles(bs1)
        assert changed == {(2, 2)}
        assert bs2.diff_frames(bs1) == bs1.layout.frames_for_tiles({(2, 2)})

    def test_identical_bitstreams_have_empty_diff(self):
        bs1 = self.make()
        bs1.set_lut_config(1, 1, 7)
        bs2 = Bitstream(bs1.layout)
        bs2.set_lut_config(1, 1, 7)
        assert bs2.diff_tiles(bs1) == set()
        assert bs2.diff_frames(bs1) == set()

    def test_routing_config_diff(self):
        bs1 = self.make()
        bs2 = Bitstream(bs1.layout)
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
