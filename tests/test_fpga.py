"""Tests for the FPGA device model (architecture, RR graph, configuration memory)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.bitstream import Bitstream, ConfigurationLayout
from repro.fpga.device import device_for_netlist
from repro.fpga.routing_graph import RouterSearchView, RRNodeType, build_rr_graph


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

    def test_entry_csr_matches_entries_of(self, small_graph):
        """The native entry maps equal the CSR of the Python ones, with each
        wire's ipins in the same order (astar's completion tie-break takes
        the first minimum)."""
        _, rr = small_graph
        view = RouterSearchView(rr)
        multi_pin_wires = 0
        for sink in range(rr.num_nodes):
            if rr.node_type[sink] != RRNodeType.SINK:
                continue
            entry = view.entries_of(sink)
            wires, ptr, ipins = view.entry_csr(sink)
            assert wires.dtype == ptr.dtype == ipins.dtype == np.int64
            assert wires.tolist() == sorted(entry)
            assert ptr.tolist()[0] == 0 and ptr.tolist()[-1] == len(ipins)
            for i, wire in enumerate(wires.tolist()):
                assert ipins[ptr[i]: ptr[i + 1]].tolist() == entry[wire]
            multi_pin_wires += sum(len(pins) > 1 for pins in entry.values())
        assert multi_pin_wires > 0  # the order check is not vacuous

    def test_device_bundle(self):
        device = device_for_netlist(num_luts=20, num_ios=10, channel_width=6)
        assert device.num_clb_sites >= 20
        assert "RR graph" in device.describe()


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
