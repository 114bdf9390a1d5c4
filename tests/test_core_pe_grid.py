"""Tests for the PE model, VCGRA grid architecture, settings and accounting."""

import pytest

from repro.core.accounting import grid_resource_details, grid_resource_table
from repro.core.grid import VCGRAArchitecture
from repro.core.pe import PEOp, ProcessingElementSpec, build_pe_design, pe_port_summary
from repro.core.settings import PESettings, VCGRASettings, VSBSettings
from repro.flopoco.arithmetic import fp_mac, fp_mul
from repro.flopoco.format import FPFormat
from repro.netlist.simulate import simulate_words

SMALL = FPFormat(we=4, wf=6)


class TestProcessingElementSpec:
    def test_settings_bits_accounting(self):
        spec = ProcessingElementSpec(fmt=SMALL, num_inputs=4, counter_width=16)
        expected = SMALL.width + 2 * 2 + 2 + 16
        assert spec.settings_bits == expected
        assert spec.num_settings_registers == -(-expected // 32)

    def test_sel_width(self):
        assert ProcessingElementSpec(fmt=SMALL, num_inputs=4).sel_width == 2
        assert ProcessingElementSpec(fmt=SMALL, num_inputs=2).sel_width == 1
        assert ProcessingElementSpec(fmt=SMALL, num_inputs=5).sel_width == 3

    def test_port_summary(self):
        spec = ProcessingElementSpec(fmt=SMALL, num_inputs=2)
        ports = pe_port_summary(spec)
        assert ports["in0"] == SMALL.width
        assert ports["coeff"] == SMALL.width
        assert ports["done"] == 1


class TestPEDesign:
    def build(self, **kw):
        spec = ProcessingElementSpec(fmt=SMALL, num_inputs=2, counter_width=4, **kw)
        return spec, build_pe_design(spec)

    def eval_pe(self, design, inputs, params):
        out = simulate_words(design.circuit, inputs, params)
        return {k: [int(x) for x in v] for k, v in out.items()}

    def test_mac_operation(self):
        spec, d = self.build()
        fmt = spec.fmt
        sample, acc, coeff = fmt.encode(1.5), fmt.encode(2.0), fmt.encode(-3.0)
        res = self.eval_pe(
            d,
            {"in0": [sample], "in1": [acc], "count": [0]},
            {"coeff": coeff, "sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 3},
        )
        assert res["out"][0] == fp_mac(fmt, acc, sample, coeff)

    def test_mul_operation(self):
        spec, d = self.build()
        fmt = spec.fmt
        sample, coeff = fmt.encode(2.5), fmt.encode(0.5)
        res = self.eval_pe(
            d,
            {"in0": [sample], "in1": [fmt.encode(9.0)], "count": [0]},
            {"coeff": coeff, "sel_a": 0, "sel_b": 1, "op": PEOp.MUL, "count_limit": 0},
        )
        assert res["out"][0] == fp_mul(fmt, sample, coeff)

    def test_bypass_operations(self):
        spec, d = self.build()
        fmt = spec.fmt
        a, b = fmt.encode(4.0), fmt.encode(-7.0)
        res = self.eval_pe(
            d,
            {"in0": [a], "in1": [b], "count": [0]},
            {"coeff": fmt.encode(1.0), "sel_a": 0, "sel_b": 1,
             "op": PEOp.BYPASS, "count_limit": 0},
        )
        assert res["out"][0] == a
        res = self.eval_pe(
            d,
            {"in0": [a], "in1": [b], "count": [0]},
            {"coeff": fmt.encode(1.0), "sel_a": 0, "sel_b": 1,
             "op": PEOp.BYPASS_B, "count_limit": 0},
        )
        assert res["out"][0] == b

    def test_operand_select_swaps_ports(self):
        spec, d = self.build()
        fmt = spec.fmt
        a, b, coeff = fmt.encode(1.25), fmt.encode(3.0), fmt.encode(2.0)
        res = self.eval_pe(
            d,
            {"in0": [a], "in1": [b], "count": [0]},
            {"coeff": coeff, "sel_a": 1, "sel_b": 0, "op": PEOp.MAC, "count_limit": 0},
        )
        # sample comes from in1, accumulator from in0
        assert res["out"][0] == fp_mac(fmt, a, b, coeff)

    def test_counter_done_flag(self):
        spec, d = self.build()
        res = self.eval_pe(
            d,
            {"in0": [0, 0], "in1": [0, 0], "count": [4, 7]},
            {"coeff": 0, "sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 7},
        )
        assert res["done"] == [0, 1]

    def test_bare_datapath_variant(self):
        spec = ProcessingElementSpec(
            fmt=SMALL, num_inputs=2, include_intra_connect=False, include_counter=False
        )
        d = build_pe_design(spec)
        assert "done" not in d.circuit.outputs
        names = {d.circuit.names[p] for p in d.circuit.param_ids()}
        assert all(n.startswith("coeff") for n in names)

    def test_intra_connect_increases_parameter_count(self):
        with_ic = ProcessingElementSpec(fmt=SMALL, num_inputs=4)
        without = ProcessingElementSpec(fmt=SMALL, num_inputs=4, include_intra_connect=False)
        d1 = build_pe_design(with_ic)
        d2 = build_pe_design(without)
        assert len(d1.circuit.param_ids()) > len(d2.circuit.param_ids())


class TestGridArchitecture:
    def test_paper_grid_counts(self):
        arch = VCGRAArchitecture(rows=4, cols=4)
        assert arch.num_pes == 16
        assert arch.num_vsbs == 9
        assert arch.num_virtual_connection_blocks == 32
        assert arch.num_virtual_routing_switches == 41
        assert arch.num_settings_registers == 25

    def test_small_grids(self):
        assert VCGRAArchitecture(rows=1, cols=1).num_vsbs == 0
        assert VCGRAArchitecture(rows=2, cols=3).num_vsbs == 2

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            VCGRAArchitecture(rows=0, cols=4)

    def test_connectivity(self):
        arch = VCGRAArchitecture(rows=3, cols=3)
        assert arch.upstream_of((1, 1)) == [(0, 0), (0, 1), (0, 2)]
        assert arch.upstream_of((0, 2)) == []

    def test_enumerations(self):
        arch = VCGRAArchitecture(rows=4, cols=4)
        assert len(list(arch.pe_positions())) == 16
        assert len(list(arch.vsbs())) == 9


class TestSettings:
    def test_pe_settings_packing(self):
        spec = ProcessingElementSpec(fmt=SMALL, num_inputs=4, counter_width=8)
        s = PESettings(coefficient=0x155, sel_a=2, sel_b=1, op=PEOp.MUL, count_limit=9)
        words = s.register_words(spec, width=32)
        assert len(words) == spec.num_settings_registers
        # coefficient occupies the low bits
        assert words[0] & ((1 << spec.fmt.width) - 1) == 0x155

    def test_register_image_and_diff(self):
        arch = VCGRAArchitecture(rows=2, cols=2, pe_spec=ProcessingElementSpec(fmt=SMALL))
        s1 = VCGRASettings(arch=arch)
        s2 = VCGRASettings(arch=arch)
        s1.pe((0, 0)).coefficient = 7
        s1.pe((0, 0)).enabled = True
        image = s1.register_image()
        assert arch.pe_name((0, 0)) in image
        assert len(image) == arch.num_pes + arch.num_vsbs
        diff = s1.diff(s2)
        assert diff == [arch.pe_name((0, 0))]

    def test_vsb_settings_word(self):
        arch = VCGRAArchitecture(rows=2, cols=2)
        vsb = VSBSettings()
        vsb.routes[((1, 0), 0)] = (0, 1)
        word = vsb.register_word(arch)
        assert word != 0


class TestAccounting:
    def test_table2_reproduction(self):
        table = grid_resource_table(VCGRAArchitecture(rows=4, cols=4))
        conv = table["conventional"]
        par = table["fully_parameterized"]
        assert conv.inter_network == 41
        assert conv.settings_registers == 25
        assert par.inter_network == 0
        assert par.settings_registers == 0

    def test_details_consistent(self):
        arch = VCGRAArchitecture(rows=4, cols=4)
        details = grid_resource_details(arch)
        assert details["virtual_routing_switches"] == 41
        assert details["conventional_ff_estimate"] == 25 * 32
        assert details["parameterized_ff"] == 0

    def test_scales_with_grid_size(self):
        small = grid_resource_table(VCGRAArchitecture(rows=2, cols=2))
        large = grid_resource_table(VCGRAArchitecture(rows=6, cols=6))
        assert large["conventional"].inter_network > small["conventional"].inter_network
