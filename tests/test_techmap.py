"""Unit, integration and property tests for technology mapping (LUT map + TCONMAP)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lut_node_ids, tcon_node_ids
from oracles import specialize_reference
from repro.core.flows import run_pe_flow
from repro.core.pe import ProcessingElementSpec, build_pe_design
from repro.flopoco.format import FPFormat
from repro.netlist.boolean import TruthTable
from repro.netlist.circuit import Circuit, Op
from repro.netlist.hdl import Design
from repro.netlist.simulate import simulate_words
from repro.synth.optimize import optimize
from repro.techmap import (
    MappedNetwork,
    MappedNode,
    MapperOptions,
    NodeKind,
    decompose_to_binary,
    map_conventional,
    map_parameterized,
    param_only_nodes,
    technology_map,
)
from repro.techmap.mapping import compile_ppc


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def param_mult_design(width_a=4, width_k=4):
    """a * k with the coefficient k as a parameter (the paper's MAC pattern)."""
    d = Design("pmul")
    a = d.input_bus("a", width_a)
    k = d.param_bus("k", width_k)
    d.output_bus("p", d.multiplier(a, k))
    return d


def words_match(circuit, network, input_words, param_words):
    """Check mapped network against gate-level simulation for given stimulus."""
    golden = simulate_words(circuit, input_words, param_words)
    mapped = network.evaluate_words(input_words, param_words)
    for bus in golden:
        g = [int(x) for x in golden[bus]]
        m = mapped.get(bus, [])
        if g != m:
            return False
    return True


# ---------------------------------------------------------------------------
# decomposition / param-only analysis
# ---------------------------------------------------------------------------

class TestDecompose:
    def test_wide_and_becomes_binary(self):
        c = Circuit()
        ins = [c.add_input(f"i{k}") for k in range(7)]
        c.add_output("y", c.g_and(*ins))
        d = decompose_to_binary(c)
        assert all(len(f) <= 2 for f in d.fanins)
        out = simulate_words(d, {f"i{k}": [1] for k in range(7)})
        assert int(out["y"][0]) == 1
        out = simulate_words(d, {**{f"i{k}": [1] for k in range(6)}, "i6": [0]})
        assert int(out["y"][0]) == 0

    def test_wide_nor(self):
        c = Circuit()
        ins = [c.add_input(f"i{k}") for k in range(5)]
        c.add_output("y", c.gate(Op.NOR, *ins))
        d = decompose_to_binary(c)
        out = simulate_words(d, {f"i{k}": [0] for k in range(5)})
        assert int(out["y"][0]) == 1

    def test_mux_left_alone(self):
        c = Circuit()
        s, a, b = c.add_input("s"), c.add_input("a"), c.add_input("b")
        c.add_output("y", c.g_mux(s, a, b))
        d = decompose_to_binary(c)
        assert Op.MUX in d.ops


class TestParamOnly:
    def test_param_only_detection(self):
        c = Circuit()
        a = c.add_input("a")
        p1, p2 = c.add_param("p1"), c.add_param("p2")
        pp = c.g_and(p1, p2)       # param-only
        mixed = c.g_or(pp, a)      # mixed
        c.add_output("y", mixed)
        po = param_only_nodes(c)
        assert p1 in po and p2 in po and pp in po
        assert mixed not in po and a not in po


# ---------------------------------------------------------------------------
# conventional mapping
# ---------------------------------------------------------------------------

class TestConventionalMapping:
    def test_small_adder_maps_and_matches(self):
        d = Design()
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        s, co = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", co)
        opt, _ = optimize(d.circuit)
        net = map_conventional(opt)
        assert net.num_luts() > 0
        assert net.num_tluts() == 0
        assert net.num_tcons() == 0
        stim = {"a": [0, 3, 9, 15, 7], "b": [0, 12, 9, 15, 8]}
        assert words_match(net.source, net, stim, {})

    def test_lut_input_limit_respected(self):
        d = Design()
        a = d.input_bus("a", 6)
        b = d.input_bus("b", 6)
        d.output_bus("p", d.multiplier(a, b))
        net = map_conventional(optimize(d.circuit)[0])
        net.validate()
        for nid in lut_node_ids(net):
            assert len(net.nodes[nid].inputs) <= 4

    def test_depth_not_worse_than_gate_depth(self):
        d = Design()
        a = d.input_bus("a", 8)
        b = d.input_bus("b", 8)
        d.output_bus("s", d.adder(a, b)[0])
        opt, _ = optimize(d.circuit)
        net = map_conventional(opt)
        assert net.depth() <= opt.depth()

    def test_params_become_ordinary_inputs(self):
        d = param_mult_design()
        net = map_conventional(optimize(d.circuit)[0])
        assert net.num_tluts() == 0
        assert net.num_tcons() == 0
        assert len(net.param_node_ids()) > 0
        stim = {"a": [0, 1, 5, 15]}
        assert words_match(net.source, net, stim, {"k": 7})

    def test_output_driven_by_input_directly(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", a)
        net = map_conventional(c)
        assert net.num_luts() == 0
        assert net.specialize({}).evaluate({"a": 1})["y"] == 1


# ---------------------------------------------------------------------------
# TCONMAP
# ---------------------------------------------------------------------------

class TestTconExtraction:
    def test_and_with_param_is_tcon(self):
        c = Circuit()
        a = c.add_input("a")
        k = c.add_param("k")
        c.add_output("y", c.g_and(a, k))
        net = map_parameterized(c)
        assert net.num_tcons() == 1
        assert net.num_luts() == 0
        # k=1 routes a through; k=0 drives constant 0
        assert net.specialize({net.source.param_ids()[0]: 1}).evaluate({"a": 1})["y"] == 1
        assert net.specialize({net.source.param_ids()[0]: 0}).evaluate({"a": 1})["y"] == 0

    def test_param_mux_is_tcon(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        s = c.add_param("sel")
        c.add_output("y", c.g_mux(s, a, b))
        net = map_parameterized(c)
        assert net.num_tcons() == 1
        assert net.num_luts() == 0
        pid = net.source.param_ids()[0]
        assert net.specialize({pid: 0}).evaluate({"a": 1, "b": 0})["y"] == 1
        assert net.specialize({pid: 1}).evaluate({"a": 1, "b": 0})["y"] == 0

    def test_xor_with_param_is_not_tcon(self):
        # XOR needs inversion capability, which routing switches lack.
        c = Circuit()
        a = c.add_input("a")
        k = c.add_param("k")
        c.add_output("y", c.g_xor(a, k))
        net = map_parameterized(c)
        assert net.num_tcons() == 0
        assert net.num_tluts() == 1

    def test_mux_tree_controlled_by_params_is_all_tcons(self):
        d = Design()
        sels = d.param_bus("sel", 2)
        buses = [d.input_bus(f"x{i}", 1) for i in range(4)]
        d.output_bus("y", d.mux_tree(sels, buses))
        net = map_parameterized(d.circuit)
        assert net.num_tcons() == 3  # two first-level muxes + one second-level
        assert net.num_luts() == 0

    def test_param_only_logic_needs_no_luts(self):
        c = Circuit()
        a = c.add_input("a")
        p1, p2 = c.add_param("p1"), c.add_param("p2")
        pp = c.g_and(p1, p2)
        c.add_output("y", c.g_and(a, pp))
        net = map_parameterized(c)
        # the AND(a, pp) is a TCON with pp as a derived tuning variable
        assert net.num_tcons() == 1
        assert net.num_luts() == 0

    def test_tcon_extraction_can_be_disabled(self):
        c = Circuit()
        a = c.add_input("a")
        k = c.add_param("k")
        c.add_output("y", c.g_and(a, k))
        net = map_parameterized(c, extract_tcons=False)
        assert net.num_tcons() == 0
        assert net.num_tluts() == 1


class TestTlutMapping:
    def test_param_multiplier_uses_tcons(self):
        # Every partial-product AND gate degenerates to a wire once the
        # coefficient bits are fixed, so the multiplier's parameter fan-in is
        # absorbed entirely by tunable connections.
        d = param_mult_design(4, 4)
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        stats = net.stats()
        assert stats.num_tcons > 0
        assert stats.num_luts > 0

    def test_param_adder_uses_tluts(self):
        # An adder with a parameterized operand goes through XOR gates, which
        # cannot be reduced to wires, so its parameter cone produces TLUTs.
        d = Design("padd")
        a = d.input_bus("a", 6)
        k = d.param_bus("k", 6)
        s, _ = d.adder(a, k)
        d.output_bus("s", s)
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        assert net.num_tluts() > 0
        # and it still matches the gate-level model
        assert words_match(net.source, net, {"a": [0, 13, 47, 63]}, {"k": 21})

    def test_parameterized_uses_fewer_luts_than_conventional(self):
        d = param_mult_design(6, 6)
        opt, _ = optimize(d.circuit)
        conv = map_conventional(opt)
        par = map_parameterized(opt)
        assert par.num_luts() < conv.num_luts()

    @pytest.mark.parametrize("kval", [0, 1, 5, 9, 15])
    def test_functional_equivalence_across_param_values(self, kval):
        d = param_mult_design(4, 4)
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        stim = {"a": list(range(16))}
        assert words_match(net.source, net, stim, {"k": kval})

    def test_conventional_and_parameterized_agree(self):
        d = param_mult_design(5, 3)
        opt, _ = optimize(d.circuit)
        conv = map_conventional(opt)
        par = map_parameterized(opt)
        stim = {"a": [0, 7, 19, 31]}
        for kval in (0, 3, 6):
            out_c = conv.evaluate_words(stim, {"k": kval})
            out_p = par.evaluate_words(stim, {"k": kval})
            assert out_c == out_p

    @given(st.integers(0, 255))
    @settings(max_examples=15, deadline=None)
    def test_specialization_matches_gate_level(self, kval):
        d = param_mult_design(4, 8)
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        stim = {"a": [3, 9, 14]}
        assert words_match(net.source, net, stim, {"k": kval})


class TestSpecializedNetwork:
    def test_tcon_routes_change_with_params(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        s = c.add_param("sel")
        c.add_output("y", c.g_mux(s, a, b))
        net = map_parameterized(c)
        pid = net.source.param_ids()[0]
        spec0 = net.specialize({pid: 0})
        spec1 = net.specialize({pid: 1})
        tcon_id = tcon_node_ids(net)[0]
        assert spec0.tcon_routes[tcon_id] != spec1.tcon_routes[tcon_id]
        assert spec0.tcon_routes[tcon_id][0] == "var"

    def test_tlut_configs_change_with_params(self):
        d = Design("padd")
        a = d.input_bus("a", 4)
        k = d.param_bus("k", 4)
        d.output_bus("s", d.adder(a, k)[0])
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        spec_a = net.specialize_words({"k": 3})
        spec_b = net.specialize_words({"k": 5})
        tluts = [nid for nid in lut_node_ids(net) if net.nodes[nid].kind == NodeKind.TLUT]
        assert any(spec_a.lut_configs[t].bits != spec_b.lut_configs[t].bits for t in tluts)

    def test_static_lut_configs_do_not_change(self):
        d = param_mult_design(4, 4)
        opt, _ = optimize(d.circuit)
        net = map_parameterized(opt)
        spec_a = net.specialize_words({"k": 1})
        spec_b = net.specialize_words({"k": 14})
        statics = [nid for nid in lut_node_ids(net) if net.nodes[nid].kind == NodeKind.LUT]
        for nid in statics:
            assert spec_a.lut_configs[nid].bits == spec_b.lut_configs[nid].bits


#: The benchmark PE: the 5/10 format at the default ports and counter width.
BENCH_PE = ProcessingElementSpec(fmt=FPFormat(5, 10))


@pytest.fixture(scope="module", params=[False, True], ids=["conventional", "parameterized"])
def bench_pe_network(request):
    circuit = build_pe_design(BENCH_PE).circuit
    return run_pe_flow(circuit, parameterized=request.param, do_par=False).network


def _assert_same_specialization(network, param_values):
    mine = network.specialize(param_values)
    ref = specialize_reference(network, param_values)
    assert mine.param_values == ref.param_values
    assert mine.lut_configs == ref.lut_configs
    assert mine.tcon_routes == ref.tcon_routes


class TestCompiledPPC:
    """``MappedNetwork.specialize`` (the compiled PPC) against the oracle."""

    def test_bench_pe_matches_reference_over_word_settings(self, bench_pe_network):
        rng = random.Random(7)
        for _ in range(12):
            words = {
                "coeff": rng.randrange(1 << BENCH_PE.fmt.width),
                "op": rng.randrange(4),
                "sel_a": rng.randrange(1 << BENCH_PE.sel_width),
                "sel_b": rng.randrange(1 << BENCH_PE.sel_width),
                "count_limit": rng.randrange(1 << BENCH_PE.counter_width),
            }
            mine = bench_pe_network.specialize_words(words)
            _assert_same_specialization(bench_pe_network, mine.param_values)

    def test_bench_pe_matches_reference_over_bit_assignments(self, bench_pe_network):
        """Random per-bit values; parameters left out of the dict read 0."""
        rng = random.Random(11)
        params = bench_pe_network.source.param_ids()
        for _ in range(12):
            values = {p: rng.randrange(2) for p in params if rng.random() < 0.7}
            _assert_same_specialization(bench_pe_network, values)
        _assert_same_specialization(bench_pe_network, {})

    def test_every_lut_and_tcon_is_specialized(self, bench_pe_network):
        """The conventional flow has no TLUT/TCON and must specialize too."""
        spec = bench_pe_network.specialize({})
        assert set(spec.lut_configs) == set(lut_node_ids(bench_pe_network))
        assert set(spec.tcon_routes) == set(tcon_node_ids(bench_pe_network))
        if bench_pe_network.num_tluts() + bench_pe_network.num_tcons() == 0:
            assert spec.tcon_routes == {}
        assert MappedNetwork(Circuit()).specialize({}).lut_configs == {}

    def test_bench_pe_tables_are_small(self, bench_pe_network):
        ppc = compile_ppc(bench_pe_network)
        assert ppc.fallible_tcons == ()
        for node in bench_pe_network.nodes:
            if node.kind in (NodeKind.TLUT, NodeKind.TCON):
                assert len(node.tune_vars) <= 4

    @staticmethod
    def _xor_tcon_network():
        """One TCON over ``(x, p)`` that is ``x`` at p=0 and ``~x`` at p=1."""
        c = Circuit()
        x, p = c.add_input("x"), c.add_param("p")
        c.add_output("y", c.g_xor(x, p))
        net = MappedNetwork(c)
        xi = net.add_node(MappedNode(NodeKind.INPUT, source=x, name="x"))
        tcon = net.add_node(MappedNode(
            NodeKind.TCON, inputs=(xi,), function=TruthTable(2, 0b0110), tune_vars=(p,)))
        net.add_output("y", tcon)
        return net, p, tcon

    def test_inverting_tcon_raises_only_for_its_assignment(self):
        net, p, tcon = self._xor_tcon_network()
        assert compile_ppc(net).fallible_tcons == (tcon,)
        assert net.specialize({p: 0}).tcon_routes[tcon] == ("var", 0)
        with pytest.raises(ValueError) as mine:
            net.specialize({p: 1})
        with pytest.raises(ValueError) as ref:
            specialize_reference(net, {p: 1})
        assert str(mine.value) == str(ref.value)
        assert f"TCON node {tcon}" in str(mine.value)
        # The failure is per lookup, not cached state.
        assert net.specialize({p: 0}).tcon_routes[tcon] == ("var", 0)

    def test_non_wire_tcon_raises_the_reference_error(self):
        c = Circuit()
        x, y, p = c.add_input("x"), c.add_input("y"), c.add_param("p")
        c.add_output("z", c.g_mux(p, x, c.g_and(x, y)))
        net = MappedNetwork(c)
        xi = net.add_node(MappedNode(NodeKind.INPUT, source=x, name="x"))
        yi = net.add_node(MappedNode(NodeKind.INPUT, source=y, name="y"))
        # Variables (x, y, p): x when p=0, x & y when p=1.
        table = TruthTable(3, 0b10001010)
        tcon = net.add_node(MappedNode(
            NodeKind.TCON, inputs=(xi, yi), function=table, tune_vars=(p,)))
        assert net.specialize({p: 0}).tcon_routes[tcon] == ("var", 0)
        with pytest.raises(ValueError) as mine:
            net.specialize({p: 1})
        with pytest.raises(ValueError) as ref:
            specialize_reference(net, {p: 1})
        assert str(mine.value) == str(ref.value)

    def test_add_node_after_specialize_recompiles(self):
        c = Circuit()
        x, p = c.add_input("x"), c.add_param("p")
        net = MappedNetwork(c)
        xi = net.add_node(MappedNode(NodeKind.INPUT, source=x, name="x"))
        first = compile_ppc(net)
        assert net.specialize({p: 1}).lut_configs == {}
        tlut = net.add_node(MappedNode(
            NodeKind.TLUT, inputs=(xi,), function=TruthTable(2, 0b1000), tune_vars=(p,)))
        assert compile_ppc(net) is not first
        assert net.specialize({p: 1}).lut_configs[tlut] == TruthTable(1, 0b10)
        assert net.specialize({p: 0}).lut_configs[tlut] == TruthTable(1, 0b00)
        _assert_same_specialization(net, {p: 1})


class TestMapperOptions:
    def test_k_controls_lut_size(self):
        d = Design()
        a = d.input_bus("a", 6)
        b = d.input_bus("b", 6)
        d.output_bus("s", d.adder(a, b)[0])
        opt, _ = optimize(d.circuit)
        net6 = technology_map(opt, MapperOptions(k=6))
        net4 = technology_map(opt, MapperOptions(k=4))
        assert net6.num_luts() <= net4.num_luts()
        for nid in lut_node_ids(net6):
            assert len(net6.nodes[nid].inputs) <= 6

    def test_validate_passes_on_both_flows(self):
        d = param_mult_design(5, 5)
        opt, _ = optimize(d.circuit)
        map_conventional(opt).validate()
        map_parameterized(opt).validate()
