"""Unit and property tests for synthesis and logic optimization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import exhaustive_patterns
from oracles import param_bit_values_reference

from repro.core.pe import ProcessingElementSpec, build_pe_design
from repro.flopoco.format import FPFormat
from repro.netlist.circuit import Circuit, Op
from repro.netlist.hdl import Design
from repro.netlist.simulate import simulate_patterns, simulate_words
from repro.synth.constprop import (
    classify_nodes,
    param_bit_values,
    parameter_cone_nodes,
    specialize,
)
from repro.synth.optimize import optimize, rewrite, sweep
from repro.synth.synthesis import synthesize


def outputs_on_all_patterns(circuit):
    """Output vectors of a circuit under exhaustive input patterns (params = 0)."""
    ids = circuit.input_ids()
    pats = exhaustive_patterns(ids)
    n = 1 << len(ids)
    values = simulate_patterns(circuit, pats, n)
    mask = (1 << n) - 1
    return {name: values[nid] & mask for name, nid in circuit.outputs.items()}


def equivalent(c1, c2):
    """Functional equivalence over all input patterns, matching inputs by name."""
    # Re-simulate c2 with patterns keyed by input *name* so differing ids are fine.
    ids1 = c1.input_ids()
    names1 = [c1.names.get(i, f"in{i}") for i in ids1]
    n = len(ids1)
    pats1 = exhaustive_patterns(ids1)
    num = 1 << n
    vals1 = simulate_patterns(c1, pats1, num)

    name_to_id2 = {c2.names.get(i, f"in{i}"): i for i in c2.input_ids()}
    pats2 = {name_to_id2[nm]: pats1[i1] for nm, i1 in zip(names1, ids1) if nm in name_to_id2}
    vals2 = simulate_patterns(c2, pats2, num)
    mask = (1 << num) - 1
    for name, nid1 in c1.outputs.items():
        nid2 = c2.outputs[name]
        if (vals1[nid1] & mask) != (vals2[nid2] & mask):
            return False
    return True


class TestRewrite:
    def test_constant_folding_and(self):
        c = Circuit()
        a = c.add_input("a")
        zero = c.const(0)
        c.add_output("y", c.g_and(a, zero))
        r = rewrite(c)
        out = r.circuit.outputs["y"]
        assert r.circuit.ops[out] == Op.CONST0

    def test_or_with_one(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", c.g_or(a, c.const(1)))
        r = rewrite(c)
        assert r.circuit.ops[r.circuit.outputs["y"]] == Op.CONST1

    def test_xor_cancellation(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        c.add_output("y", c.g_xor(a, b, a))  # a ^ b ^ a = b
        r = rewrite(c)
        assert r.circuit.outputs["y"] == r.node_map[b]

    def test_double_negation(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", c.g_not(c.g_not(a)))
        r = rewrite(c)
        assert r.circuit.outputs["y"] == r.node_map[a]

    def test_mux_constant_select(self):
        c = Circuit()
        a, b, s = c.add_input("a"), c.add_input("b"), c.add_input("s")
        m = c.g_mux(c.const(1), a, b)
        c.add_output("y", m)
        r = rewrite(c)
        assert r.circuit.outputs["y"] == r.node_map[b]

    def test_mux_same_branches(self):
        c = Circuit()
        a, s = c.add_input("a"), c.add_input("s")
        c.add_output("y", c.g_mux(s, a, a))
        r = rewrite(c)
        assert r.circuit.outputs["y"] == r.node_map[a]

    def test_mux_to_and(self):
        c = Circuit()
        a, s = c.add_input("a"), c.add_input("s")
        c.add_output("y", c.g_mux(s, c.const(0), a))
        r = rewrite(c)
        out = r.circuit.outputs["y"]
        assert r.circuit.ops[out] == Op.AND

    def test_buffer_collapse(self):
        c = Circuit()
        a = c.add_input("a")
        b1 = c.gate(Op.BUF, a)
        b2 = c.gate(Op.BUF, b1)
        c.add_output("y", b2)
        r = rewrite(c)
        assert r.circuit.outputs["y"] == r.node_map[a]

    def test_rewrite_preserves_function(self):
        d = Design()
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        s, _ = d.adder(a, b)
        d.output_bus("s", s)
        r = rewrite(d.circuit)
        assert equivalent(d.circuit, r.circuit)


class TestSweep:
    def test_dead_logic_removed(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        used = c.g_and(a, b)
        c.g_or(a, b)  # dead
        c.g_xor(a, b)  # dead
        c.add_output("y", used)
        r = sweep(c)
        assert r.circuit.num_gates() == 1

    def test_inputs_preserved_by_default(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_input("unused")
        c.add_output("y", c.g_not(a))
        r = sweep(c)
        assert len(r.circuit.input_ids()) == 2

    def test_inputs_can_be_dropped(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_input("unused")
        c.add_output("y", c.g_not(a))
        r = sweep(c, keep_dangling_inputs=False)
        assert len(r.circuit.input_ids()) == 1


class TestOptimize:
    def test_optimize_shrinks_redundant_logic(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        x1 = c.g_and(a, b)
        x2 = c.g_and(a, b)  # duplicate
        y = c.g_or(x1, x2)  # or of identical nodes
        c.add_output("y", y)
        opt, _ = optimize(c)
        assert opt.num_gates() == 1

    def test_optimize_preserves_adder_function(self):
        d = Design()
        a = d.input_bus("a", 5)
        b = d.input_bus("b", 5)
        s, co = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", co)
        opt, _ = optimize(d.circuit)
        assert equivalent(d.circuit, opt)

    @given(st.integers(0, 2**6 - 1))
    @settings(max_examples=20, deadline=None)
    def test_optimize_preserves_random_logic(self, seed):
        import random

        rnd = random.Random(seed)
        c = Circuit()
        nodes = [c.add_input(f"i{k}") for k in range(4)]
        for _ in range(15):
            op = rnd.choice([Op.AND, Op.OR, Op.XOR, Op.NOT, Op.MUX])
            if op == Op.NOT:
                nodes.append(c.g_not(rnd.choice(nodes)))
            elif op == Op.MUX:
                nodes.append(c.g_mux(rnd.choice(nodes), rnd.choice(nodes), rnd.choice(nodes)))
            else:
                nodes.append(c.gate(op, rnd.choice(nodes), rnd.choice(nodes)))
        c.add_output("y", nodes[-1])
        c.add_output("z", nodes[-2])
        opt, _ = optimize(c)
        assert equivalent(c, opt)


class TestParamBitValues:
    """The one-pass expansion against the per-word rescan it replaced."""

    @pytest.mark.parametrize(
        "spec",
        [
            ProcessingElementSpec(fmt=FPFormat(5, 10)),
            ProcessingElementSpec(fmt=FPFormat(we=4, wf=4), num_inputs=2, counter_width=4),
        ],
        ids=["bench_pe", "test_pe"],
    )
    def test_pe_word_settings_match_reference(self, spec):
        circuit = build_pe_design(spec).circuit
        rng = random.Random(3)
        for _ in range(20):
            words = {
                "coeff": rng.randrange(1 << spec.fmt.width),
                "op": rng.randrange(4),
                "sel_a": rng.randrange(1 << spec.sel_width),
                "sel_b": rng.randrange(1 << spec.sel_width),
                "count_limit": rng.randrange(1 << spec.counter_width),
            }
            # Subsets in shuffled order, and words wider than their bus.
            names = rng.sample(sorted(words), rng.randrange(1, len(words) + 1))
            subset = {name: words[name] << rng.choice((0, 0, 7)) for name in names}
            assert param_bit_values(circuit, subset) == param_bit_values_reference(circuit, subset)
        assert param_bit_values(circuit, {}) == {}

    def test_scalar_params_and_overlapping_words_match_reference(self):
        c = Circuit("scalars")
        for name in ("p", "q", "k[0]", "k[1]", "k[2]", "kk[0]"):
            c.add_param(name)
        for words in (
            {"p": 1, "q": 0},
            {"p": 2, "q": -1},
            {"k": 0b101, "p": 0},
            {"k": 0b101, "k[1]": 1},
            {"k[1]": 1, "k": 0b101},
            {"kk": 1, "k": 0},
        ):
            assert param_bit_values(c, words) == param_bit_values_reference(c, words), words

    @pytest.mark.parametrize("words", [{"nope": 1}, {"p": 1, "nope": 1, "other": 0}, {"k[": 1}])
    def test_unknown_name_raises_reference_key_error(self, words):
        c = Circuit("scalars")
        for name in ("p", "k[0]", "k[1]"):
            c.add_param(name)
        with pytest.raises(KeyError) as mine:
            param_bit_values(c, words)
        with pytest.raises(KeyError) as ref:
            param_bit_values_reference(c, words)
        assert str(mine.value) == str(ref.value)
        assert "in circuit 'scalars'" in str(mine.value)


class TestSpecialize:
    def build_param_mult(self):
        d = Design()
        a = d.input_bus("a", 4)
        k = d.param_bus("k", 4)
        d.output_bus("p", d.multiplier(a, k))
        return d

    def test_param_bit_values(self):
        d = self.build_param_mult()
        vals = param_bit_values(d.circuit, {"k": 0b1010})
        by_name = {d.circuit.names[nid]: v for nid, v in vals.items()}
        assert by_name == {"k[0]": 0, "k[1]": 1, "k[2]": 0, "k[3]": 1}

    def test_param_bit_values_unknown_name(self):
        d = self.build_param_mult()
        with pytest.raises(KeyError):
            param_bit_values(d.circuit, {"nope": 1})

    def test_specialize_matches_word_level(self):
        d = self.build_param_mult()
        spec, _ = specialize(d.circuit, {"k": 6})
        # the specialized circuit has no parameters left
        out = simulate_words(spec, {"a": [0, 3, 7, 15]})
        assert [int(x) for x in out["p"]] == [0, 18, 42, 90]

    def test_specialize_by_zero_collapses_to_constant(self):
        d = self.build_param_mult()
        spec, _ = specialize(d.circuit, {"k": 0})
        assert spec.num_gates() == 0
        # The interface survives the collapse: every input (now unused) and
        # output stays, and no parameter bit of the named word is left.
        assert spec.input_names() == d.circuit.input_names()
        assert list(spec.outputs) == list(d.circuit.outputs)
        assert spec.param_names() == []

    def test_specialize_keeps_unnamed_params(self):
        d = Design()
        a = d.input_bus("a", 2)
        k = d.param_bus("k", 2)
        m = d.param_bus("m", 2)
        d.output_bus("p", [d.circuit.g_xor(x, y, z) for x, y, z in zip(a, k, m)])
        spec, _ = specialize(d.circuit, {"k": 0b01})
        assert spec.param_names() == ["m[0]", "m[1]"]
        assert spec.input_names() == ["a[0]", "a[1]"]

    def test_specialization_reduces_area(self):
        d = self.build_param_mult()
        base, _ = optimize(d.circuit)
        spec, _ = specialize(d.circuit, {"k": 11})
        # Constant-propagating one operand of a multiplier must shrink it.
        assert spec.num_gates() < base.num_gates()


class TestParameterCones:
    def test_parameter_cone_detection(self):
        c = Circuit()
        a = c.add_input("a")
        b = c.add_input("b")
        p = c.add_param("p")
        static_gate = c.g_and(a, b)
        tunable_gate = c.g_or(static_gate, p)
        c.add_output("y", tunable_gate)
        cone = parameter_cone_nodes(c)
        assert p in cone and tunable_gate in cone
        assert static_gate not in cone
        classes = classify_nodes(c)
        assert static_gate in classes["static"]
        assert tunable_gate in classes["tunable"]


class TestSynthesize:
    def test_synthesize_design(self):
        d = Design("mac_like")
        a = d.input_bus("a", 4)
        k = d.param_bus("k", 4)
        p = d.multiplier(a, k)
        acc = d.input_bus("acc", 8)
        s, _ = d.adder(p, acc)
        d.output_bus("y", s)
        res = synthesize(d)
        assert res.num_gates > 0
        assert res.node_classes["tunable"]

    def test_synthesize_without_optimization(self):
        d = Design()
        a = d.input_bus("a", 3)
        b = d.input_bus("b", 3)
        d.output_bus("s", d.adder(a, b)[0])
        res_raw = synthesize(d, optimize_logic=False)
        res_opt = synthesize(d)
        assert res_raw.num_gates >= res_opt.num_gates
