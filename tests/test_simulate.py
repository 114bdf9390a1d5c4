"""Unit tests for bit-parallel circuit simulation."""

import pytest

from repro.netlist.circuit import Circuit, Op
from helpers import exhaustive_patterns, simulate_single

from repro.netlist.simulate import random_patterns, simulate_patterns, simulate_words


def build_majority():
    """3-input majority gate circuit."""
    c = Circuit("maj")
    a, b, d = c.add_input("a"), c.add_input("b"), c.add_input("d")
    ab = c.g_and(a, b)
    ad = c.g_and(a, d)
    bd = c.g_and(b, d)
    c.add_output("y", c.g_or(ab, ad, bd))
    return c


class TestSimulatePatterns:
    def test_majority_exhaustive(self):
        c = build_majority()
        pats = exhaustive_patterns(c.input_ids())
        values = simulate_patterns(c, pats, 8)
        y = values[c.outputs["y"]]
        for p in range(8):
            bits = [(p >> i) & 1 for i in range(3)]
            assert ((y >> p) & 1) == (1 if sum(bits) >= 2 else 0)

    def test_all_gate_ops(self):
        c = Circuit()
        a, b = c.add_input("a"), c.add_input("b")
        s = c.add_input("s")
        c.add_output("and", c.gate(Op.AND, a, b))
        c.add_output("or", c.gate(Op.OR, a, b))
        c.add_output("xor", c.gate(Op.XOR, a, b))
        c.add_output("nand", c.gate(Op.NAND, a, b))
        c.add_output("nor", c.gate(Op.NOR, a, b))
        c.add_output("xnor", c.gate(Op.XNOR, a, b))
        c.add_output("not", c.gate(Op.NOT, a))
        c.add_output("buf", c.gate(Op.BUF, a))
        c.add_output("mux", c.gate(Op.MUX, s, a, b))
        for pa in (0, 1):
            for pb in (0, 1):
                for ps in (0, 1):
                    out = simulate_single(c, {"a": pa, "b": pb, "s": ps})
                    assert out["and"] == (pa & pb)
                    assert out["or"] == (pa | pb)
                    assert out["xor"] == (pa ^ pb)
                    assert out["nand"] == 1 - (pa & pb)
                    assert out["nor"] == 1 - (pa | pb)
                    assert out["xnor"] == 1 - (pa ^ pb)
                    assert out["not"] == 1 - pa
                    assert out["buf"] == pa
                    assert out["mux"] == (pb if ps else pa)

    def test_unspecified_inputs_default_to_zero(self):
        c = build_majority()
        out = simulate_single(c, {"a": 1})
        assert out["y"] == 0

    def test_param_defaults_to_zero(self):
        c = Circuit()
        a = c.add_input("a")
        k = c.add_param("k")
        c.add_output("y", c.g_and(a, k))
        values = simulate_patterns(c, {a: 0b11}, 2)
        assert values[c.outputs["y"]] == 0

    def test_constants(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("one", c.g_or(a, c.const(1)))
        c.add_output("zero", c.g_and(a, c.const(0)))
        values = simulate_patterns(c, {a: 0b01}, 2)
        assert values[c.outputs["one"]] == 0b11
        assert values[c.outputs["zero"]] == 0


class TestSimulateWords:
    def test_missing_bus_raises(self):
        c = Circuit()
        c.add_input("a[0]")
        with pytest.raises(KeyError):
            simulate_words(c, {"b": [1]})

    def test_single_bit_bus_by_plain_name(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", c.g_not(a))
        out = simulate_words(c, {"a": [0, 1]})
        assert list(out["y"]) == [1, 0]


class TestPatternGenerators:
    def test_random_patterns_deterministic(self):
        c = build_majority()
        p1 = random_patterns(c, 64)
        p2 = random_patterns(c, 64)
        assert p1 == p2

    def test_exhaustive_patterns_cover_all(self):
        ids = [10, 20, 30]
        pats = exhaustive_patterns(ids)
        seen = set()
        for p in range(8):
            assignment = tuple((pats[i] >> p) & 1 for i in ids)
            seen.add(assignment)
        assert len(seen) == 8
