"""Unit tests for the gate-level circuit representation."""

import pytest

from repro.netlist.circuit import Circuit, Op


def small_and_or():
    c = Circuit("small")
    a = c.add_input("a")
    b = c.add_input("b")
    d = c.add_input("d")
    ab = c.g_and(a, b)
    out = c.g_or(ab, d)
    c.add_output("y", out)
    return c, (a, b, d, ab, out)


class TestConstruction:
    def test_topological_ids(self):
        c, (a, b, d, ab, out) = small_and_or()
        assert a < ab < out
        c.validate()

    def test_input_and_param_kinds(self):
        c = Circuit()
        i = c.add_input("x")
        p = c.add_param("k")
        assert c.ops[i] == Op.INPUT
        assert c.ops[p] == Op.PARAM
        assert c.input_ids() == [i]
        assert c.param_ids() == [p]

    def test_const_nodes_are_cached(self):
        c = Circuit()
        assert c.const(0) == c.const(0)
        assert c.const(1) == c.const(1)
        assert c.const(0) != c.const(1)

    def test_gate_arity_checks(self):
        c = Circuit()
        a = c.add_input("a")
        with pytest.raises(ValueError):
            c.gate(Op.NOT, a, a)
        with pytest.raises(ValueError):
            c.gate(Op.AND, a)
        with pytest.raises(ValueError):
            c.gate(Op.MUX, a, a)

    def test_unknown_gate_rejected(self):
        c = Circuit()
        a = c.add_input("a")
        with pytest.raises(ValueError):
            c.gate("nandnor", a, a)

    def test_missing_fanin_rejected(self):
        c = Circuit()
        a = c.add_input("a")
        with pytest.raises(ValueError):
            c.gate(Op.AND, a, 42)

    def test_duplicate_output_rejected(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", a)
        with pytest.raises(ValueError):
            c.add_output("y", a)

    def test_strash_merges_identical_gates(self):
        c = Circuit(strash=True)
        a = c.add_input("a")
        b = c.add_input("b")
        g1 = c.g_and(a, b)
        g2 = c.g_and(b, a)  # commutative: same node
        assert g1 == g2
        g3 = c.g_or(a, b)
        assert g3 != g1

    def test_strash_respects_noncommutative_order(self):
        c = Circuit(strash=True)
        a = c.add_input("a")
        b = c.add_input("b")
        s = c.add_input("s")
        m1 = c.g_mux(s, a, b)
        m2 = c.g_mux(s, b, a)
        assert m1 != m2


class TestQueries:
    def test_stats(self):
        c, _ = small_and_or()
        st = c.stats()
        assert st.num_inputs == 3
        assert st.num_gates == 2
        assert st.num_outputs == 1
        assert st.depth == 2

    def test_depth_of_leaf_only_circuit(self):
        c = Circuit()
        a = c.add_input("a")
        c.add_output("y", a)
        assert c.depth() == 0

    def test_levels(self):
        c, (a, b, d, ab, out) = small_and_or()
        lv = c.levels()
        assert lv[a] == 0
        assert lv[ab] == 1
        assert lv[out] == 2


class TestTransforms:
    def test_clone_is_independent(self):
        c, _ = small_and_or()
        c2 = c.clone()
        c2.add_input("extra")
        assert len(c2) == len(c) + 1

    def test_validate_catches_cycle_violation(self):
        c, _ = small_and_or()
        # Force a forward reference, which breaks the topological invariant.
        c.fanins[0] = (len(c.ops) - 1,)
        c.ops[0] = Op.NOT
        with pytest.raises(ValueError):
            c.validate()

    def test_transitive_fanin(self):
        c, (a, b, d, ab, out) = small_and_or()
        cone = c.transitive_fanin([out])
        assert set(cone) == {a, b, d, ab, out}
        assert c.transitive_fanin([ab]) == [a, b, ab]
