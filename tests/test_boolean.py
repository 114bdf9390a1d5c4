"""Unit and property tests for truth-table Boolean functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.boolean import (
    TruthTable,
    cofactor,
    restrict,
    var_tt,
    wire_source,
)


class TestConstructors:
    def test_const0(self):
        tt = TruthTable(3, 0)
        assert tt.is_const0()
        assert not tt.is_const1()

    def test_const1(self):
        tt = ~TruthTable(3, 0)
        assert tt.is_const1()
        assert tt.bits == 0xFF

    def test_var_projection(self):
        tt = var_tt(1, 3)
        for row in range(8):
            assert tt.value(row) == (row >> 1) & 1

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            var_tt(3, 3)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(-1, 0)

    def test_bits_are_masked(self):
        tt = TruthTable(1, 0b1111)
        assert tt.bits == 0b11


class TestEvaluation:
    def test_evaluate_and_value_agree(self):
        tt = TruthTable(2, 0b1000)  # AND
        assert tt.evaluate([1, 1]) == 1
        assert tt.evaluate([0, 1]) == 0
        assert tt.value(3) == 1
        assert tt.value(1) == 0

    def test_evaluate_wrong_arity(self):
        tt = TruthTable(2, 0b1000)
        with pytest.raises(ValueError):
            tt.evaluate([1])

    def test_value_out_of_range(self):
        tt = TruthTable(2, 0b1000)
        with pytest.raises(ValueError):
            tt.value(4)


class TestAlgebra:
    def test_and_or_xor_not(self):
        a = var_tt(0, 2)
        b = var_tt(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_mismatched_vars_rejected(self):
        with pytest.raises(ValueError):
            _ = var_tt(0, 2) & var_tt(0, 3)

    def test_de_morgan(self):
        a, b = var_tt(0, 2), var_tt(1, 2)
        assert (~(a & b)).bits == ((~a) | (~b)).bits


class TestSupport:
    def test_depends_on(self):
        a = var_tt(0, 3)
        assert a.depends_on(0)
        assert not a.depends_on(1)
        assert not a.depends_on(2)

    def test_support_of_and(self):
        f = var_tt(0, 3) & var_tt(2, 3)
        assert f.support() == (0, 2)

    def test_shrink_to_support(self):
        f = var_tt(0, 3) & var_tt(2, 3)
        small, kept = f.shrink_to_support()
        assert kept == (0, 2)
        assert small.num_vars == 2
        assert small.bits == 0b1000  # AND of the two retained vars

    def test_expand_roundtrip(self):
        f = TruthTable(2, 0b0110)  # XOR
        big = f.expand(4, [1, 3])
        assert big.support() == (1, 3)
        small, kept = big.shrink_to_support()
        assert kept == (1, 3)
        assert small.bits == f.bits


class TestCofactor:
    def test_cofactor_of_and(self):
        f = var_tt(0, 2) & var_tt(1, 2)
        assert cofactor(f, 0, 1).bits == var_tt(1, 2).bits
        assert cofactor(f, 0, 0).is_const0()

    def test_restrict_multiple(self):
        f = var_tt(0, 3) & var_tt(1, 3) & var_tt(2, 3)
        g = restrict(f, {0: 1, 1: 1})
        assert g.bits == var_tt(2, 3).bits

    def test_shannon_expansion_identity(self):
        f = TruthTable(3, 0b10110010)
        pos = cofactor(f, 1, 1)
        neg = cofactor(f, 1, 0)
        x = var_tt(1, 3)
        recombined = (x & pos) | (~x & neg)
        assert recombined.bits == f.bits


class TestWireFunctions:
    def test_identity_is_wire(self):
        f = var_tt(2, 4)
        assert wire_source(f, [2]) == ("var", 2, False)

    def test_inverted_wire(self):
        f = ~var_tt(1, 3)
        assert wire_source(f, [1]) == ("var", 1, True)

    def test_constants_are_wires(self):
        assert wire_source(TruthTable(2, 0), [0, 1]) == ("const0", None, False)
        assert wire_source(~TruthTable(2, 0), [0, 1]) == ("const1", None, False)

    def test_and_is_not_a_wire(self):
        f = var_tt(0, 2) & var_tt(1, 2)
        with pytest.raises(ValueError):
            wire_source(f, [0, 1])

    def test_wire_over_wrong_var_set(self):
        f = var_tt(0, 2)
        with pytest.raises(ValueError):
            wire_source(f, [1])


@st.composite
def truth_tables(draw, max_vars=4):
    n = draw(st.integers(min_value=0, max_value=max_vars))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return TruthTable(n, bits)


class TestProperties:
    @given(truth_tables())
    @settings(max_examples=100)
    def test_double_negation(self, tt):
        assert (~~tt).bits == tt.bits

    @given(truth_tables())
    @settings(max_examples=100)
    def test_xor_self_is_zero(self, tt):
        assert (tt ^ tt).is_const0()

    @given(truth_tables())
    @settings(max_examples=100)
    def test_support_matches_shrink(self, tt):
        small, kept = tt.shrink_to_support()
        assert kept == tt.support()
        assert small.num_vars == len(kept)

    @given(truth_tables(max_vars=3), st.integers(min_value=0, max_value=2))
    @settings(max_examples=100)
    def test_cofactor_removes_dependence(self, tt, var):
        if var >= tt.num_vars:
            return
        assert not cofactor(tt, var, 0).depends_on(var)
        assert not cofactor(tt, var, 1).depends_on(var)

    @given(truth_tables(max_vars=3))
    @settings(max_examples=100)
    def test_evaluate_agrees_with_value(self, tt):
        for row in range(tt.num_rows):
            bits = [(row >> i) & 1 for i in range(tt.num_vars)]
            assert tt.evaluate(bits) == tt.value(row)
