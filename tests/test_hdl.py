"""Unit and property tests for the word-level structural HDL builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.hdl import Design
from repro.netlist.simulate import simulate_words


def run_words(design, inputs, params=None):
    """Helper: simulate and return output buses as plain Python ints."""
    out = simulate_words(design.circuit, inputs, params)
    return {k: [int(x) for x in v] for k, v in out.items()}


class TestAdderSubtractor:
    def test_adder_small_exhaustive(self):
        d = Design("add4")
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        s, cout = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", cout)
        avals = [x for x in range(16) for _ in range(16)]
        bvals = [y for _ in range(16) for y in range(16)]
        res = run_words(d, {"a": avals, "b": bvals})
        for i, (x, y) in enumerate(zip(avals, bvals)):
            total = x + y
            assert res["s"][i] == total & 0xF
            assert res["cout"][i] == (total >> 4) & 1

    def test_subtractor_borrow(self):
        d = Design("sub4")
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        diff, borrow = d.subtractor(a, b)
        d.output_bus("diff", diff)
        d.output_bit("borrow", borrow)
        avals = list(range(16)) * 16
        bvals = [y for y in range(16) for _ in range(16)]
        res = run_words(d, {"a": avals, "b": bvals})
        for i, (x, y) in enumerate(zip(avals, bvals)):
            assert res["diff"][i] == (x - y) & 0xF
            assert res["borrow"][i] == (1 if x < y else 0)

    def test_mixed_width_operands(self):
        d = Design()
        a = d.input_bus("a", 6)
        b = d.input_bus("b", 3)
        s, _ = d.adder(a, b)
        d.output_bus("s", s)
        res = run_words(d, {"a": [40, 63], "b": [5, 7]})
        assert res["s"] == [45, (63 + 7) & 0x3F]


class TestMultiplier:
    def test_multiplier_exhaustive_4x4(self):
        d = Design("mul4")
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        p = d.multiplier(a, b)
        assert len(p) == 8
        d.output_bus("p", p)
        avals = [x for x in range(16) for _ in range(16)]
        bvals = [y for _ in range(16) for y in range(16)]
        res = run_words(d, {"a": avals, "b": bvals})
        for i, (x, y) in enumerate(zip(avals, bvals)):
            assert res["p"][i] == x * y

    @given(st.integers(0, 2**7 - 1), st.integers(0, 2**7 - 1))
    @settings(max_examples=30, deadline=None)
    def test_multiplier_random_7x7(self, x, y):
        d = Design()
        a = d.input_bus("a", 7)
        b = d.input_bus("b", 7)
        d.output_bus("p", d.multiplier(a, b))
        res = run_words(d, {"a": [x], "b": [y]})
        assert res["p"][0] == x * y


class TestComparators:
    def test_equals_const(self):
        d = Design()
        a = d.input_bus("a", 5)
        d.output_bit("hit", d.equals(a, d.const_bus(19, 5)))
        res = run_words(d, {"a": list(range(32))})
        assert res["hit"] == [1 if v == 19 else 0 for v in range(32)]

    def test_equals_and_less_than(self):
        d = Design()
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        d.output_bit("eq", d.equals(a, b))
        d.output_bit("lt", d.less_than(a, b))
        avals = [3, 7, 12, 12]
        bvals = [5, 7, 4, 12]
        res = run_words(d, {"a": avals, "b": bvals})
        assert res["eq"] == [0, 1, 0, 1]
        assert res["lt"] == [1, 0, 0, 0]


class TestShifters:
    def test_constant_shifts(self):
        d = Design()
        a = d.input_bus("a", 8)
        d.output_bus("l", d.shift_left_const(a, 3))
        d.output_bus("r", d.shift_right_const(a, 2))
        res = run_words(d, {"a": [0b10110101]})
        assert res["l"][0] == (0b10110101 << 3) & 0xFF
        assert res["r"][0] == 0b10110101 >> 2

    def test_barrel_shift_right(self):
        d = Design()
        a = d.input_bus("a", 8)
        amt = d.input_bus("amt", 3)
        d.output_bus("y", d.barrel_shift_right(a, amt))
        vals = [0xB5] * 8
        amts = list(range(8))
        res = run_words(d, {"a": vals, "amt": amts})
        assert res["y"] == [(0xB5 >> k) & 0xFF for k in range(8)]

    def test_barrel_shift_left(self):
        d = Design()
        a = d.input_bus("a", 8)
        amt = d.input_bus("amt", 3)
        d.output_bus("y", d.barrel_shift_left(a, amt))
        vals = [0x35] * 8
        amts = list(range(8))
        res = run_words(d, {"a": vals, "amt": amts})
        assert res["y"] == [(0x35 << k) & 0xFF for k in range(8)]


class TestLeadingZeroCount:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 0x80, 0x40, 0xFF, 0x01, 0x10])
    def test_lzc_8bit(self, value):
        d = Design()
        a = d.input_bus("a", 8)
        d.output_bus("lzc", d.leading_zero_count(a))
        res = run_words(d, {"a": [value]})
        expected = 8 if value == 0 else 8 - value.bit_length()
        assert res["lzc"][0] == expected


class TestMuxes:
    def test_mux_bus(self):
        d = Design()
        s = d.input_bus("s", 1)[0]
        a = d.input_bus("a", 4)
        b = d.input_bus("b", 4)
        d.output_bus("y", d.mux_bus(s, a, b))
        res = run_words(d, {"s": [0, 1], "a": [3, 3], "b": [12, 12]})
        assert res["y"] == [3, 12]

    def test_mux_tree(self):
        d = Design()
        sels = d.input_bus("sel", 2)
        choices = [d.const_bus(v, 4) for v in (1, 5, 9, 14)]
        d.output_bus("y", d.mux_tree(sels, choices))
        res = run_words(d, {"sel": [0, 1, 2, 3]})
        assert res["y"] == [1, 5, 9, 14]

    def test_mux_tree_wrong_choice_count(self):
        d = Design()
        sels = d.input_bus("sel", 2)
        with pytest.raises(ValueError):
            d.mux_tree(sels, [d.const_bus(0, 2)] * 3)


class TestParamBuses:
    def test_param_bus_acts_as_constant_operand(self):
        d = Design()
        a = d.input_bus("a", 4)
        k = d.param_bus("k", 4)
        p = d.multiplier(a, k)
        d.output_bus("p", p)
        res = run_words(d, {"a": [3, 5, 7]}, params={"k": 6})
        assert res["p"] == [18, 30, 42]

    def test_param_nodes_are_marked(self):
        d = Design()
        d.param_bus("k", 3)
        d.input_bus("a", 2)
        assert len(d.circuit.param_ids()) == 3
        assert len(d.circuit.input_ids()) == 2


class TestProperties:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_adder_matches_python(self, x, y):
        d = Design()
        a = d.input_bus("a", 8)
        b = d.input_bus("b", 8)
        s, cout = d.adder(a, b)
        d.output_bus("s", s)
        d.output_bit("cout", cout)
        res = run_words(d, {"a": [x], "b": [y]})
        assert res["s"][0] + (res["cout"][0] << 8) == x + y

    @given(st.integers(0, 255), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_shift_consistency(self, value, amount):
        d = Design()
        a = d.input_bus("a", 8)
        amt = d.input_bus("amt", 3)
        d.output_bus("y", d.barrel_shift_right(a, amt))
        res = run_words(d, {"a": [value], "amt": [amount]})
        assert res["y"][0] == (value >> amount)
