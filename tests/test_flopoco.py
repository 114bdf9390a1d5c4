"""Tests for the FloPoCo floating-point substrate (format, arithmetic, circuits)."""


import pytest
from helpers import fp_adder_circuit, fp_mac_circuit, fp_multiplier_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flopoco.arithmetic import fp_add, fp_mac, fp_mul
from repro.flopoco.format import (
    EXC_INF,
    EXC_NAN,
    EXC_NORMAL,
    EXC_ZERO,
    FPFormat,
    PAPER_FORMAT,
)
from repro.netlist.simulate import simulate_words

# A small format keeps the circuit tests fast; the format logic itself is
# width-independent so the same code paths are exercised.
SMALL = FPFormat(we=4, wf=6)
MEDIUM = FPFormat(we=5, wf=10)


finite_floats = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
).filter(lambda v: v == 0.0 or 2.0**-6 < abs(v) < 2.0**6)


class TestFormat:
    def test_paper_format_dimensions(self):
        assert PAPER_FORMAT.we == 6
        assert PAPER_FORMAT.wf == 26
        assert PAPER_FORMAT.width == 35
        assert PAPER_FORMAT.bias == 31

    def test_invalid_format_rejected(self):
        with pytest.raises(ValueError):
            FPFormat(we=1, wf=8)
        with pytest.raises(ValueError):
            FPFormat(we=4, wf=0)

    def test_pack_unpack_roundtrip(self):
        fmt = SMALL
        word = fmt.pack(EXC_NORMAL, 1, 9, 0b101011)
        assert fmt.unpack(word) == (EXC_NORMAL, 1, 9, 0b101011)

    def test_pack_range_checks(self):
        with pytest.raises(ValueError):
            SMALL.pack(4, 0, 0, 0)
        with pytest.raises(ValueError):
            SMALL.pack(EXC_NORMAL, 0, 16, 0)
        with pytest.raises(ValueError):
            SMALL.pack(EXC_NORMAL, 0, 0, 64)

    @pytest.mark.parametrize("value", [1.0, -1.0, 0.5, 3.75, -0.125, 13.0, 100.0])
    def test_encode_decode_exact_values(self, value):
        assert SMALL.decode(SMALL.encode(value)) == pytest.approx(value, rel=2**-6)

    def test_encode_zero_and_specials(self):
        fmt = SMALL
        assert fmt.exception_of(fmt.encode(0.0)) == EXC_ZERO
        assert fmt.exception_of(fmt.encode(float("inf"))) == EXC_INF
        assert fmt.exception_of(fmt.encode(float("-inf"))) == EXC_INF
        assert fmt.sign_of(fmt.encode(float("-inf"))) == 1
        assert fmt.exception_of(fmt.encode(float("nan"))) == EXC_NAN

    def test_encode_overflow_saturates_to_inf(self):
        fmt = SMALL  # emax-bias = 15-7 = 8 -> max magnitude < 2^9
        assert fmt.exception_of(fmt.encode(1e9)) == EXC_INF

    def test_encode_underflow_flushes_to_zero(self):
        fmt = SMALL
        assert fmt.exception_of(fmt.encode(1e-9)) == EXC_ZERO

    @given(finite_floats)
    @settings(max_examples=200)
    def test_encode_decode_relative_error(self, value):
        fmt = MEDIUM
        decoded = fmt.decode(fmt.encode(value))
        if value == 0.0:
            assert decoded == 0.0
        else:
            assert abs(decoded - value) <= abs(value) * 2.0 ** (-fmt.wf)


class TestWordArithmetic:
    @given(finite_floats, finite_floats)
    @settings(max_examples=200)
    def test_mul_matches_float(self, a, b):
        fmt = PAPER_FORMAT
        res = fmt.decode(fp_mul(fmt, fmt.encode(a), fmt.encode(b)))
        expected = a * b
        if expected == 0.0:
            assert res == 0.0
        else:
            assert abs(res - expected) <= abs(expected) * 2.0 ** (-fmt.wf + 2)

    @given(finite_floats, finite_floats)
    @settings(max_examples=200)
    def test_add_matches_float(self, a, b):
        fmt = PAPER_FORMAT
        res = fmt.decode(fp_add(fmt, fmt.encode(a), fmt.encode(b)))
        expected = a + b
        tol = max(abs(a), abs(b), 1e-30) * 2.0 ** (-fmt.wf + 2)
        assert abs(res - expected) <= tol

    @given(finite_floats, finite_floats, finite_floats)
    @settings(max_examples=100)
    def test_mac_matches_float(self, acc, x, k):
        fmt = PAPER_FORMAT
        res = fmt.decode(fp_mac(fmt, fmt.encode(acc), fmt.encode(x), fmt.encode(k)))
        expected = acc + x * k
        tol = (abs(acc) + abs(x * k) + 1e-30) * 2.0 ** (-fmt.wf + 3)
        assert abs(res - expected) <= tol

    def test_mul_special_cases(self):
        fmt = SMALL
        inf, nan, zero = fmt.encode(float("inf")), fmt.encode(float("nan")), fmt.encode(0.0)
        two = fmt.encode(2.0)
        assert fmt.exception_of(fp_mul(fmt, inf, two)) == EXC_INF
        assert fmt.exception_of(fp_mul(fmt, inf, zero)) == EXC_NAN
        assert fmt.exception_of(fp_mul(fmt, nan, two)) == EXC_NAN
        assert fmt.exception_of(fp_mul(fmt, zero, two)) == EXC_ZERO
        # sign of zero product
        m = fp_mul(fmt, fmt.encode(-2.0), zero)
        assert fmt.exception_of(m) == EXC_ZERO and fmt.sign_of(m) == 1

    def test_add_special_cases(self):
        fmt = SMALL
        inf = fmt.encode(float("inf"))
        ninf = fmt.encode(float("-inf"))
        nan = fmt.encode(float("nan"))
        zero = fmt.encode(0.0)
        two = fmt.encode(2.0)
        assert fmt.exception_of(fp_add(fmt, inf, ninf)) == EXC_NAN
        assert fmt.exception_of(fp_add(fmt, inf, inf)) == EXC_INF
        assert fmt.exception_of(fp_add(fmt, nan, two)) == EXC_NAN
        assert fp_add(fmt, zero, two) == two
        assert fp_add(fmt, two, zero) == two

    def test_add_exact_cancellation(self):
        fmt = SMALL
        a = fmt.encode(3.5)
        na = fmt.encode(-3.5)
        assert fmt.exception_of(fp_add(fmt, a, na)) == EXC_ZERO

    def test_mul_overflow_and_underflow(self):
        fmt = SMALL
        big = fmt.pack(EXC_NORMAL, 0, fmt.emax, (1 << fmt.wf) - 1)
        tiny = fmt.pack(EXC_NORMAL, 0, 0, 1)
        assert fmt.exception_of(fp_mul(fmt, big, big)) == EXC_INF
        assert fmt.exception_of(fp_mul(fmt, tiny, tiny)) == EXC_ZERO

    def test_mul_commutative(self):
        fmt = MEDIUM
        for a, b in [(1.5, -2.25), (0.03125, 19.0), (7.0, 7.0)]:
            wa, wb = fmt.encode(a), fmt.encode(b)
            assert fp_mul(fmt, wa, wb) == fp_mul(fmt, wb, wa)

    def test_add_commutative(self):
        fmt = MEDIUM
        for a, b in [(1.5, -2.25), (0.03125, 19.0), (-7.0, 7.0)]:
            wa, wb = fmt.encode(a), fmt.encode(b)
            assert fp_add(fmt, wa, wb) == fp_add(fmt, wb, wa)


def circuit_words(design, port_values):
    out = simulate_words(design.circuit, port_values["inputs"], port_values.get("params"))
    return {k: [int(x) for x in v] for k, v in out.items()}


class TestMultiplierCircuit:
    @given(finite_floats, finite_floats)
    @settings(max_examples=25, deadline=None)
    def test_matches_word_level(self, a, b):
        fmt = SMALL
        d = fp_multiplier_circuit(fmt)
        wa, wb = fmt.encode(a), fmt.encode(b)
        res = circuit_words(d, {"inputs": {"x": [wa], "y": [wb]}})
        assert res["p"][0] == fp_mul(fmt, wa, wb)

    def test_special_values_match(self):
        fmt = SMALL
        d = fp_multiplier_circuit(fmt)
        specials = [
            fmt.encode(0.0),
            fmt.encode(float("inf")),
            fmt.encode(float("-inf")),
            fmt.encode(float("nan")),
            fmt.encode(1.0),
            fmt.encode(-3.25),
            fmt.pack(EXC_NORMAL, 0, fmt.emax, (1 << fmt.wf) - 1),
            fmt.pack(EXC_NORMAL, 1, 0, 1),
        ]
        xs, ys, expected = [], [], []
        for a in specials:
            for b in specials:
                xs.append(a)
                ys.append(b)
                expected.append(fp_mul(fmt, a, b))
        res = circuit_words(d, {"inputs": {"x": xs, "y": ys}})
        assert res["p"] == expected

    def test_parameterized_coefficient_port(self):
        fmt = SMALL
        d = fp_multiplier_circuit(fmt, param_coefficient=True)
        assert len(d.circuit.param_ids()) == fmt.width
        wa = fmt.encode(1.5)
        wk = fmt.encode(-2.0)
        res = circuit_words(d, {"inputs": {"x": [wa]}, "params": {"coeff": wk}})
        assert res["p"][0] == fp_mul(fmt, wa, wk)


class TestAdderCircuit:
    @given(finite_floats, finite_floats)
    @settings(max_examples=25, deadline=None)
    def test_matches_word_level(self, a, b):
        fmt = SMALL
        d = fp_adder_circuit(fmt)
        wa, wb = fmt.encode(a), fmt.encode(b)
        res = circuit_words(d, {"inputs": {"x": [wa], "y": [wb]}})
        assert res["s"][0] == fp_add(fmt, wa, wb)

    def test_special_values_match(self):
        fmt = SMALL
        d = fp_adder_circuit(fmt)
        specials = [
            fmt.encode(0.0),
            fmt.encode(-0.0),
            fmt.encode(float("inf")),
            fmt.encode(float("-inf")),
            fmt.encode(float("nan")),
            fmt.encode(1.0),
            fmt.encode(-1.0),
            fmt.encode(1.0 + 2**-6),
            fmt.pack(EXC_NORMAL, 0, fmt.emax, (1 << fmt.wf) - 1),
            fmt.pack(EXC_NORMAL, 1, 0, 0),
        ]
        xs, ys, expected = [], [], []
        for a in specials:
            for b in specials:
                xs.append(a)
                ys.append(b)
                expected.append(fp_add(fmt, a, b))
        res = circuit_words(d, {"inputs": {"x": xs, "y": ys}})
        assert res["s"] == expected


class TestMacCircuit:
    @given(finite_floats, finite_floats, finite_floats)
    @settings(max_examples=15, deadline=None)
    def test_matches_word_level(self, acc, x, k):
        fmt = SMALL
        d = fp_mac_circuit(fmt, param_coefficient=True)
        wacc, wx, wk = fmt.encode(acc), fmt.encode(x), fmt.encode(k)
        res = circuit_words(
            d, {"inputs": {"sample": [wx], "acc": [wacc]}, "params": {"coeff": wk}}
        )
        assert res["result"][0] == fp_mac(fmt, wacc, wx, wk)

    def test_gate_count_scales_with_format(self):
        small = fp_mac_circuit(FPFormat(4, 6)).circuit.num_gates()
        larger = fp_mac_circuit(FPFormat(5, 10)).circuit.num_gates()
        assert larger > small > 0
