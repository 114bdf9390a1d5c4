"""Gate-level FloPoCo floating-point operator generators.

The paper builds its Processing Element -- a floating-point multiply
accumulate (MAC) operator -- with the FloPoCo library, *without* dedicated
multipliers or adders, i.e. as pure LUT logic.  These generators reproduce
that: they elaborate FP multiplier and adder datapaths directly into gates
using the structural HDL builder.  The Processing Element
(:mod:`repro.core.pe`) wires them into its MAC with the filter coefficient
declared as a ``--PARAM`` bus, so that the downstream TCONMAP flow can
specialize the operator for each coefficient value.

All operators implement exactly the semantics of
:mod:`repro.flopoco.arithmetic` (truncating rounding, flush-to-zero,
saturate-to-infinity), so the gate-level and word-level models agree
bit-for-bit; the test suite relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..netlist.hdl import Bus, Design
from .format import FPFormat

__all__ = [
    "FPPorts",
    "build_fp_multiplier",
    "build_fp_adder",
]


@dataclass
class FPPorts:
    """Unpacked field buses of a FloPoCo word inside a design."""

    exc: Bus    # 2 bits
    sign: int   # 1 bit
    exp: Bus    # we bits
    frac: Bus   # wf bits


def _unpack(d: Design, word: Bus, fmt: FPFormat) -> FPPorts:
    """Split an encoded FloPoCo bus into its fields."""
    if len(word) != fmt.width:
        raise ValueError(f"expected a {fmt.width}-bit bus, got {len(word)} bits")
    frac = word[: fmt.wf]
    exp = word[fmt.wf : fmt.wf + fmt.we]
    sign = word[fmt.wf + fmt.we]
    exc = word[fmt.wf + fmt.we + 1 : fmt.wf + fmt.we + 3]
    return FPPorts(exc=exc, sign=sign, exp=exp, frac=frac)


def _pack(d: Design, ports: FPPorts) -> Bus:
    """Reassemble field buses into an encoded FloPoCo bus."""
    return list(ports.frac) + list(ports.exp) + [ports.sign] + list(ports.exc)


def _exc_flags(d: Design, exc: Bus) -> Tuple[int, int, int, int]:
    """Decode the two exception bits into (is_zero, is_normal, is_inf, is_nan)."""
    b0, b1 = exc[0], exc[1]
    nb0, nb1 = d.circuit.g_not(b0), d.circuit.g_not(b1)
    is_zero = d.circuit.g_and(nb1, nb0)
    is_normal = d.circuit.g_and(nb1, b0)
    is_inf = d.circuit.g_and(b1, nb0)
    is_nan = d.circuit.g_and(b1, b0)
    return is_zero, is_normal, is_inf, is_nan


def _priority_select(
    d: Design, cases: Sequence[Tuple[int, Bus]], default: Bus
) -> Bus:
    """Priority multiplexer over equally wide buses: the first true condition wins."""
    result = list(default)
    for cond, value in reversed(list(cases)):
        result = d.mux_bus(cond, result, value)
    return result


# ---------------------------------------------------------------------------
# Multiplier
# ---------------------------------------------------------------------------

def build_fp_multiplier(d: Design, x: Bus, y: Bus, fmt: FPFormat) -> Bus:
    """Elaborate a FloPoCo floating-point multiplier; returns the result bus."""
    px, py = _unpack(d, x, fmt), _unpack(d, y, fmt)
    wf, we = fmt.wf, fmt.we

    xz, xn, xi, xq = _exc_flags(d, px.exc)
    yz, yn, yi, yq = _exc_flags(d, py.exc)
    sign = d.circuit.g_xor(px.sign, py.sign)

    is_nan = d.circuit.g_or(xq, yq, d.circuit.g_and(xi, yz), d.circuit.g_and(xz, yi))
    is_inf = d.circuit.g_and(d.circuit.g_or(xi, yi), d.circuit.g_not(is_nan))
    is_zero_exc = d.circuit.g_and(
        d.circuit.g_or(xz, yz),
        d.circuit.g_not(is_nan),
        d.circuit.g_not(is_inf),
    )
    normal_case = d.circuit.g_and(xn, yn)

    # Significand product (1.frac_x * 1.frac_y), 2wf+2 bits.
    sig_x = list(px.frac) + [d.const_bit(1)]
    sig_y = list(py.frac) + [d.const_bit(1)]
    product = d.multiplier(sig_x, sig_y)
    msb = product[2 * wf + 1]
    frac_hi = product[wf + 1 : 2 * wf + 1]
    frac_lo = product[wf : 2 * wf]
    frac = d.mux_bus(msb, frac_lo, frac_hi)

    # Exponent: exp_x + exp_y + msb - bias, evaluated on we+2 bits.
    e1, c1 = d.adder(px.exp, py.exp)
    e1 = e1 + [c1]
    e2, c2 = d.adder(e1, [msb])
    exp_wide = e2 + [c2]                                  # we + 2 bits
    exp_adj, borrow = d.subtractor(exp_wide, d.const_bus(fmt.bias, we + 2))
    underflow = borrow
    overflow = d.circuit.g_and(
        d.circuit.g_not(underflow), d.circuit.g_or(exp_adj[we], exp_adj[we + 1])
    )
    exp_res = exp_adj[:we]

    is_result_normal = d.circuit.g_and(
        normal_case, d.circuit.g_not(overflow), d.circuit.g_not(underflow)
    )

    # Exception field of the result.
    exc_bit1 = d.circuit.g_or(is_nan, is_inf, d.circuit.g_and(normal_case, overflow))
    exc_bit0 = d.circuit.g_or(is_nan, is_result_normal)

    frac_out = [d.circuit.g_and(b, is_result_normal) for b in frac]
    exp_out = [d.circuit.g_and(b, is_result_normal) for b in exp_res]
    sign_out = d.circuit.g_and(sign, d.circuit.g_not(is_nan))

    return _pack(d, FPPorts(exc=[exc_bit0, exc_bit1], sign=sign_out, exp=exp_out, frac=frac_out))


# ---------------------------------------------------------------------------
# Adder
# ---------------------------------------------------------------------------

def build_fp_adder(d: Design, x: Bus, y: Bus, fmt: FPFormat) -> Bus:
    """Elaborate a FloPoCo floating-point adder; returns the result bus."""
    px, py = _unpack(d, x, fmt), _unpack(d, y, fmt)
    wf, we = fmt.wf, fmt.we
    one = d.const_bit(1)
    zero = d.const_bit(0)

    xz, xn, xi, xq = _exc_flags(d, px.exc)
    yz, yn, yi, yq = _exc_flags(d, py.exc)

    # ---- exception cases -------------------------------------------------
    opposite_inf = d.circuit.g_and(xi, yi, d.circuit.g_xor(px.sign, py.sign))
    is_nan = d.circuit.g_or(xq, yq, opposite_inf)
    is_inf = d.circuit.g_and(d.circuit.g_or(xi, yi), d.circuit.g_not(is_nan))
    inf_sign = d.mux_bit(xi, py.sign, px.sign)
    both_zero = d.circuit.g_and(xz, yz)
    x_zero_only = d.circuit.g_and(xz, d.circuit.g_not(yz))
    y_zero_only = d.circuit.g_and(yz, d.circuit.g_not(xz))

    # ---- operand ordering (a has the larger magnitude) --------------------
    key_x = list(px.frac) + list(px.exp)
    key_y = list(py.frac) + list(py.exp)
    x_lt_y = d.less_than(key_x, key_y)

    exp_a = d.mux_bus(x_lt_y, px.exp, py.exp)
    exp_b = d.mux_bus(x_lt_y, py.exp, px.exp)
    frac_a = d.mux_bus(x_lt_y, px.frac, py.frac)
    frac_b = d.mux_bus(x_lt_y, py.frac, px.frac)
    sign_a = d.mux_bit(x_lt_y, px.sign, py.sign)
    sign_b = d.mux_bit(x_lt_y, py.sign, px.sign)

    sig_a = list(frac_a) + [one]
    sig_b = list(frac_b) + [one]

    # ---- alignment ---------------------------------------------------------
    shift, _ = d.subtractor(exp_a, exp_b)     # exp_a >= exp_b by construction
    aligned = d.barrel_shift_right(sig_b, shift)

    same_sign = d.circuit.g_not(d.circuit.g_xor(sign_a, sign_b))

    # ---- addition path -----------------------------------------------------
    total, carry = d.adder(sig_a, aligned)
    frac_add = d.mux_bus(carry, total[:wf], total[1 : wf + 1])
    exp_add, add_cout = d.adder(exp_a, [carry])
    overflow_add = add_cout

    # ---- subtraction path ---------------------------------------------------
    diff, _ = d.subtractor(sig_a, aligned)
    diff = diff[: wf + 1]
    diff_is_zero = d.circuit.g_not(d.reduce_or(diff))
    lz = d.leading_zero_count(diff)
    normalized = d.barrel_shift_left(diff, lz)
    frac_sub = normalized[:wf]
    exp_sub, sub_borrow = d.subtractor(exp_a, d.zero_extend(lz, max(we, len(lz))))
    exp_sub = exp_sub[:we]
    underflow_sub = sub_borrow

    # ---- normal-path result -------------------------------------------------
    # addition: NORMAL unless exponent overflow (then INF)
    add_exc0 = d.circuit.g_not(overflow_add)
    add_exc1 = overflow_add
    add_fields = (
        [d.circuit.g_and(b, d.circuit.g_not(overflow_add)) for b in frac_add]
        + [d.circuit.g_and(b, d.circuit.g_not(overflow_add)) for b in exp_add[:we]]
        + [sign_a]
        + [add_exc0, add_exc1]
    )

    # subtraction: ZERO when the difference cancels or the exponent underflows
    sub_is_zero = d.circuit.g_or(diff_is_zero, underflow_sub)
    sub_sign = d.circuit.g_and(sign_a, d.circuit.g_not(diff_is_zero))
    sub_exc0 = d.circuit.g_not(sub_is_zero)
    sub_fields = (
        [d.circuit.g_and(b, sub_exc0) for b in frac_sub]
        + [d.circuit.g_and(b, sub_exc0) for b in exp_sub]
        + [sub_sign]
        + [sub_exc0, zero]
    )

    normal_fields = d.mux_bus(same_sign, sub_fields, add_fields)

    # ---- exception-path field words -----------------------------------------
    nan_fields = d.const_bus(0, wf + we) + [zero] + [one, one]
    inf_fields = d.const_bus(0, wf + we) + [inf_sign] + [zero, one]
    zero_both_fields = (
        d.const_bus(0, wf + we) + [d.circuit.g_and(px.sign, py.sign)] + [zero, zero]
    )
    y_verbatim = list(py.frac) + list(py.exp) + [py.sign] + list(py.exc)
    x_verbatim = list(px.frac) + list(px.exp) + [px.sign] + list(px.exc)

    result = _priority_select(
        d,
        [
            (is_nan, nan_fields),
            (is_inf, inf_fields),
            (both_zero, zero_both_fields),
            (x_zero_only, y_verbatim),
            (y_zero_only, x_verbatim),
        ],
        normal_fields,
    )
    return result
