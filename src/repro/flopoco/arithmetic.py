"""Word-level (bit-exact) FloPoCo floating-point arithmetic.

These functions are the golden reference for the gate-level operator
circuits in :mod:`repro.flopoco.circuits`: both implement exactly the same
algorithm (truncating rounding, flush-to-zero underflow, saturating
overflow to infinity), so the circuit tests can require bit-for-bit
equality.  They are also the arithmetic used by the VCGRA functional
simulator when it executes MAC Processing Elements.
"""

from __future__ import annotations

from .format import EXC_INF, EXC_NAN, EXC_NORMAL, EXC_ZERO, FPFormat

__all__ = ["fp_mul", "fp_add", "fp_mac"]


def fp_mul(fmt: FPFormat, x: int, y: int) -> int:
    """Multiply two FloPoCo words (truncating rounding)."""
    exc_x, sign_x, exp_x, frac_x = fmt.unpack(x)
    exc_y, sign_y, exp_y, frac_y = fmt.unpack(y)
    sign = sign_x ^ sign_y

    # Exception handling mirrors the FloPoCo operator semantics.
    if exc_x == EXC_NAN or exc_y == EXC_NAN:
        return fmt.pack(EXC_NAN, 0, 0, 0)
    if exc_x == EXC_INF or exc_y == EXC_INF:
        if exc_x == EXC_ZERO or exc_y == EXC_ZERO:
            return fmt.pack(EXC_NAN, 0, 0, 0)
        return fmt.pack(EXC_INF, sign, 0, 0)
    if exc_x == EXC_ZERO or exc_y == EXC_ZERO:
        return fmt.pack(EXC_ZERO, sign, 0, 0)

    wf = fmt.wf
    sig_x = (1 << wf) | frac_x            # 1.frac on wf+1 bits
    sig_y = (1 << wf) | frac_y
    product = sig_x * sig_y               # 2wf+2 bits, in [2^(2wf), 2^(2wf+2))
    exp_sum = exp_x + exp_y - fmt.bias

    if product >> (2 * wf + 1):           # product >= 2.0: normalize right by one
        frac = (product >> (wf + 1)) & ((1 << wf) - 1)
        exp_sum += 1
    else:
        frac = (product >> wf) & ((1 << wf) - 1)

    if exp_sum > fmt.emax:
        return fmt.pack(EXC_INF, sign, 0, 0)
    if exp_sum < 0:
        return fmt.pack(EXC_ZERO, sign, 0, 0)
    return fmt.pack(EXC_NORMAL, sign, exp_sum, frac)


def fp_add(fmt: FPFormat, x: int, y: int) -> int:
    """Add two FloPoCo words (truncating alignment, flush-to-zero)."""
    exc_x, sign_x, exp_x, frac_x = fmt.unpack(x)
    exc_y, sign_y, exp_y, frac_y = fmt.unpack(y)

    if exc_x == EXC_NAN or exc_y == EXC_NAN:
        return fmt.pack(EXC_NAN, 0, 0, 0)
    if exc_x == EXC_INF and exc_y == EXC_INF:
        if sign_x != sign_y:
            return fmt.pack(EXC_NAN, 0, 0, 0)
        return fmt.pack(EXC_INF, sign_x, 0, 0)
    if exc_x == EXC_INF:
        return fmt.pack(EXC_INF, sign_x, 0, 0)
    if exc_y == EXC_INF:
        return fmt.pack(EXC_INF, sign_y, 0, 0)
    if exc_x == EXC_ZERO and exc_y == EXC_ZERO:
        return fmt.pack(EXC_ZERO, sign_x & sign_y, 0, 0)
    if exc_x == EXC_ZERO:
        return y
    if exc_y == EXC_ZERO:
        return x

    wf = fmt.wf
    sig_x = (1 << wf) | frac_x
    sig_y = (1 << wf) | frac_y

    # Order operands so that (exp_a, sig_a) has the larger magnitude.
    if (exp_x, sig_x) >= (exp_y, sig_y):
        exp_a, sig_a, sign_a = exp_x, sig_x, sign_x
        exp_b, sig_b, sign_b = exp_y, sig_y, sign_y
    else:
        exp_a, sig_a, sign_a = exp_y, sig_y, sign_y
        exp_b, sig_b, sign_b = exp_x, sig_x, sign_x

    shift = exp_a - exp_b
    sig_b_aligned = sig_b >> shift if shift <= wf + 1 else 0

    if sign_a == sign_b:
        total = sig_a + sig_b_aligned     # up to wf+2 bits
        if total >> (wf + 1):             # carry out: normalize right by one
            frac = (total >> 1) & ((1 << wf) - 1)
            exp_res = exp_a + 1
        else:
            frac = total & ((1 << wf) - 1)
            exp_res = exp_a
        if exp_res > fmt.emax:
            return fmt.pack(EXC_INF, sign_a, 0, 0)
        return fmt.pack(EXC_NORMAL, sign_a, exp_res, frac)

    # Effective subtraction.
    diff = sig_a - sig_b_aligned          # >= 0 by operand ordering
    if diff == 0:
        return fmt.pack(EXC_ZERO, 0, 0, 0)
    # Normalize left so the leading one returns to position wf.
    lz = (wf + 1) - diff.bit_length()
    diff <<= lz
    exp_res = exp_a - lz
    if exp_res < 0:
        return fmt.pack(EXC_ZERO, sign_a, 0, 0)
    frac = diff & ((1 << wf) - 1)
    return fmt.pack(EXC_NORMAL, sign_a, exp_res, frac)


def fp_mac(fmt: FPFormat, acc: int, sample: int, coefficient: int) -> int:
    """One multiply-accumulate step: ``acc + sample * coefficient``.

    This is the Processing Element operation of the paper's VCGRA: the image
    sample is multiplied by the (infrequently changing, parameterized) filter
    coefficient and added to the running accumulator.
    """
    return fp_add(fmt, acc, fp_mul(fmt, sample, coefficient))
