"""Word-level structural HDL builder.

The paper describes its Processing Element in VHDL with ``--PARAM``
annotations on the infrequently-changing inputs and pushes it through
Quartus synthesis.  This module is the reproduction's HDL front-end: a small
structural-description API for building gate-level circuits out of
word-level operators (adders, multipliers, shifters, multiplexers...), with
parameter buses as first-class objects.

A *bus* is simply a list of node ids, least-significant bit first.  The
:class:`Design` class owns the underlying :class:`~repro.netlist.circuit.Circuit`
and provides the operator library.  All operators elaborate immediately into
gates, so the output of the front-end is directly consumable by the logic
optimizer and the technology mappers.

:class:`Design` is API for design authors, not only for the bundled PE and
filter designs: a few operators no shipped design calls (``input_bit``,
``v_and``, ``equals_const``) are kept on purpose so a new design can use
them, and the tests exercise them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .circuit import Circuit

__all__ = ["Bus", "Design"]

Bus = List[int]


class Design:
    """Structural design builder over a gate-level :class:`Circuit`."""

    def __init__(self, name: str = "design", strash: bool = True) -> None:
        self.circuit = Circuit(name=name, strash=strash)

    # ------------------------------------------------------------------ ports

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a regular input bus ``name[width-1:0]`` (LSB first)."""
        return [self.circuit.add_input(f"{name}[{i}]") for i in range(width)]

    def param_bus(self, name: str, width: int) -> Bus:
        """Declare a parameter bus (``--PARAM`` annotated input)."""
        return [self.circuit.add_param(f"{name}[{i}]") for i in range(width)]

    def input_bit(self, name: str) -> int:
        return self.circuit.add_input(name)

    def output_bus(self, name: str, bus: Bus) -> None:
        """Declare an output bus driven by ``bus`` (LSB first)."""
        for i, nid in enumerate(bus):
            self.circuit.add_output(f"{name}[{i}]", nid)

    def output_bit(self, name: str, nid: int) -> None:
        self.circuit.add_output(name, nid)

    # -------------------------------------------------------------- constants

    def const_bit(self, value: int) -> int:
        return self.circuit.const(1 if value else 0)

    def const_bus(self, value: int, width: int) -> Bus:
        """Constant bus holding unsigned ``value`` on ``width`` bits."""
        return [self.const_bit((value >> i) & 1) for i in range(width)]

    # ------------------------------------------------------------ bit helpers

    def v_not(self, a: Bus) -> Bus:
        return [self.circuit.g_not(x) for x in a]

    def v_and(self, a: Bus, b: Bus) -> Bus:
        self._check_same_width(a, b)
        return [self.circuit.g_and(x, y) for x, y in zip(a, b)]

    def v_xor(self, a: Bus, b: Bus) -> Bus:
        self._check_same_width(a, b)
        return [self.circuit.g_xor(x, y) for x, y in zip(a, b)]

    def reduce_or(self, a: Bus) -> int:
        if not a:
            return self.const_bit(0)
        if len(a) == 1:
            return a[0]
        return self.circuit.g_or(*a)

    def reduce_and(self, a: Bus) -> int:
        if not a:
            return self.const_bit(1)
        if len(a) == 1:
            return a[0]
        return self.circuit.g_and(*a)

    def mux_bit(self, sel: int, d0: int, d1: int) -> int:
        return self.circuit.g_mux(sel, d0, d1)

    def mux_bus(self, sel: int, d0: Bus, d1: Bus) -> Bus:
        """Word-level 2:1 mux: result is ``d0`` when ``sel`` is 0."""
        self._check_same_width(d0, d1)
        return [self.circuit.g_mux(sel, x, y) for x, y in zip(d0, d1)]

    def mux_tree(self, sels: Bus, choices: Sequence[Bus]) -> Bus:
        """N:1 mux selecting ``choices[k]`` where ``k`` is the value of ``sels``.

        ``len(choices)`` must equal ``2 ** len(sels)``.
        """
        if len(choices) != (1 << len(sels)):
            raise ValueError("mux_tree needs 2**len(sels) choices")
        layer = list(choices)
        for sel in sels:
            nxt = []
            for i in range(0, len(layer), 2):
                nxt.append(self.mux_bus(sel, layer[i], layer[i + 1]))
            layer = nxt
        return layer[0]

    # ---------------------------------------------------------- bus utilities

    @staticmethod
    def _check_same_width(a: Bus, b: Bus) -> None:
        if len(a) != len(b):
            raise ValueError(f"bus width mismatch: {len(a)} vs {len(b)}")

    def zero_extend(self, a: Bus, width: int) -> Bus:
        if len(a) > width:
            raise ValueError("cannot zero-extend to a smaller width")
        return list(a) + [self.const_bit(0)] * (width - len(a))

    def truncate(self, a: Bus, width: int) -> Bus:
        return list(a[:width])

    def replicate(self, bit: int, width: int) -> Bus:
        return [bit] * width

    # ------------------------------------------------------------- arithmetic

    def full_adder(self, a: int, b: int, cin: int):
        axb = self.circuit.g_xor(a, b)
        s = self.circuit.g_xor(axb, cin)
        c = self.circuit.g_or(self.circuit.g_and(a, b), self.circuit.g_and(axb, cin))
        return s, c

    def adder(self, a: Bus, b: Bus, cin: Optional[int] = None):
        """Ripple-carry adder.  Returns ``(sum_bus, carry_out)``.

        Operand widths may differ; the shorter one is zero-extended.
        """
        width = max(len(a), len(b))
        a = self.zero_extend(a, width)
        b = self.zero_extend(b, width)
        carry = cin if cin is not None else self.const_bit(0)
        out: Bus = []
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out, carry

    def subtractor(self, a: Bus, b: Bus):
        """Two's-complement subtractor ``a - b``.

        Returns ``(difference, borrow)`` where ``borrow`` is 1 when
        ``a < b`` (unsigned).
        """
        width = max(len(a), len(b))
        a = self.zero_extend(a, width)
        b = self.zero_extend(b, width)
        diff, carry = self.adder(a, self.v_not(b), cin=self.const_bit(1))
        borrow = self.circuit.g_not(carry)
        return diff, borrow

    def increment(self, a: Bus):
        """``a + 1``; returns ``(sum_bus, carry_out)``."""
        one = self.const_bus(1, len(a))
        return self.adder(a, one)

    def equals_const(self, a: Bus, value: int) -> int:
        """Single-bit comparison ``a == value`` for a constant value."""
        bits = []
        for i, nid in enumerate(a):
            bits.append(nid if (value >> i) & 1 else self.circuit.g_not(nid))
        return self.reduce_and(bits)

    def equals(self, a: Bus, b: Bus) -> int:
        self._check_same_width(a, b)
        diffs = self.v_xor(a, b)
        return self.circuit.g_not(self.reduce_or(diffs))

    def less_than(self, a: Bus, b: Bus) -> int:
        """Unsigned comparison ``a < b`` (single bit)."""
        width = max(len(a), len(b))
        a = self.zero_extend(a, width)
        b = self.zero_extend(b, width)
        _, borrow = self.subtractor(a, b)
        return borrow

    def multiplier(self, a: Bus, b: Bus) -> Bus:
        """Unsigned array multiplier; result width is ``len(a) + len(b)``.

        Implemented as the classic partial-product array with ripple
        accumulation, which is also how FloPoCo generates LUT-only
        multipliers when DSP blocks are disabled (the paper explicitly avoids
        dedicated multipliers).
        """
        wa, wb = len(a), len(b)
        if wa == 0 or wb == 0:
            return []
        acc = [self.circuit.g_and(x, b[0]) for x in a] + [self.const_bit(0)] * wb
        for j in range(1, wb):
            pp = [self.const_bit(0)] * j + [self.circuit.g_and(x, b[j]) for x in a]
            pp = self.zero_extend(pp, wa + wb)
            acc, _ = self.adder(acc, pp)
            acc = self.truncate(acc, wa + wb)
        return acc

    # --------------------------------------------------------------- shifting

    def shift_left_const(self, a: Bus, amount: int, width: Optional[int] = None) -> Bus:
        width = width or len(a)
        shifted = [self.const_bit(0)] * amount + list(a)
        return self.zero_extend(self.truncate(shifted, width), width)

    def shift_right_const(self, a: Bus, amount: int, width: Optional[int] = None) -> Bus:
        width = width or len(a)
        shifted = list(a[amount:])
        return self.zero_extend(shifted, width)

    def barrel_shift_right(self, a: Bus, amount: Bus) -> Bus:
        """Logical right shifter with a variable shift amount bus."""
        out = list(a)
        for k, sel in enumerate(amount):
            shifted = self.shift_right_const(out, 1 << k, len(out))
            out = self.mux_bus(sel, out, shifted)
        return out

    def barrel_shift_left(self, a: Bus, amount: Bus) -> Bus:
        """Logical left shifter with a variable shift amount bus."""
        out = list(a)
        for k, sel in enumerate(amount):
            shifted = self.shift_left_const(out, 1 << k, len(out))
            out = self.mux_bus(sel, out, shifted)
        return out

    # ----------------------------------------------------------- leading zeros

    def leading_zero_count(self, a: Bus) -> Bus:
        """Count of leading zeros of ``a`` (MSB side), as a bus.

        Output width is ``ceil(log2(len(a) + 1))``.  Used by the FP adder's
        normalization stage.
        """
        n = len(a)
        out_w = max(1, (n).bit_length())
        # Priority encode from the MSB down.
        count = self.const_bus(n, out_w)  # all-zero input => n leading zeros
        for pos in range(n):  # pos counted from LSB
            lz = n - 1 - pos  # leading zeros if bit ``pos`` is the highest set bit
            candidate = self.const_bus(lz, out_w)
            count = self.mux_bus(a[pos], count, candidate)
        return count
