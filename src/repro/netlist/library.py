"""Gate library: local semantics of every :class:`~repro.netlist.circuit.Op`.

Each gate has a *bit-parallel evaluator* operating on Python integers used
as packed vectors of simulation patterns (arbitrarily wide, one bit per
pattern).
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Sequence

from .circuit import Op

__all__ = ["GATE_EVAL", "eval_gate"]


def _and(args: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a & b, args) & mask


def _or(args: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a | b, args) & mask


def _xor(args: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a ^ b, args) & mask


def _not(args: Sequence[int], mask: int) -> int:
    return ~args[0] & mask


def _buf(args: Sequence[int], mask: int) -> int:
    return args[0] & mask


def _nand(args: Sequence[int], mask: int) -> int:
    return ~_and(args, mask) & mask


def _nor(args: Sequence[int], mask: int) -> int:
    return ~_or(args, mask) & mask


def _xnor(args: Sequence[int], mask: int) -> int:
    return ~_xor(args, mask) & mask


def _mux(args: Sequence[int], mask: int) -> int:
    sel, d0, d1 = args
    return ((~sel & d0) | (sel & d1)) & mask


#: Bit-parallel evaluators: ``f(fanin_values, mask) -> value``.
GATE_EVAL: Dict[str, Callable[[Sequence[int], int], int]] = {
    Op.BUF: _buf,
    Op.NOT: _not,
    Op.AND: _and,
    Op.OR: _or,
    Op.XOR: _xor,
    Op.NAND: _nand,
    Op.NOR: _nor,
    Op.XNOR: _xnor,
    Op.MUX: _mux,
}


def eval_gate(op: str, args: Sequence[int], mask: int) -> int:
    """Evaluate a gate bit-parallel over packed pattern vectors."""
    try:
        fn = GATE_EVAL[op]
    except KeyError:
        raise ValueError(f"op {op!r} is not an evaluatable gate") from None
    return fn(args, mask)
