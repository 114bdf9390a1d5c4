"""Gate library: local semantics of every :class:`~repro.netlist.circuit.Op`.

The library provides two views of each gate:

* a *bit-parallel evaluator* operating on Python integers used as packed
  vectors of simulation patterns (arbitrarily wide, one bit per pattern), and
* a *truth table builder* used by the technology mappers when collapsing a
  cone of gates into a single cut function.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Sequence

from .boolean import TruthTable
from .circuit import Op

__all__ = ["GATE_EVAL", "eval_gate", "gate_truth_table", "GATE_COST"]


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

#: Unit-area cost per gate kind (used by synthesis statistics only; the real
#: area metric of the flow is the post-mapping LUT count).
GATE_COST: Dict[str, int] = {
    Op.BUF: 0,
    Op.NOT: 0,
    Op.AND: 1,
    Op.OR: 1,
    Op.XOR: 1,
    Op.NAND: 1,
    Op.NOR: 1,
    Op.XNOR: 1,
    Op.MUX: 1,
}


def eval_gate(op: str, args: Sequence[int], mask: int) -> int:
    """Evaluate a gate bit-parallel over packed pattern vectors."""
    try:
        fn = GATE_EVAL[op]
    except KeyError:
        raise ValueError(f"op {op!r} is not an evaluatable gate") from None
    return fn(args, mask)


def gate_truth_table(op: str, fanin_tts: Sequence[TruthTable]) -> TruthTable:
    """Compose fanin truth tables through a gate.

    All fanin tables must be expressed over the same variable set; the result
    is over that set as well.  This is the core operation of cut-function
    computation in the technology mappers.
    """
    if not fanin_tts:
        raise ValueError("gate needs at least one fanin truth table")
    num_vars = fanin_tts[0].num_vars
    for tt in fanin_tts:
        if tt.num_vars != num_vars:
            raise ValueError("fanin truth tables must share a variable set")
    mask = (1 << (1 << num_vars)) - 1
    bits = eval_gate(op, [tt.bits for tt in fanin_tts], mask)
    return TruthTable(num_vars, bits)
