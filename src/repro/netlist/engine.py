"""Compiled bit-parallel simulation engine.

The legacy simulator (:func:`repro.netlist.simulate.simulate_patterns`)
walks the netlist node by node, dispatching every gate through a dict of
Python callables operating on arbitrary-precision integers.  That is flexible
but slow: equivalence checking, PPC specialization and the word-level
test benches all pay the per-node interpreter overhead on every call.

:class:`CompiledCircuit` pays that overhead once: compilation emits the
circuit as one specialized Python function of big-integer bitwise
expressions (``v17 = v3 & v9``, one statement per gate) and ``exec``\\ s it
once; evaluation is then a single call with no dict dispatch, no per-gate
function calls and no interpreter loop.  CPython's big-integer bitwise ops
already run word-parallel C loops, so one call evaluates every packed
pattern at once.

Because every gate of the library is bitwise, pattern ``p`` of any node
depends only on pattern ``p`` of its fanins, so the compiled function is
bit-identical to the legacy evaluator for every circuit and pattern count.

The compiled artifact is cached on the circuit object (circuits are
append-only, so a node-count check suffices for invalidation) and reused by
every caller: repeated simulation of the same circuit -- the common case in
equivalence checking and in the SCG's parameter evaluation -- only pays the
generated function's call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from .circuit import Circuit, Op

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "gate_statements",
    "pack_bits_to_int",
    "unpack_int_to_bits",
]


def pack_bits_to_int(bits: np.ndarray) -> int:
    """Pack a per-pattern 0/1 array into a packed-pattern Python integer."""
    raw = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little").tobytes()
    return int.from_bytes(raw, "little")


def unpack_int_to_bits(value: int, num_patterns: int) -> np.ndarray:
    """Unpack a packed-pattern Python integer into a per-pattern 0/1 uint8 array."""
    num_bytes = (num_patterns + 7) // 8
    raw = int(value).to_bytes(num_bytes, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :num_patterns
    ]


def gate_statements(circuit: Circuit, node_ids: Iterable[int]) -> List[str]:
    """One indented ``v<nid> = ...`` statement per node of ``node_ids``.

    The statements read the local names ``inputs`` and ``params`` (node id
    -> packed value dicts) and ``mask``, and each node's fanins as
    ``v<fanin>``, so ``node_ids`` must be fanin-closed and ascending.
    Masking matches the legacy evaluator: leaves and inverting gates are
    masked explicitly; AND/OR/XOR/MUX of masked operands stay masked.
    """
    ops = circuit.ops
    fanins = circuit.fanins
    lines: List[str] = []
    emit = lines.append
    for nid in node_ids:
        op = ops[nid]
        if op == Op.INPUT:
            emit(f" v{nid} = inputs.get({nid}, 0) & mask")
        elif op == Op.PARAM:
            emit(f" v{nid} = params.get({nid}, 0) & mask")
        elif op == Op.CONST0:
            emit(f" v{nid} = 0")
        elif op == Op.CONST1:
            emit(f" v{nid} = mask")
        else:
            args = [f"v{f}" for f in fanins[nid]]
            if op == Op.AND:
                emit(f" v{nid} = {' & '.join(args)}")
            elif op == Op.OR:
                emit(f" v{nid} = {' | '.join(args)}")
            elif op == Op.XOR:
                emit(f" v{nid} = {' ^ '.join(args)}")
            elif op == Op.NAND:
                emit(f" v{nid} = ~({' & '.join(args)}) & mask")
            elif op == Op.NOR:
                emit(f" v{nid} = ~({' | '.join(args)}) & mask")
            elif op == Op.XNOR:
                emit(f" v{nid} = ~({' ^ '.join(args)}) & mask")
            elif op == Op.NOT:
                emit(f" v{nid} = ~{args[0]} & mask")
            elif op == Op.BUF:
                emit(f" v{nid} = {args[0]}")
            elif op == Op.MUX:
                s, d0, d1 = args
                emit(f" v{nid} = (~{s} & {d0}) | ({s} & {d1})")
            else:  # pragma: no cover - Op.ALL is exhaustive
                raise ValueError(f"op {op!r} is not an evaluatable gate")
    return lines


class CompiledCircuit:
    """A circuit compiled into one straight-line big-integer evaluator."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.num_nodes = len(circuit.ops)
        self._straightline = None  # lazily generated big-integer evaluator

    def _codegen(self):
        """Emit the circuit as one specialized Python function and compile it.

        Every gate becomes a single bitwise statement over masked big
        integers (:func:`gate_statements`), so one call evaluates the whole
        netlist with no dispatch.
        """
        lines = ["def _run(inputs, params, mask):"]
        lines += gate_statements(self.circuit, range(self.num_nodes))
        lines.append(" return [%s]" % ",".join(f"v{i}" for i in range(self.num_nodes)))
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from node ids only
        return namespace["_run"]

    def simulate_values(
        self,
        input_patterns: Mapping[int, int],
        num_patterns: int,
        param_patterns: Optional[Mapping[int, int]] = None,
    ) -> List[int]:
        """Packed value of every node."""
        if self._straightline is None:
            self._straightline = self._codegen()
        mask = (1 << num_patterns) - 1
        return self._straightline(input_patterns, param_patterns or {}, mask)

    # -- packed-integer API (drop-in for the legacy simulator) ------------------

    def simulate(
        self,
        input_patterns: Mapping[int, int],
        num_patterns: int,
        param_patterns: Optional[Mapping[int, int]] = None,
    ) -> Dict[int, int]:
        """Bit-identical replacement for the legacy ``simulate_patterns``."""
        values = self.simulate_values(input_patterns, num_patterns, param_patterns)
        return dict(enumerate(values))


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` (or return the cached artifact if still valid).

    Circuits are append-only -- nodes are never rewritten in place -- so the
    cached evaluator stays valid as long as the node count is unchanged.
    """
    cached = circuit.__dict__.get("_compiled_engine")
    if cached is not None and cached.num_nodes == len(circuit.ops):
        return cached
    engine = CompiledCircuit(circuit)
    circuit.__dict__["_compiled_engine"] = engine
    return engine
