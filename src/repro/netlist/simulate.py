"""Bit-parallel functional simulation of gate-level circuits.

Simulation serves three purposes in the reproduction:

* golden-model checking of the structural HDL generators (FP adder,
  multiplier, MAC) against word-level arithmetic,
* equivalence checking between a circuit and its optimized / specialized /
  technology-mapped versions, and
* random-pattern validation of the TLUT/TCON specialization step of the DCS
  flow.

Patterns are packed into Python integers (one bit per pattern), so a single
pass over the netlist evaluates an arbitrary number of input patterns.

:func:`simulate_patterns` runs the compiled engine
(:mod:`repro.netlist.engine`: the circuit is compiled once to straight-line
big-integer code and the cached artifact is reused on every call).
:func:`simulate_patterns_reference` is the original per-node dict-dispatch
loop, kept as the golden model for equivalence tests and as the baseline
the hot-path benchmark measures against.  Both are bit-identical; see
``PERFORMANCE.md`` for the design and measured speedups.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .circuit import Circuit, Op
from .engine import compile_circuit, pack_bits_to_int, unpack_int_to_bits
from .library import eval_gate

__all__ = [
    "simulate_patterns",
    "simulate_patterns_reference",
    "simulate_words",
    "simulate_single",
    "random_patterns",
    "exhaustive_patterns",
]


def _pattern_mask(num_patterns: int) -> int:
    return (1 << num_patterns) - 1


def simulate_patterns(
    circuit: Circuit,
    input_patterns: Mapping[int, int],
    num_patterns: int,
    param_patterns: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Simulate the circuit on packed pattern vectors.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    input_patterns:
        Mapping from *input node id* to a packed vector of ``num_patterns``
        bits (bit ``p`` is the value of that input in pattern ``p``).
    num_patterns:
        Number of packed patterns.
    param_patterns:
        Values for parameter nodes, same packing.  Parameters left
        unspecified default to 0 (matching the behaviour of an unprogrammed
        settings register).

    Returns
    -------
    dict
        Mapping from node id to packed output vector for every node.
    """
    return compile_circuit(circuit).simulate(input_patterns, num_patterns, param_patterns)


def simulate_patterns_reference(
    circuit: Circuit,
    input_patterns: Mapping[int, int],
    num_patterns: int,
    param_patterns: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Original per-node interpreter (golden model for the compiled engine)."""
    mask = _pattern_mask(num_patterns)
    values: List[int] = [0] * len(circuit.ops)
    params = dict(param_patterns or {})
    for nid, op in enumerate(circuit.ops):
        if op == Op.INPUT:
            values[nid] = input_patterns.get(nid, 0) & mask
        elif op == Op.PARAM:
            values[nid] = params.get(nid, 0) & mask
        elif op == Op.CONST0:
            values[nid] = 0
        elif op == Op.CONST1:
            values[nid] = mask
        else:
            args = [values[f] for f in circuit.fanins[nid]]
            values[nid] = eval_gate(op, args, mask)
    return {nid: values[nid] for nid in circuit.node_ids()}


def simulate_single(
    circuit: Circuit,
    input_values: Mapping[str, int],
    param_values: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Simulate one pattern given per-name scalar 0/1 input values.

    Unknown names raise ``KeyError``; unspecified inputs default to 0.
    Returns output name -> 0/1 value.
    """
    name_to_id = {circuit.names.get(i, f"in{i}"): i for i in circuit.input_ids()}
    pname_to_id = {circuit.names.get(i, f"param{i}"): i for i in circuit.param_ids()}
    in_pat: Dict[int, int] = {}
    for name, val in input_values.items():
        in_pat[name_to_id[name]] = 1 if val else 0
    par_pat: Dict[int, int] = {}
    for name, val in (param_values or {}).items():
        par_pat[pname_to_id[name]] = 1 if val else 0
    values = simulate_patterns(circuit, in_pat, 1, par_pat)
    return {name: values[nid] & 1 for name, nid in circuit.outputs.items()}


def _bus_nodes(circuit: Circuit, prefix: str, kind: str) -> List[int]:
    """Node ids of a named bus ``prefix[0..n-1]``, LSB first."""
    if kind == "input":
        ids = circuit.input_ids()
    elif kind == "param":
        ids = circuit.param_ids()
    else:
        raise ValueError("kind must be 'input' or 'param'")
    found = {}
    for nid in ids:
        name = circuit.names.get(nid, "")
        if name.startswith(prefix + "[") and name.endswith("]"):
            idx = int(name[len(prefix) + 1 : -1])
            found[idx] = nid
        elif name == prefix:
            found[0] = nid
    return [found[i] for i in sorted(found)]


def _pack_word_bits(vals: Sequence[int], nodes: Sequence[int]) -> Dict[int, int]:
    """Packed per-bit pattern integers for a word-level input bus.

    Bit ``k`` of each word drives ``nodes[k]``; the per-pattern bits are
    packed with ``np.packbits`` instead of a Python loop over patterns.
    Buses wider than 64 bits (shift counts >= 64 are undefined for
    ``np.uint64``) and negative/oversized words use the exact big-integer
    fallback.
    """
    packed: Dict[int, int] = {}
    if not vals or not nodes:
        return packed
    lo, hi = min(vals), max(vals)
    if 0 <= lo and hi < (1 << 63) and len(nodes) <= 64:
        arr = np.asarray([int(v) for v in vals], dtype=np.uint64)
        for bit, nid in enumerate(nodes):
            bits = (arr >> np.uint64(bit)) & np.uint64(1)
            value = pack_bits_to_int(bits)
            if value:
                packed[nid] = value
    else:  # arbitrary-precision fallback
        for bit, nid in enumerate(nodes):
            value = 0
            for p, word in enumerate(vals):
                if (int(word) >> bit) & 1:
                    value |= 1 << p
            if value:
                packed[nid] = value
    return packed


def simulate_words(
    circuit: Circuit,
    input_words: Mapping[str, Sequence[int]],
    param_words: Optional[Mapping[str, int]] = None,
) -> Dict[str, np.ndarray]:
    """Simulate word-level stimulus on a circuit built with bus-named ports.

    ``input_words`` maps a bus name (e.g. ``"a"``) to a sequence of unsigned
    integer words, one per pattern; bit ``k`` of a word drives input node
    ``a[k]``.  ``param_words`` maps a parameter bus name to a *single* word
    (parameters are constant across all patterns, exactly as in the DCS
    model).  Output buses are reassembled into unsigned integer words.
    """
    words = {name: list(vals) for name, vals in input_words.items()}
    num_patterns = max((len(v) for v in words.values()), default=1)
    mask = _pattern_mask(num_patterns)
    engine = compile_circuit(circuit)

    in_pat: Dict[int, int] = {}
    for name, vals in words.items():
        nodes = _bus_nodes(circuit, name, "input")
        if not nodes:
            raise KeyError(f"no input bus named {name!r}")
        in_pat.update(_pack_word_bits(vals, nodes))

    par_pat: Dict[int, int] = {}
    for name, word in (param_words or {}).items():
        nodes = _bus_nodes(circuit, name, "param")
        if not nodes:
            raise KeyError(f"no parameter bus named {name!r}")
        for bit, nid in enumerate(nodes):
            par_pat[nid] = mask if (int(word) >> bit) & 1 else 0

    values = engine.simulate_values(in_pat, num_patterns, par_pat)

    # Group outputs into buses by name prefix.
    out_buses: Dict[str, Dict[int, int]] = {}
    for name, nid in circuit.outputs.items():
        if "[" in name and name.endswith("]"):
            prefix, idx = name[: name.index("[")], int(name[name.index("[") + 1 : -1])
        else:
            prefix, idx = name, 0
        out_buses.setdefault(prefix, {})[idx] = nid

    result: Dict[str, np.ndarray] = {}
    for prefix, bits in out_buses.items():
        arr = np.zeros(num_patterns, dtype=object)
        if bits and max(bits) < 63:
            acc = np.zeros(num_patterns, dtype=np.uint64)
            for idx, nid in bits.items():
                plane_bits = unpack_int_to_bits(values[nid], num_patterns)
                acc |= plane_bits.astype(np.uint64) << np.uint64(idx)
            arr[:] = [int(w) for w in acc]
        else:  # very wide buses: assemble with arbitrary-precision ints
            for idx, nid in bits.items():
                plane_bits = unpack_int_to_bits(values[nid], num_patterns)
                for p in np.flatnonzero(plane_bits):
                    arr[p] = int(arr[p]) | (1 << idx)
        result[prefix] = arr
    return result


def random_patterns(
    circuit: Circuit, num_patterns: int, rng: Optional[np.random.Generator] = None
) -> Dict[int, int]:
    """Generate packed random input patterns for every regular input."""
    rng = rng or np.random.default_rng(0)
    pats: Dict[int, int] = {}
    for nid in circuit.input_ids():
        bits = rng.integers(0, 2, size=num_patterns)
        packed_bytes = np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
        pats[nid] = int.from_bytes(packed_bytes, "little")
    return pats


def exhaustive_patterns(input_ids: Sequence[int]) -> Dict[int, int]:
    """Packed patterns enumerating every assignment of the given inputs.

    With ``n`` inputs the returned vectors are ``2**n`` patterns long and
    pattern ``p`` assigns input ``i`` the ``i``-th bit of ``p``.  Only
    sensible for small ``n`` (equivalence checking of specialized cones).
    """
    n = len(input_ids)
    num_patterns = 1 << n
    all_ones = (1 << num_patterns) - 1
    pats: Dict[int, int] = {}
    for i, nid in enumerate(input_ids):
        # Periodic vector 0^(2^i) 1^(2^i) ...: the classic truth-table mask.
        block = 1 << i
        ones_block = ((1 << block) - 1) << block
        period = block * 2
        repeat = all_ones // ((1 << period) - 1) if num_patterns >= period else 1
        pats[nid] = ones_block * repeat
    return pats
