"""Symbolic constant propagation for parameterized designs.

Dynamic Circuit Specialization treats the ``--PARAM``-annotated inputs as
constants: for every concrete parameter value the logic is re-optimized and
the FPGA is micro-reconfigured with the specialized result.  This module
implements the *specialization by constant propagation* view of that flow at
the gate level.  It is used

* by the tests to verify that TLUT/TCON based specialization is functionally
  equivalent to full constant propagation, and
* by the resource accounting of the conventional-vs-parameterized comparison
  (the "optimization for constant parameters" of Section III of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..netlist.circuit import Circuit, Op
from .optimize import OptimizeReport, optimize

__all__ = [
    "param_bit_values",
    "specialize",
    "parameter_cone_nodes",
    "classify_nodes",
]


def param_bit_values(circuit: Circuit, param_words: Mapping[str, int]) -> Dict[int, int]:
    """Expand word-level parameter values into per-parameter-node bit values.

    ``param_words`` maps a parameter bus name (e.g. ``"coeff"``) to an
    unsigned integer; bit ``k`` of the word is assigned to the parameter node
    named ``coeff[k]``.  A scalar parameter named ``"p"`` can be given
    directly as ``{"p": 0/1}``.  One pass over the parameter nodes looks
    each node's name and bus prefixes up in ``param_words``; when two words
    name the same node, the later word wins.
    """
    position = {name: i for i, name in enumerate(param_words)}
    values: Dict[int, int] = {}
    matched = set()
    for nid in circuit.param_ids():
        pname = circuit.names.get(nid, f"param{nid}")
        winner = position.get(pname, -1)
        if winner >= 0:
            values[nid] = 1 if param_words[pname] else 0
            matched.add(pname)
        if pname.endswith("]"):
            cut = pname.find("[")
            while cut >= 0:
                name = pname[:cut]
                if name in position:
                    bit = (int(param_words[name]) >> int(pname[cut + 1 : -1])) & 1
                    matched.add(name)
                    if position[name] > winner:
                        winner = position[name]
                        values[nid] = bit
                cut = pname.find("[", cut + 1)
    for name in param_words:
        if name not in matched:
            raise KeyError(f"no parameter named {name!r} in circuit {circuit.name!r}")
    return values


def specialize(
    circuit: Circuit,
    param_words: Mapping[str, int],
) -> Tuple[Circuit, OptimizeReport]:
    """Produce the circuit specialized for concrete parameter values.

    The parameter inputs are replaced by constants and the logic is
    re-optimized.  This is the "gold standard" the parameterized
    configuration must match functionally: evaluating the TLUT Boolean
    functions of the PPC for the same parameter values and simulating the
    mapped netlist must give identical input/output behaviour.

    The returned circuit has no parameter bits of the words in
    ``param_words`` left (parameters it does not name stay), and it keeps
    every primary input and output of ``circuit``, used or not.
    """
    values = param_bit_values(circuit, param_words)
    return optimize(circuit, param_values=values)


def parameter_cone_nodes(circuit: Circuit) -> List[int]:
    """Node ids whose value depends (transitively) on at least one parameter.

    These are the nodes whose configuration may need to change when parameter
    values change -- the candidates for TLUT/TCON implementation.
    """
    depends = [False] * len(circuit)
    for nid, op in enumerate(circuit.ops):
        if op == Op.PARAM:
            depends[nid] = True
        elif op not in Op.LEAVES:
            depends[nid] = any(depends[f] for f in circuit.fanins[nid])
    return [nid for nid, d in enumerate(depends) if d]


def classify_nodes(circuit: Circuit) -> Dict[str, List[int]]:
    """Partition gate nodes into static / parameter-dependent classes.

    Returns a dict with keys ``"static"`` (gates never affected by parameter
    changes -- these become ordinary LUT logic in the Template Configuration)
    and ``"tunable"`` (gates inside a parameter cone -- the material the
    TCONMAP mapper turns into TLUTs and TCONs).
    """
    tunable = set(parameter_cone_nodes(circuit))
    static: List[int] = []
    tun: List[int] = []
    for nid in circuit.gate_ids():
        if nid in tunable:
            tun.append(nid)
        else:
            static.append(nid)
    return {"static": static, "tunable": tun}
