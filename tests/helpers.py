"""Test helpers: circuit builders, pattern generators and route statistics.

Only tests call these, so they live here rather than in the package:

* :func:`fp_multiplier_circuit`, :func:`fp_adder_circuit`,
  :func:`fp_mac_circuit` -- standalone FloPoCo operator designs around
  :func:`~repro.flopoco.circuits.build_fp_multiplier` and
  :func:`~repro.flopoco.circuits.build_fp_adder`;
* :func:`simulate_single` -- one pattern of
  :func:`~repro.netlist.simulate.simulate_patterns`, by input name;
* :func:`exhaustive_patterns` -- packed patterns enumerating every
  assignment of a few inputs;
* :func:`channel_occupancy` -- peak and used wire counts of a routing;
* :func:`lut_node_ids`, :func:`tcon_node_ids` -- a mapped network's LUT
  and TCON nodes.
"""

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.flopoco.circuits import build_fp_adder, build_fp_multiplier
from repro.flopoco.format import FPFormat
from repro.netlist.circuit import Circuit
from repro.netlist.hdl import Design
from repro.netlist.simulate import simulate_patterns
from repro.techmap.mapping import NodeKind


def fp_multiplier_circuit(
    fmt: FPFormat, param_coefficient: bool = False, name: str = "fp_mul"
) -> Design:
    """Standalone FP multiplier design.

    With ``param_coefficient=True`` the second operand becomes a ``--PARAM``
    bus named ``coeff`` (the paper's parameterized filter coefficient).
    """
    d = Design(name)
    x = d.input_bus("x", fmt.width)
    if param_coefficient:
        y = d.param_bus("coeff", fmt.width)
    else:
        y = d.input_bus("y", fmt.width)
    d.output_bus("p", build_fp_multiplier(d, x, y, fmt))
    return d


def fp_adder_circuit(fmt: FPFormat, name: str = "fp_add") -> Design:
    """Standalone FP adder design with inputs ``x`` and ``y``."""
    d = Design(name)
    x = d.input_bus("x", fmt.width)
    y = d.input_bus("y", fmt.width)
    d.output_bus("s", build_fp_adder(d, x, y, fmt))
    return d


def fp_mac_circuit(fmt: FPFormat, param_coefficient: bool = True, name: str = "fp_mac") -> Design:
    """Multiply-accumulate datapath ``result = acc + sample * coeff``.

    The coefficient is a parameter bus by default, as in the paper's PE.
    """
    d = Design(name)
    sample = d.input_bus("sample", fmt.width)
    acc = d.input_bus("acc", fmt.width)
    if param_coefficient:
        coeff = d.param_bus("coeff", fmt.width)
    else:
        coeff = d.input_bus("coeff", fmt.width)
    product = build_fp_multiplier(d, sample, coeff, fmt)
    d.output_bus("result", build_fp_adder(d, acc, product, fmt))
    return d


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
    in_pat = {name_to_id[name]: 1 if val else 0 for name, val in input_values.items()}
    par_pat = {pname_to_id[name]: 1 if val else 0 for name, val in (param_values or {}).items()}
    values = simulate_patterns(circuit, in_pat, 1, par_pat)
    return {name: values[nid] & 1 for name, nid in circuit.outputs.items()}


def exhaustive_patterns(input_ids: Sequence[int]) -> Dict[int, int]:
    """Packed patterns enumerating every assignment of the given inputs.

    With ``n`` inputs the vectors are ``2**n`` patterns long and pattern
    ``p`` assigns input ``i`` the ``i``-th bit of ``p``.
    """
    num_patterns = 1 << len(input_ids)
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


def channel_occupancy(result, device) -> Dict[str, int]:
    """Peak, used and total wire counts of a routing, from its forest."""
    rr = device.rr_graph
    occ = np.bincount(result.forest.node, minlength=rr.num_nodes)
    wires = occ[rr.wire_mask()]
    return {
        "peak": int(wires.max()) if wires.size else 0,
        "used": int(np.count_nonzero(wires)),
        "total": int(wires.size),
    }


def lut_node_ids(network) -> List[int]:
    """Ids of a mapped network's LUT and TLUT nodes, ascending."""
    return [i for i, n in enumerate(network.nodes) if n.kind in (NodeKind.LUT, NodeKind.TLUT)]


def tcon_node_ids(network) -> List[int]:
    """Ids of a mapped network's TCON nodes, ascending."""
    return [i for i, n in enumerate(network.nodes) if n.kind == NodeKind.TCON]
