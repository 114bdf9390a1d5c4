"""Independent output checks and the tail-percentile helper of the benchmark.

Every check here recomputes what it verifies from first principles instead
of trusting a flag the code under test reports:

* :func:`route_violations` rebuilds node occupancy from each net's routed
  nodes against the RR graph's capacities and walks each net's tree from
  its source over RR edges, so an overused node or an unreached sink shows
  even when ``RoutingResult.success`` says otherwise;
* :func:`simulation_mismatches` compares a mapped network against the
  netlist simulator run on the source circuit;
* :func:`pe_model_mismatches` compares a specialized PE against the FloPoCo
  word-level arithmetic model;
* :func:`image_mismatches` and :func:`digest_mismatches` compare frame
  images and result digests against separately computed references.

Each returns a list of problem strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "TAIL_LADDER",
    "tail_percentile",
    "route_violations",
    "simulation_mismatches",
    "pe_expected",
    "pe_model_mismatches",
    "image_mismatches",
    "digest_mismatches",
]

#: Percentiles the tail helper may pick, lowest first.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)


def tail_percentile(num_samples: int, beyond: int = 10) -> Optional[float]:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    ``None`` when even the median leaves fewer than ``beyond`` samples
    above it.
    """
    best = None
    for p in TAIL_LADDER:
        if math.floor(num_samples * (100.0 - p) / 100.0 + 1e-6) >= beyond:
            best = p
    return best


# ---------------------------------------------------------------------------
# Routing legality
# ---------------------------------------------------------------------------


def _terminal(rr, placement, block, source: bool) -> int:
    site = placement.block_site[block.id]
    if block.kind in ("clb", "ff"):
        table = rr.clb_source if source else rr.clb_sink
        return table[(site.x, site.y)]
    table = rr.io_source if source else rr.io_sink
    return table[(site.x, site.y, site.subtile)]


def route_violations(rr, netlist, placement, routes: Mapping[int, object]) -> List[str]:
    """Capacity overuse and unreached sinks of a routed design.

    ``routes`` maps net id to an object with a ``nodes`` list (the RR nodes
    the net uses).  Node occupancy counts each net once per node; a node
    used by more nets than its capacity is overused.  Each net's sinks must
    be reachable from its source through RR edges between its own nodes.
    """
    problems: List[str] = []
    occupancy = np.zeros(rr.num_nodes, dtype=np.int64)
    blocks = netlist.blocks
    for net in netlist.nets:
        if not net.sinks:
            continue
        source = _terminal(rr, placement, blocks[net.driver], source=True)
        sinks = {_terminal(rr, placement, blocks[s], source=False) for s in net.sinks}
        route = routes.get(net.id)
        nodes = set(route.nodes) if route is not None else set()
        for n in nodes:
            occupancy[n] += 1
        reached = {source} if source in nodes else set()
        frontier = deque(reached)
        while frontier:
            u = frontier.popleft()
            for v in rr.edge_dst[rr.edge_ptr[u] : rr.edge_ptr[u + 1]]:
                v = int(v)
                if v in nodes and v not in reached:
                    reached.add(v)
                    frontier.append(v)
        missing = sinks - reached
        if missing:
            problems.append(f"net {net.id} ({net.name}): {len(missing)} sink(s) not reached")
    over = np.flatnonzero(occupancy > np.asarray(rr.node_capacity, dtype=np.int64))
    for n in over[:10]:
        problems.append(
            f"RR node {int(n)} used by {int(occupancy[n])} nets, capacity {int(rr.node_capacity[n])}"
        )
    if len(over) > 10:
        problems.append(f"... {len(over) - 10} more overused nodes")
    return problems


# ---------------------------------------------------------------------------
# Functional equivalence
# ---------------------------------------------------------------------------


def _bus_widths(names: Sequence[str]) -> Dict[str, int]:
    widths: Dict[str, int] = {}
    for name in names:
        bus, idx = (name[: name.index("[")], int(name[name.index("[") + 1 : -1])) if "[" in name else (name, 0)
        widths[bus] = max(widths.get(bus, 0), idx + 1)
    return widths


def simulation_mismatches(
    circuit, network, rng: np.random.Generator, param_sets: int = 3, patterns: int = 8
) -> List[str]:
    """Mapped network vs the netlist simulator on the source circuit.

    Draws ``param_sets`` random settings words and ``patterns`` random input
    words per set; every output bus must agree on every pattern.
    """
    from repro.netlist.simulate import simulate_words

    in_widths = _bus_widths(circuit.input_names())
    par_widths = _bus_widths(circuit.param_names())
    problems: List[str] = []
    for k in range(param_sets):
        params = {b: int(rng.integers(0, 1 << w)) for b, w in par_widths.items()}
        stim = {
            b: [int(rng.integers(0, 1 << w)) for _ in range(patterns)] for b, w in in_widths.items()
        }
        want = simulate_words(circuit, stim, params)
        got = network.evaluate_words(stim, params)
        for bus, words in want.items():
            if [int(w) for w in words] != [int(w) for w in got.get(bus, [])]:
                problems.append(f"param set {k}: output {bus} differs from the source circuit")
    return problems


def pe_expected(fmt, params: Mapping[str, int], inputs: Sequence[int], count: int) -> Dict[str, int]:
    """The PE's outputs from the FloPoCo word-level model."""
    from repro.core.pe import PEOp
    from repro.flopoco.arithmetic import fp_mac, fp_mul

    a, b = inputs[params["sel_a"]], inputs[params["sel_b"]]
    op = params["op"]
    if op == PEOp.MAC:
        out = fp_mac(fmt, b, a, params["coeff"])
    elif op == PEOp.MUL:
        out = fp_mul(fmt, a, params["coeff"])
    elif op == PEOp.BYPASS:
        out = a
    else:
        out = b
    return {"out": out, "done": int(count == params["count_limit"])}


def pe_model_mismatches(
    specialized, fmt, params: Mapping[str, int], stimuli: Sequence[tuple], count_width: int
) -> List[str]:
    """A specialized PE network vs :func:`pe_expected`.

    ``stimuli`` holds ``(inputs, count)`` pairs: one FloPoCo word per data
    input port and the iteration-counter value.  The network is evaluated
    bit by bit through ``SpecializedNetwork.evaluate``.
    """
    problems: List[str] = []
    out_width = fmt.width
    for inputs, count in stimuli:
        bits: Dict[str, int] = {}
        for i, word in enumerate(inputs):
            for b in range(fmt.width):
                bits[f"in{i}[{b}]"] = (word >> b) & 1
        for b in range(count_width):
            bits[f"count[{b}]"] = (count >> b) & 1
        values = specialized.evaluate(bits)
        out = sum(values.get(f"out[{b}]", 0) << b for b in range(out_width))
        got = {"out": out, "done": values.get("done", 0)}
        want = pe_expected(fmt, params, inputs, count)
        if got != want:
            problems.append(f"params {dict(params)} inputs {list(inputs)}: got {got}, model {want}")
    return problems


# ---------------------------------------------------------------------------
# Reference comparisons
# ---------------------------------------------------------------------------


def image_mismatches(observed: Mapping[int, int], expected: Mapping[int, int]) -> List[str]:
    """A frame image that differs from its reference."""
    if dict(observed) == dict(expected):
        return []
    frames = len(set(observed.items()) ^ set(expected.items()))
    return [f"frame image differs from the reference in {frames} frame entries"]


def digest_mismatches(observed: Mapping[str, str], reference: Mapping[str, str]) -> List[str]:
    """Jobs whose digest differs from (or is missing in) the reference."""
    return [
        f"job {key}: digest {digest[:12]} != reference {str(reference.get(key))[:12]}"
        for key, digest in observed.items()
        if reference.get(key) != digest
    ]
