"""Connection-delay models: routed, placement-estimated, structural.

The timing graph's edge delays come from one of three sources, in decreasing
order of fidelity:

* :func:`routed_edge_delays` -- exact per-sink delays out of the routing
  result's :class:`~repro.par.forest.RouteForest`.  Each connection's
  delay is the sum of the per-resource node delays
  (:func:`repro.fpga.routing_graph.rr_delay_ns`) along the tree path the
  router grew from the net's SOURCE to that sink, and the scan also counts
  the wire / switch / pin elements so the critical-path breakdown can
  itemize them.  The extraction is pure NumPy -- one depth-levelized
  accumulation over the forest arrays plus a ``searchsorted`` join onto
  the timing edges -- bit-identical to the per-connection dict walk kept
  as ``routed_edge_delays_reference`` in ``tests/oracles.py``.
* :func:`estimated_edge_delays` -- pre-route estimate from placement:
  Manhattan distance in unit wires plus the pin hops.  This seeds the
  timing-driven router's first iteration.
* :func:`structural_edge_delays` -- no placement at all: every connection
  costs one wire hop plus pins.  This is the pre-placement estimate the
  criticality-weighted placer anneals against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..fpga.device import Device
from ..par.forest import RouteForest, join_sorted
from ..par.netlist import PhysicalNetlist
from ..par.placement import Placement
from .graph import TimingGraph

__all__ = [
    "sink_rr_of_blocks",
    "sink_rr_array",
    "routed_edge_delays",
    "estimated_edge_delays",
    "estimated_edge_delays_from_coords",
    "structural_edge_delays",
]


def sink_rr_of_blocks(
    netlist: PhysicalNetlist, placement: Placement, device: Device
) -> Dict[int, int]:
    """Map every placed block to its SINK RR node.

    Delegates to the router's canonical terminal mapping
    (:func:`repro.par.routing.terminal_rr_nodes`) so the criticality keys
    the tracker hands back are guaranteed to match the sink ids the router
    searches for.
    """
    from ..par.routing import terminal_rr_nodes

    _src_of, sink_of = terminal_rr_nodes(netlist, placement, device.rr_graph)
    return sink_of


def sink_rr_array(graph: TimingGraph, sink_of: Dict[int, int]) -> np.ndarray:
    """``sink_of`` as a flat int64 array over timing-graph nodes (-1 unknown)."""
    arr = np.full(graph.num_nodes, -1, dtype=np.int64)
    for block, sink in sink_of.items():
        arr[block] = sink
    return arr


def _forest_edge_data(
    graph: TimingGraph,
    forest: RouteForest,
    sink_arr: np.ndarray,
    delay_ns: np.ndarray,
    is_wire: np.ndarray,
    is_pin: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Join per-forest-connection (delay, wires, pins) onto the timing edges.

    Returns ``(hit, delay, wires, pins)`` over the graph's edges, where
    ``hit`` marks edges whose ``(net, sink_rr)`` key matched a routed
    connection.  Duplicate forest keys (two net pins on one block) carry
    identical accumulated values, so the first occurrence is taken.
    """
    conn_d, conn_w, conn_p, conn_ok = forest.connection_delay_elements(delay_ns, is_wire, is_pin)
    num_edges = graph.num_edges
    delay = np.zeros(num_edges)
    wires = np.zeros(num_edges, dtype=np.int32)
    pins = np.zeros(num_edges, dtype=np.int32)
    keys = forest.connection_keys()[conn_ok]
    if keys.size == 0 or num_edges == 0:
        return np.zeros(num_edges, dtype=bool), delay, wires, pins
    uk, ui = np.unique(keys, return_index=True)
    edge_sink = sink_arr[graph.edge_dst]
    ekey = graph.edge_net.astype(np.int64) * forest.num_rr_nodes + edge_sink
    pos, matched = join_sorted(uk, ekey)
    hit = (edge_sink >= 0) & matched
    src = ui[pos[hit]]
    delay[hit] = conn_d[conn_ok][src]
    wires[hit] = conn_w[conn_ok][src]
    pins[hit] = conn_p[conn_ok][src]
    return hit, delay, wires, pins


def routed_edge_delays(
    graph: TimingGraph,
    forest: RouteForest,
    placement: Placement,
    device: Device,
    fallback: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact edge delays (and wire / pin counts) from a route forest.

    Returns ``(edge_delay, edge_wires, edge_pins)`` aligned with the graph's
    edge arrays.  Connections the forest does not route fall back to
    ``fallback`` (default: the placement estimate).
    """
    from ..fpga.routing_graph import RRNodeType

    rr = device.rr_graph
    view = rr.search_view()
    delay_ns = view.delay_ns
    ntype = rr.node_type
    is_wire = (ntype == RRNodeType.CHANX) | (ntype == RRNodeType.CHANY)
    is_pin = (ntype == RRNodeType.OPIN) | (ntype == RRNodeType.IPIN)

    if fallback is None:
        fallback = estimated_edge_delays(graph, placement, device.arch)[0]
    edge_delay = fallback.copy()
    edge_wires = np.zeros(graph.num_edges, dtype=np.int32)
    edge_pins = np.zeros(graph.num_edges, dtype=np.int32)

    sink_of = sink_rr_of_blocks(graph.netlist, placement, device)
    hit, delay, wires, pins = _forest_edge_data(
        graph, forest, sink_rr_array(graph, sink_of), delay_ns, is_wire, is_pin
    )
    edge_delay[hit] = delay[hit]
    edge_wires[hit] = wires[hit]
    edge_pins[hit] = pins[hit]
    return edge_delay, edge_wires, edge_pins


def estimated_edge_delays(
    graph: TimingGraph, placement: Placement, arch
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Placement-distance delay estimate: one unit wire per Manhattan unit.

    Every connection charges two pin hops (OPIN + IPIN) plus at least one
    wire hop -- the router cannot connect two blocks with fewer resources.
    """
    xs = np.zeros(graph.num_nodes, dtype=np.int64)
    ys = np.zeros(graph.num_nodes, dtype=np.int64)
    for bid, site in placement.block_site.items():
        xs[bid] = site.x
        ys[bid] = site.y
    return estimated_edge_delays_from_coords(graph, xs, ys, arch)


def estimated_edge_delays_from_coords(
    graph: TimingGraph, xs: np.ndarray, ys: np.ndarray, arch
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`estimated_edge_delays` over flat per-block coordinate arrays.

    This is the re-timing seam of the incremental-STA placer: the annealing
    kernel hands its live ``block_x`` / ``block_y`` coordinate lists straight
    in, with no ``Placement`` object on the hot path.
    """
    num_edges = graph.num_edges
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    dist = np.abs(xs[graph.edge_src] - xs[graph.edge_dst]) + np.abs(
        ys[graph.edge_src] - ys[graph.edge_dst]
    )
    wires = np.maximum(dist, 1).astype(np.int32)
    delay = 2.0 * arch.pin_delay_ns + wires * arch.wire_hop_delay_ns
    pins = np.full(num_edges, 2, dtype=np.int32)
    return delay, wires, pins


def structural_edge_delays(graph: TimingGraph, arch) -> np.ndarray:
    """Placement-free estimate: every connection is one wire hop plus pins."""
    unit = 2.0 * arch.pin_delay_ns + arch.wire_hop_delay_ns
    return np.full(graph.num_edges, unit, dtype=np.float64)
