"""Connection-delay models: routed, placement-estimated, structural.

The timing graph's edge delays come from one of three sources, in decreasing
order of fidelity:

* :func:`routed_edge_delays` -- exact per-sink delays out of the routing
  result's :class:`~repro.par.forest.RouteForest`.  Each connection's
  delay is the sum of the per-resource node delays
  (:attr:`repro.fpga.routing_graph.RRGraph.node_delay_ns`) along the tree
  path the router grew from the net's SOURCE to that sink, and the scan
  also counts the wire / pin elements so the critical-path breakdown can
  itemize them.  The extraction is pure NumPy -- one depth-levelized
  accumulation over the forest arrays
  (:meth:`~repro.par.forest.RouteForest.connection_sums`) scattered onto
  the timing edges through a :class:`ConnectionJoin` -- bit-identical to
  the per-connection dict walk kept as ``routed_edge_delays_reference``
  in ``tests/oracles.py``.
* :func:`estimated_edge_delays` -- pre-route estimate from placement:
  Manhattan distance in unit wires plus the pin hops.  This seeds the
  timing-driven router's first iteration and stands in for any connection
  a forest does not route.
* :func:`structural_edge_delays` -- no placement at all: every connection
  costs one wire hop plus pins.  This is the pre-placement estimate the
  criticality-weighted placer anneals against.

:class:`ConnectionJoin` is the one mapping from forest connections
``(net, sink RR node)`` to timing edges; both :func:`routed_edge_delays`
(STA) and :class:`repro.timing.sta.CriticalityTracker` (the router's
retimer) scatter forest results through it.  This module reads
:mod:`repro.par` types for annotations only, and calls
:func:`repro.par.routing.terminal_rr_nodes` lazily, so importing
:mod:`repro.timing` never loads the PAR package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..fpga.device import Device
from ..fpga.routing_graph import RRNodeType
from .graph import TimingGraph

if TYPE_CHECKING:
    from ..par.forest import RouteForest
    from ..par.placement import Placement

__all__ = [
    "ConnectionJoin",
    "routed_edge_delays",
    "estimated_edge_delays",
    "estimated_edge_delays_from_coords",
    "structural_edge_delays",
]


def _join_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in ``sorted_keys``: ``(pos, hit)``.

    ``pos[i]`` is a valid index into ``sorted_keys`` (when it is non-empty)
    and ``hit[i]`` is True exactly where ``sorted_keys[pos[i]] == keys[i]``.
    """
    if sorted_keys.size == 0 or keys.size == 0:
        return np.zeros(keys.size, dtype=np.int64), np.zeros(keys.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


class ConnectionJoin:
    """Forest connections ``(net, sink RR node)`` -> timing edges.

    Built once per (timing graph, placement, device).  Every unique
    ``(net, sink_rr)`` pair of the graph's edges gets a dense connection id
    in key order (:attr:`keys`, encoded ``net * num_rr_nodes + sink_rr``
    like :meth:`~repro.par.forest.RouteForest.connection_keys`), and
    :attr:`edge_conn` maps each edge to its id (``-1`` when the edge's sink
    block is unplaced).  :meth:`scatter` then moves per-connection forest
    sums onto the edges with one sorted join.
    """

    def __init__(self, graph: TimingGraph, placement: Placement, device: Device) -> None:
        from ..par.routing import terminal_rr_nodes

        rr = device.rr_graph
        #: ``block -> SINK RR node``: the router's own terminal mapping, so
        #: the connection keys here always match the sinks it searches for.
        self.sink_of: Dict[int, int] = terminal_rr_nodes(graph.netlist, placement, rr)[1]
        sink_arr = np.full(graph.num_nodes, -1, dtype=np.int64)
        for block, sink in self.sink_of.items():
            sink_arr[block] = sink
        edge_sink = sink_arr[graph.edge_dst]
        valid = edge_sink >= 0
        ekey = graph.edge_net.astype(np.int64) * rr.num_nodes + edge_sink
        self.num_rr_nodes = rr.num_nodes
        # Sorted unique keys define the id order.  A sort plus a neighbour
        # compare, not np.unique, whose hash path is far slower at this size.
        keys = np.sort(ekey[valid])
        self.keys = keys[np.diff(keys, prepend=-1) != 0]
        self.edge_conn = np.where(valid, np.searchsorted(self.keys, ekey), -1).astype(np.int64)
        #: placement-estimate edge delays, kept wherever no forest
        #: connection feeds an edge.
        self.estimate = estimated_edge_delays(graph, placement, device.arch)[0]

    @property
    def num_connections(self) -> int:
        """Number of unique ``(net, sink_rr)`` connections over the edges."""
        return int(self.keys.size)

    def scatter(
        self, forest: RouteForest, node_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forest sums of ``node_values`` on the edges: ``(hit, sums)``.

        ``hit`` marks the edges a routed forest connection feeds and
        ``sums[i]`` is :meth:`~repro.par.forest.RouteForest.connection_sums`
        of the connection feeding the ``i``-th hit edge.  Duplicate forest
        keys (two net pins on one block) carry identical sums, so the last
        one written wins exactly.
        """
        sums = forest.connection_sums(node_values)
        pos, matched = _join_sorted(self.keys, forest.connection_keys())
        ok = matched & (forest.conn_sink_pos >= 0)
        # One spare slot at the end: edges with no connection id (-1) read it.
        conn_of = np.full(self.num_connections + 1, -1, dtype=np.int64)
        conn_of[pos[ok]] = np.flatnonzero(ok)
        src = conn_of[self.edge_conn]
        hit = src >= 0
        return hit, sums[src[hit]]


def routed_edge_delays(
    graph: TimingGraph,
    forest: RouteForest,
    placement: Placement,
    device: Device,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact edge delays (and wire / pin counts) from a route forest.

    Returns ``(edge_delay, edge_wires, edge_pins)`` aligned with the graph's
    edge arrays.  Connections the forest does not route keep the placement
    estimate and zero element counts.
    """
    rr = device.rr_graph
    ntype = rr.node_type
    node_values = np.empty((rr.num_nodes, 3), dtype=np.float64)
    node_values[:, 0] = rr.node_delay_ns
    node_values[:, 1] = rr.wire_mask()
    node_values[:, 2] = (ntype == RRNodeType.OPIN) | (ntype == RRNodeType.IPIN)

    join = ConnectionJoin(graph, placement, device)
    hit, sums = join.scatter(forest, node_values)
    edge_delay = join.estimate.copy()
    edge_wires = np.zeros(graph.num_edges, dtype=np.int32)
    edge_pins = np.zeros(graph.num_edges, dtype=np.int32)
    edge_delay[hit] = sums[:, 0]
    edge_wires[hit] = sums[:, 1].astype(np.int32)
    edge_pins[hit] = sums[:, 2].astype(np.int32)
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
