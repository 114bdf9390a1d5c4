"""Connection-delay models: routed, placement-estimated, structural.

The timing graph's edge delays come from one of three sources, in decreasing
order of fidelity:

* :func:`routed_edge_delays` -- exact per-sink delays walked out of the
  router's route trees.  Each connection's delay is the sum of the
  per-resource node delays (:func:`repro.fpga.routing_graph.rr_delay_ns`)
  along the unique tree path from the net's SOURCE to that sink, and the
  walk also counts the wire / switch / pin elements so the critical-path
  breakdown can itemize them.  When the routing carries a flat
  :class:`~repro.par.forest.RouteForest` (the astar kernel emits one),
  the extraction is pure NumPy -- one depth-levelized accumulation over
  the forest arrays plus a ``searchsorted`` join onto the timing edges,
  bit-identical to the legacy walk.  Without a forest, route trees that
  carry the router's connection list (``NetRoute.connections``) are walked
  exactly per net; plain node-list trees fall back to a BFS over the RR
  adjacency restricted to the tree's nodes.
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
from ..par.netlist import PhysicalNetlist
from ..par.placement import Placement
from .graph import TimingGraph

__all__ = [
    "sink_rr_of_blocks",
    "sink_rr_array",
    "routed_edge_delays",
    "routed_wirecount_edge_delays",
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
    forest,
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
    from ..par.forest import join_sorted

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


def _walk_connections(conns, delay_ns, is_wire, is_pin, acc):
    """Accumulate (delay, wires, pins) per tree node from a connection list.

    ``conns`` is the router's ordered ``(target, path, attach)`` list: every
    path's nodes hang off ``attach`` (already accumulated), target first.
    """
    for target, path, attach in conns:
        if not path:
            # Duplicate sink: the target node is already in the tree.
            continue
        base = acc.get(attach)
        if base is None:
            continue
        d, w, p = base
        for n in reversed(path):
            d = d + float(delay_ns[n])
            if is_wire[n]:
                w += 1
            elif is_pin[n]:
                p += 1
            acc[n] = (d, w, p)


def _walk_bfs(nodes, source, fanouts, delay_ns, is_wire, is_pin, acc):
    """BFS fallback over the RR adjacency restricted to the tree's nodes."""
    node_set = set(nodes)
    acc[source] = (0.0, 0, 0)
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            du, wu, pu = acc[u]
            for v in fanouts(u):
                v = int(v)
                if v in node_set and v not in acc:
                    acc[v] = (
                        du + float(delay_ns[v]),
                        wu + (1 if is_wire[v] else 0),
                        pu + (1 if is_pin[v] else 0),
                    )
                    nxt.append(v)
        frontier = nxt


def routed_edge_delays(
    graph: TimingGraph,
    routes: Dict[int, object],
    placement: Placement,
    device: Device,
    fallback: Optional[np.ndarray] = None,
    forest=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact edge delays (and wire / pin counts) from route trees.

    Returns ``(edge_delay, edge_wires, edge_pins)`` aligned with the graph's
    edge arrays.  Connections whose net has no route tree fall back to
    ``fallback`` (default: the placement estimate).

    With a ``forest`` (:class:`~repro.par.forest.RouteForest`, as the
    astar kernel attaches to its :class:`~repro.par.routing.RoutingResult`)
    the extraction runs entirely on flat arrays -- no per-net Python walk
    -- and produces bit-identical delays to the legacy dict walk below.
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

    if forest is not None:
        hit, delay, wires, pins = _forest_edge_data(
            graph,
            forest,
            sink_rr_array(graph, sink_of),
            delay_ns,
            is_wire,
            is_pin,
        )
        edge_delay[hit] = delay[hit]
        edge_wires[hit] = wires[hit]
        edge_pins[hit] = pins[hit]
        return edge_delay, edge_wires, edge_pins

    # Per-net accumulated (delay, wires, pins) at every tree node.
    per_net: Dict[int, Dict[int, Tuple[float, int, int]]] = {}
    for nid, net_route in routes.items():
        nodes = net_route.nodes
        if not nodes:
            continue
        acc: Dict[int, Tuple[float, int, int]] = {}
        conns = getattr(net_route, "connections", None)
        if conns is not None:
            acc[nodes[0]] = (0.0, 0, 0)
            _walk_connections(conns, delay_ns, is_wire, is_pin, acc)
        else:
            _walk_bfs(nodes, nodes[0], rr.fanouts, delay_ns, is_wire, is_pin, acc)
        per_net[int(nid)] = acc

    for i in range(graph.num_edges):
        acc = per_net.get(int(graph.edge_net[i]))
        if acc is None:
            continue
        srr = sink_of.get(int(graph.edge_dst[i]))
        if srr is None:
            continue
        hit = acc.get(srr)
        if hit is None:
            continue
        edge_delay[i], edge_wires[i], edge_pins[i] = hit
    return edge_delay, edge_wires, edge_pins


def routed_wirecount_edge_delays(
    graph: TimingGraph, routes: Dict[int, object], device: Device
) -> np.ndarray:
    """Per-net average-wires-per-sink estimate (routes without placement).

    Without a placement the block -> SINK-RR mapping is unknown, so exact
    per-sink tree walks are impossible -- but the route trees still carry
    each net's total wire count.  This is the seed implementation's model:
    every connection of a net charges the net's wires divided by its sink
    count, so two routings of different wirelength yield different critical
    paths even in this degraded mode.
    """
    from ..fpga.routing_graph import RRNodeType

    rr = device.rr_graph
    arch = device.arch
    ntype = rr.node_type
    is_wire = (ntype == RRNodeType.CHANX) | (ntype == RRNodeType.CHANY)
    wires_per_sink: Dict[int, float] = {}
    for nid, net_route in routes.items():
        wires = sum(1 for n in net_route.nodes if is_wire[n])
        sinks = max(1, len(graph.netlist.nets[int(nid)].sinks))
        wires_per_sink[int(nid)] = wires / sinks
    unit = arch.wire_hop_delay_ns
    edge_delay = np.full(graph.num_edges, 2.0 * arch.pin_delay_ns + unit)
    for i in range(graph.num_edges):
        per_sink = wires_per_sink.get(int(graph.edge_net[i]))
        if per_sink is not None:
            edge_delay[i] = 2.0 * arch.pin_delay_ns + max(1.0, per_sink) * unit
    return edge_delay


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
