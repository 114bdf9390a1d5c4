"""Vectorized STA engine: arrival / required / slack / criticality.

The engine runs two levelized NumPy scans over a :class:`TimingGraph`:

* **forward** -- per topological level, arrival times fold over the incoming
  connections with ``np.maximum.at`` and then add the level's intrinsic
  block delays;
* **backward** -- required times fold over the outgoing connections with
  ``np.minimum.at``, anchored at the critical-path delay on every
  primary-output block.

Per-connection slack and VPR-style criticality ``1 - slack / Dmax`` fall out
of the same arrays, and the critical path is extracted by walking the
arrival argmax backwards, itemized per element (LUT / wire / switch / pin)
from the route-tree walk of :mod:`repro.timing.delays`.

Invariants:

* **Conservation.**  Per-connection ``slack = required(sink) -
  arrival(source) - delay`` and the critical path has slack exactly zero;
  the per-element breakdown of the extracted path sums *exactly* to
  ``critical_path_ns`` (asserted by the reconciliation tests).
* **Depth compatibility.**  The analysis's ``logic_depth`` equals the
  mapped network's ``depth()`` -- STA reads the same DAG the mapper
  produced, and ``check_quality.py`` fails the benchmark when they
  diverge.
* **Flat == dict.**  :meth:`CriticalityTracker.update_flat` (the dense
  ``conn_crit`` vector indexed by connection id) is bit-identical to the
  dict-returning :meth:`CriticalityTracker.update`; the dict path is kept
  as the equivalence baseline, not as a second behavior.
* **Criticalities are bounded.**  Every criticality lies in ``[0, 1]``;
  connections absent from the route set score ``0.0``, so a partially
  routed iteration can never over-prioritize missing nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..fpga.device import Device
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..par.netlist import PhysicalNetlist
from ..par.placement import Placement
from .delays import (
    estimated_edge_delays,
    routed_edge_delays,
    routed_wirecount_edge_delays,
    sink_rr_array,
    sink_rr_of_blocks,
    structural_edge_delays,
)
from .graph import TimingGraph, build_timing_graph

__all__ = [
    "CriticalPathElement",
    "TimingAnalysis",
    "CriticalityTracker",
    "analyze",
    "scan_edge_criticality",
    "structural_net_criticality",
    "net_criticality_from_placement",
]

_EPS = 1e-12


@dataclass
class CriticalPathElement:
    """One element of the critical-path breakdown."""

    kind: str        #: "lut", "wire", "switch" or "pin"
    name: str        #: block or net name the element belongs to
    count: int       #: number of identical elements folded into this entry
    delay_ns: float  #: total delay contributed (count * unit delay)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON reports."""
        return {
            "kind": self.kind,
            "name": self.name,
            "count": self.count,
            "delay_ns": self.delay_ns,
        }


@dataclass
class TimingAnalysis:
    """Full STA result over one placed (and usually routed) netlist."""

    graph: TimingGraph
    arrival: np.ndarray          #: per-block arrival time at the block output
    required: np.ndarray         #: per-block required time at the block output
    slack: np.ndarray            #: required - arrival
    edge_delay: np.ndarray       #: per-connection delay used by the scans
    edge_slack: np.ndarray       #: per-connection slack
    edge_criticality: np.ndarray  #: 1 - slack/Dmax, clipped to [0, 1]
    critical_path_ns: float
    logic_depth: int
    critical_path: List[CriticalPathElement] = field(default_factory=list)

    def connection_criticality(self) -> Dict[Tuple[int, int], float]:
        """Criticality per ``(net_id, sink_block)`` connection."""
        g = self.graph
        return {
            (int(g.edge_net[i]), int(g.edge_dst[i])): float(self.edge_criticality[i])
            for i in range(g.num_edges)
        }

    def net_criticality(self) -> Dict[int, float]:
        """Per-net criticality: the maximum over the net's connections."""
        out: Dict[int, float] = {}
        g = self.graph
        for i in range(g.num_edges):
            nid = int(g.edge_net[i])
            c = float(self.edge_criticality[i])
            if c > out.get(nid, -1.0):
                out[nid] = c
        return out

    def summary(self) -> Dict[str, float]:
        """Headline numbers: critical path, depth, worst slack, mean criticality."""
        worst_slack = 0.0
        if self.graph.sink_nodes.size:
            worst_slack = float(self.slack[self.graph.sink_nodes].min())
        return {
            "critical_path_ns": self.critical_path_ns,
            "logic_depth": self.logic_depth,
            "worst_slack_ns": worst_slack,
        }


def _scan(graph: TimingGraph, edge_delay: np.ndarray):
    """Forward/backward levelized scans; returns the flat STA arrays."""
    n = graph.num_nodes
    arrival = np.zeros(n, dtype=np.float64)
    depth = np.zeros(n, dtype=np.int64)
    src, dst = graph.edge_src, graph.edge_dst
    logic = graph.node_logic.astype(np.int64)

    # One interleaved pass per level: fold the level's incoming connections
    # (their sources sit at strictly lower levels, so those arrivals are
    # final), then add the level's intrinsic block delays.  Levels with no
    # incoming edges -- sources -- only get their intrinsic delay.
    bounds_by_level = {lv: (lo, hi) for lv, lo, hi in graph.fwd_bounds}
    for lv, nodes in enumerate(graph.level_nodes):
        b = bounds_by_level.get(lv)
        if b is not None:
            lo, hi = b
            ei = graph.edge_order_fwd[lo:hi]
            np.maximum.at(arrival, dst[ei], arrival[src[ei]] + edge_delay[ei])
            np.maximum.at(depth, dst[ei], depth[src[ei]])
        arrival[nodes] += graph.node_delay[nodes]
        depth[nodes] += logic[nodes]

    sinks = graph.sink_nodes
    dmax = float(arrival[sinks].max()) if sinks.size else 0.0
    logic_depth = int(depth[sinks].max()) if sinks.size else 0

    required = np.full(n, np.inf)
    required[sinks] = dmax
    for lv, lo, hi in graph.bwd_bounds:
        ei = graph.edge_order_bwd[lo:hi]
        np.minimum.at(
            required,
            src[ei],
            required[dst[ei]] - graph.node_delay[dst[ei]] - edge_delay[ei],
        )
    slack = required - arrival
    edge_slack = (
        required[dst] - graph.node_delay[dst] - edge_delay - arrival[src]
        if graph.num_edges
        else np.zeros(0)
    )
    if dmax > _EPS:
        crit = np.clip(1.0 - edge_slack / dmax, 0.0, 1.0)
    else:
        crit = np.zeros(graph.num_edges, dtype=np.float64)
    # Connections hanging off dead logic have +inf required time; their
    # criticality is zero by the clip above (slack +inf), and their node
    # slack stays +inf, which summary()/tests must tolerate.
    return arrival, required, slack, edge_slack, crit, dmax, logic_depth


def _extract_critical_path(
    graph: TimingGraph,
    arrival: np.ndarray,
    edge_delay: np.ndarray,
    edge_wires: Optional[np.ndarray],
    edge_pins: Optional[np.ndarray],
    arch,
) -> List[CriticalPathElement]:
    """Walk the arrival argmax backwards, itemizing per element."""
    sinks = graph.sink_nodes
    if sinks.size == 0 or graph.num_edges == 0:
        return []
    end = int(sinks[np.argmax(arrival[sinks])])

    # Incoming edges per block, found by scanning once.
    fanin: Dict[int, List[int]] = {}
    for i in range(graph.num_edges):
        fanin.setdefault(int(graph.edge_dst[i]), []).append(i)

    model = arch.delay_model()
    netlist = graph.netlist
    path_edges: List[int] = []
    node = end
    while True:
        cands = fanin.get(node)
        if not cands:
            break
        best = max(cands, key=lambda i: arrival[graph.edge_src[i]] + edge_delay[i])
        path_edges.append(best)
        node = int(graph.edge_src[best])
    path_edges.reverse()

    elements: List[CriticalPathElement] = []
    start = int(graph.edge_src[path_edges[0]]) if path_edges else end

    def lut_element(block: int) -> None:
        """Append ``block``'s intrinsic-delay element to the breakdown."""
        b = netlist.blocks[block]
        if graph.node_logic[block]:
            elements.append(CriticalPathElement("lut", b.name, 1, model["lut"]))

    lut_element(start)
    for i in path_edges:
        net_name = netlist.nets[int(graph.edge_net[i])].name
        if edge_wires is not None:
            w = int(edge_wires[i])
            p = int(edge_pins[i])
            wire_d = w * model["wire"]
            switch_d = w * model["switch"]
            pin_d = p * model["pin"]
            # Keep the breakdown exact even when the edge delay came from an
            # estimate whose element split differs: fold any residue into
            # the wire entry.
            residue = float(edge_delay[i]) - (wire_d + switch_d + pin_d)
            if w:
                elements.append(CriticalPathElement("wire", net_name, w, wire_d + residue))
                elements.append(CriticalPathElement("switch", net_name, w, switch_d))
            elif abs(residue) > _EPS:
                elements.append(CriticalPathElement("wire", net_name, 0, residue))
            if p:
                elements.append(CriticalPathElement("pin", net_name, p, pin_d))
        else:
            elements.append(CriticalPathElement("wire", net_name, 1, float(edge_delay[i])))
        lut_element(int(graph.edge_dst[i]))
    return elements


def scan_edge_criticality(graph: TimingGraph, edge_delay: np.ndarray) -> Tuple[float, np.ndarray]:
    """Run the two STA scans, return ``(critical_path_ns, edge_criticality)``.

    The thin public face of :func:`_scan` for callers that only need the
    criticality axis -- the incremental-STA placer re-times through this on
    every re-weighting step.
    """
    *_, crit, dmax, _depth = _scan(graph, edge_delay)
    return dmax, crit


def analyze(
    netlist: PhysicalNetlist,
    routing,
    device: Device,
    placement: Optional[Placement] = None,
) -> TimingAnalysis:
    """Run the STA engine over one placed-and-routed netlist.

    ``routing`` is a :class:`~repro.par.routing.RoutingResult` (or anything
    with a ``routes`` dict), or ``None`` for a pre-route analysis.  With a
    ``placement`` but no routing, connection delays are Manhattan-distance
    estimates; with routing but no placement, the seed implementation's
    per-net average-wires-per-sink model applies (exact per-sink tree walks
    need the block -> SINK mapping only a placement provides); with
    neither, every connection costs one wire hop -- the structural estimate
    whose criticalities drive the timing-aware placer.
    """
    with span("timing.sta.analyze", nets=len(netlist.nets)):
        arch = device.arch
        graph = build_timing_graph(netlist, arch.lut_delay_ns)
        edge_wires = edge_pins = None
        routes = getattr(routing, "routes", None) if routing is not None else None
        forest = getattr(routing, "forest", None) if routing is not None else None
        if routes is not None and placement is not None:
            edge_delay, edge_wires, edge_pins = routed_edge_delays(
                graph, routes, placement, device, forest=forest
            )
        elif routes is not None:
            edge_delay = routed_wirecount_edge_delays(graph, routes, device)
        elif placement is not None:
            edge_delay, edge_wires, edge_pins = estimated_edge_delays(graph, placement, arch)
        else:
            edge_delay = structural_edge_delays(graph, arch)
        arrival, required, slack, edge_slack, crit, dmax, depth = _scan(graph, edge_delay)
        path = _extract_critical_path(graph, arrival, edge_delay, edge_wires, edge_pins, arch)
        obs_metrics.add("sta.analyze_calls")
    return TimingAnalysis(
        graph=graph,
        arrival=arrival,
        required=required,
        slack=slack,
        edge_delay=edge_delay,
        edge_slack=edge_slack,
        edge_criticality=crit,
        critical_path_ns=dmax,
        logic_depth=depth,
        critical_path=path,
    )


def _fold_edge_crit_to_nets(graph: TimingGraph, crit: np.ndarray) -> List[float]:
    out = [0.0] * len(graph.netlist.nets)
    for i in range(graph.num_edges):
        nid = int(graph.edge_net[i])
        c = float(crit[i])
        if c > out[nid]:
            out[nid] = c
    return out


def structural_net_criticality(netlist: PhysicalNetlist, arch) -> List[float]:
    """Per-net criticality of the *unplaced* netlist (uniform wire delays).

    This is what the timing-driven flow weights the placer with: before any
    placement exists, a connection's criticality is purely structural --
    how close the deepest path through it comes to the overall logic depth.
    Returns one ``[0, 1]`` value per net (the max over its connections).
    """
    graph = build_timing_graph(netlist, arch.lut_delay_ns)
    delays = structural_edge_delays(graph, arch)
    *_, crit, _dmax, _depth = _scan(graph, delays)
    return _fold_edge_crit_to_nets(graph, crit)


def net_criticality_from_placement(
    graph: TimingGraph, placement: Placement, arch, exponent: float = 1.0
) -> Tuple[float, List[float]]:
    """Estimated critical path and per-net criticalities of one placement.

    Distance-based delay estimates (no routing); returns ``(critical_path_ns,
    net_crits)``.  The timing-driven flow uses the estimate both to re-weight
    the next annealing pass and to pick the best placement candidate before
    spending a route on it.  ``exponent`` sharpens the criticalities.
    """
    delays = estimated_edge_delays(graph, placement, arch)[0]
    *_, crit, dmax, _depth = _scan(graph, delays)
    if exponent != 1.0:
        crit = crit**exponent
    return dmax, _fold_edge_crit_to_nets(graph, crit)


class CriticalityTracker:
    """Incremental criticality updates for the timing-driven router.

    Built once per :func:`repro.par.routing.route` call: the timing graph,
    the block -> SINK-RR mapping, and the flat *connection index* are fixed,
    so each PathFinder iteration's update only re-times the route trees and
    re-runs the two levelized scans.  Criticalities are sharpened by
    ``exponent`` and capped at ``max_criticality`` so every connection keeps
    paying a slice of the congestion cost (a fully criticality-blind
    connection would never negotiate).

    The hot path is the flat API: every unique ``(net, sink_rr)`` pair gets
    a dense connection id (``conn_index``), :meth:`update_flat` re-times a
    :class:`~repro.par.forest.RouteForest` with pure NumPy gathers and
    refreshes :attr:`conn_crit` -- one float64 per connection id, updated in
    place -- which the routing kernels index directly instead of probing a
    ``Dict[(net, sink), float]`` per connection.  The dict-returning
    :meth:`initial` / :meth:`update` remain as the legacy (PR 4) path and
    the equivalence baseline.
    """

    def __init__(
        self,
        netlist: PhysicalNetlist,
        placement: Placement,
        device: Device,
        max_criticality: float = 0.95,
        exponent: float = 1.0,
    ) -> None:
        self.netlist = netlist
        self.placement = placement
        self.device = device
        self.max_criticality = max_criticality
        self.exponent = exponent
        arch = device.arch
        self.graph = build_timing_graph(netlist, arch.lut_delay_ns)
        self._sink_rr = sink_rr_of_blocks(netlist, placement, device)
        self._estimate = estimated_edge_delays(self.graph, placement, arch)[0]
        self.critical_path_ns = 0.0
        self.updates = 0

        # Flat connection index: dense ids over the unique (net, sink_rr)
        # pairs of the timing edges, plus the edge -> connection map the
        # folds and joins below gather through.
        g = self.graph
        rr = device.rr_graph
        self._num_rr = rr.num_nodes
        self._sink_arr = sink_rr_array(g, self._sink_rr)
        edge_sink = self._sink_arr[g.edge_dst] if g.num_edges else np.zeros(0, dtype=np.int64)
        from ..par.forest import join_sorted

        valid = edge_sink >= 0
        ekey = g.edge_net.astype(np.int64) * self._num_rr + edge_sink
        self._conn_keys = np.unique(ekey[valid])  # sorted: defines cid order
        self.num_connections = int(self._conn_keys.size)
        pos, matched = join_sorted(self._conn_keys, ekey)
        self._edge_conn = np.where(valid & matched, pos, -1).astype(np.int64)
        #: ``(net_id, sink_rr) -> connection id`` -- the routing kernels
        #: resolve each net sink once at setup, then index
        #: :attr:`conn_crit` by id every iteration.
        self.conn_index: Dict[Tuple[int, int], int] = {
            (int(k // self._num_rr), int(k % self._num_rr)): cid
            for cid, k in enumerate(self._conn_keys)
        }
        #: flat per-connection criticality, refreshed in place by
        #: :meth:`initial_flat` / :meth:`update_flat`.
        self.conn_crit = np.zeros(self.num_connections)
        self._delay_view = rr.search_view().delay_ns
        #: per-net fragment memo for build_route_forest: across PathFinder
        #: iterations only re-routed nets are re-flattened.
        self._frag_cache: Dict[int, tuple] = {}

    # -- flat hot path -------------------------------------------------------

    def _fold_to_conns(self, crit: np.ndarray) -> np.ndarray:
        """Sharpen, cap and max-fold edge criticalities into conn_crit."""
        if self.exponent != 1.0:
            crit = crit**self.exponent
        crit = np.minimum(crit, self.max_criticality)
        self.conn_crit.fill(0.0)
        ec = self._edge_conn
        m = ec >= 0
        if m.any():
            np.maximum.at(self.conn_crit, ec[m], crit[m])
        return self.conn_crit

    def initial_flat(self) -> np.ndarray:
        """Placement-estimate criticalities as the flat conn_crit vector."""
        *_, crit, dmax, _depth = _scan(self.graph, self._estimate)
        self.critical_path_ns = dmax
        return self._fold_to_conns(crit)

    def update_flat(self, routes, forest=None) -> np.ndarray:
        """Re-time the route trees over the flat forest, in place.

        ``forest`` defaults to flattening ``routes`` (the astar kernel's
        trees carry connection lists, so the build is one cheap pass); the
        delay extraction, STA scans and criticality fold are then pure
        NumPy.  Returns :attr:`conn_crit` (the same array object every
        call).
        """
        if forest is None:
            from ..par.forest import build_route_forest

            forest = build_route_forest(routes, self.device.rr_graph, cache=self._frag_cache)
        edge_delay = self._edge_delay_from_forest(forest)
        *_, crit, dmax, _depth = _scan(self.graph, edge_delay)
        self.critical_path_ns = dmax
        self.updates += 1
        obs_metrics.add("sta.retime_updates")
        return self._fold_to_conns(crit)

    def _edge_delay_from_forest(self, forest) -> np.ndarray:
        """Routed edge delays from the forest (estimate where unrouted)."""
        from ..par.forest import join_sorted

        conn_d, ok = forest.connection_delays(self._delay_view)
        keys = forest.connection_keys()
        edge_delay = self._estimate.copy()
        if keys.size == 0 or self.num_connections == 0:
            return edge_delay
        # Scatter the forest connections onto the tracker's cid space.
        # Duplicate keys (two net pins on one block) carry identical
        # accumulated delays, so last-write-wins is exact.
        pos, matched = join_sorted(self._conn_keys, keys)
        hit = ok & matched
        cid_delay = np.full(self.num_connections, np.nan)
        cid_delay[pos[hit]] = conn_d[hit]
        ec = self._edge_conn
        d = cid_delay[np.maximum(ec, 0)]
        use = (ec >= 0) & ~np.isnan(d)
        edge_delay[use] = d[use]
        return edge_delay

    # -- legacy dict path (PR 4; kept as the equivalence baseline) -----------

    def _to_conn_dict(self, crit: np.ndarray) -> Dict[Tuple[int, int], float]:
        if self.exponent != 1.0:
            crit = crit**self.exponent
        crit = np.minimum(crit, self.max_criticality)
        g = self.graph
        out: Dict[Tuple[int, int], float] = {}
        for i in range(g.num_edges):
            srr = self._sink_rr.get(int(g.edge_dst[i]))
            if srr is None:
                continue
            key = (int(g.edge_net[i]), srr)
            c = float(crit[i])
            if c > out.get(key, -1.0):
                out[key] = c
        return out

    def initial(self) -> Dict[Tuple[int, int], float]:
        """Placement-estimate criticalities for the first iteration (dict)."""
        *_, crit, dmax, _depth = _scan(self.graph, self._estimate)
        self.critical_path_ns = dmax
        return self._to_conn_dict(crit)

    def update(self, routes) -> Dict[Tuple[int, int], float]:
        """Re-time the route trees with the per-net dict walk (dict)."""
        edge_delay, _w, _p = routed_edge_delays(
            self.graph, routes, self.placement, self.device, fallback=self._estimate
        )
        *_, crit, dmax, _depth = _scan(self.graph, edge_delay)
        self.critical_path_ns = dmax
        self.updates += 1
        obs_metrics.add("sta.retime_updates")
        return self._to_conn_dict(crit)
