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
from the route-forest scan of :mod:`repro.timing.delays`.  Routed delays
reach both :func:`analyze` and the router's :class:`CriticalityTracker`
through the same :class:`~repro.timing.delays.ConnectionJoin`.

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
  per-net dict walk ``criticality_update``, which lives in
  ``tests/oracles.py`` as the equivalence baseline, not in this module.
* **Criticalities are bounded.**  Every criticality lies in ``[0, 1]``;
  connections absent from the route set score ``0.0``, so a partially
  routed iteration can never over-prioritize missing nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..fpga.device import Device
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .delays import (
    ConnectionJoin,
    estimated_edge_delays,
    routed_edge_delays,
    structural_edge_delays,
)
from .graph import TimingGraph, build_timing_graph

if TYPE_CHECKING:
    from ..par.forest import RouteForest
    from ..par.netlist import PhysicalNetlist
    from ..par.placement import Placement

__all__ = [
    "CriticalPathElement",
    "TimingAnalysis",
    "CriticalityTracker",
    "analyze",
    "scan_edge_criticality",
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

    ``routing`` is a :class:`~repro.par.routing.RoutingResult` (anything
    with a ``forest``), or ``None`` for a pre-route analysis.  A routing is
    timed exactly from its route forest and needs the ``placement`` that
    maps each block to its SINK RR node; a routing without a placement
    raises ``ValueError``.  With a ``placement`` but no routing, connection
    delays are Manhattan-distance estimates; with neither, every connection
    costs one wire hop -- the structural estimate whose criticalities drive
    the timing-aware placer.
    """
    if routing is not None and placement is None:
        raise ValueError("routed timing analysis needs the placement the routing was made on")
    with span("timing.sta.analyze", nets=len(netlist.nets)):
        arch = device.arch
        graph = build_timing_graph(netlist, arch.lut_delay_ns)
        edge_wires = edge_pins = None
        if routing is not None:
            edge_delay, edge_wires, edge_pins = routed_edge_delays(
                graph, routing.forest, placement, device
            )
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


class CriticalityTracker:
    """Incremental criticality updates for the timing-driven router.

    Built once per :func:`repro.par.routing.route` call: the timing graph
    and its :class:`~repro.timing.delays.ConnectionJoin` are fixed, so each
    PathFinder iteration's update only re-times the route trees and
    re-runs the two levelized scans.  Criticalities are sharpened by
    ``exponent`` and capped at ``max_criticality`` so every connection keeps
    paying a slice of the congestion cost (a fully criticality-blind
    connection would never negotiate).

    The hot path is the flat API: every unique ``(net, sink_rr)`` pair gets
    a dense connection id (``conn_index``, the join's id order),
    :meth:`update_flat` re-times a :class:`~repro.par.forest.RouteForest`
    with pure NumPy gathers and refreshes :attr:`conn_crit` -- one float64
    per connection id, updated in place -- which the routing kernels index
    directly instead of probing a ``Dict[(net, sink), float]`` per
    connection.  The dict-returning path it replaced is kept as a test
    oracle in ``tests/oracles.py``.
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
        self.graph = build_timing_graph(netlist, device.arch.lut_delay_ns)
        self.join = ConnectionJoin(self.graph, placement, device)
        self.num_connections = self.join.num_connections
        self.critical_path_ns = 0.0
        self.updates = 0
        num_rr = self.join.num_rr_nodes
        #: ``(net_id, sink_rr) -> connection id`` -- the routing kernels
        #: resolve each net sink once at setup, then index
        #: :attr:`conn_crit` by id every iteration.
        self.conn_index: Dict[Tuple[int, int], int] = {
            (int(k // num_rr), int(k % num_rr)): cid for cid, k in enumerate(self.join.keys)
        }
        #: flat per-connection criticality, refreshed in place by
        #: :meth:`initial_flat` / :meth:`update_flat`.
        self.conn_crit = np.zeros(self.num_connections)

    # -- flat hot path -------------------------------------------------------

    def _fold_to_conns(self, crit: np.ndarray) -> np.ndarray:
        """Sharpen, cap and max-fold edge criticalities into conn_crit."""
        if self.exponent != 1.0:
            crit = crit**self.exponent
        crit = np.minimum(crit, self.max_criticality)
        self.conn_crit.fill(0.0)
        ec = self.join.edge_conn
        m = ec >= 0
        if m.any():
            np.maximum.at(self.conn_crit, ec[m], crit[m])
        return self.conn_crit

    def initial_flat(self) -> np.ndarray:
        """Placement-estimate criticalities as the flat conn_crit vector."""
        *_, crit, dmax, _depth = _scan(self.graph, self.join.estimate)
        self.critical_path_ns = dmax
        return self._fold_to_conns(crit)

    def update_flat(self, forest: RouteForest) -> np.ndarray:
        """Re-time the route trees of ``forest``, in place.

        The delay extraction (routed delays where the forest routes a
        connection, the placement estimate elsewhere), STA scans and
        criticality fold are pure NumPy.  Returns :attr:`conn_crit` (the
        same array object every call).
        """
        hit, delays = self.join.scatter(forest, self.device.rr_graph.node_delay_ns)
        edge_delay = self.join.estimate.copy()
        edge_delay[hit] = delays
        *_, crit, dmax, _depth = _scan(self.graph, edge_delay)
        self.critical_path_ns = dmax
        self.updates += 1
        obs_metrics.add("sta.retime_updates")
        return self._fold_to_conns(crit)
