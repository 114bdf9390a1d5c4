"""TROUTE: PathFinder negotiated-congestion routing.

Re-implementation of the VPR/TPaR router: every net is routed over the
routing-resource graph with an A*-guided Dijkstra search; congestion is
resolved by iteratively re-routing nets through overused nodes while the
present-congestion penalty grows and a history cost accumulates (PathFinder).

One search kernel lives behind :func:`route` (plus the opt-in
``objective="timing"`` that blends STA criticalities into its costs --
see :func:`route`): a scalar directed search over the RR graph's search
edges (each node's edges up to ``search_end``, which enter no input pin or
sink).  The wavefront expands over SOURCE/OPIN/CHANX/CHANY nodes only; a
search completes from a wire next to the target block through that
block's cheapest input pin instead of flooding every input pin it passes,
every expansion is pruned to the net's terminal bounding box (with a
full-graph retry on the rare in-box failure), and the heap is keyed on
``cost + lookahead`` where the lookahead is the admissible Manhattan bound
built from the precomputed RR-node coordinates.  Re-routing is
incremental at *connection* granularity: after the first iteration only
the congested connections of congested nets (plus the branches that hang
off them) are ripped up and re-routed; untouched branches keep their
paths across iterations.

PathFinder's outer loop -- the per-iteration cost refresh, history and
``pres_fac``, the failure predictor, the timing retimer, telemetry and
the per-net deadline poll -- is Python.  Everything inside one net (rip-up,
sink order, searches, backtrace, occupancy and congestion costs, the
net's connection records) is one compiled call per net when the native
backend is available (:mod:`repro.native.astar`, bit-identical routes),
and the pure-Python twin :class:`_PythonNets` otherwise.

The original per-edge ``node_cost()`` router is kept as a test oracle in
``tests/oracles.py``; this kernel's route quality is re-baselined against
it in ``benchmarks/bench_hotpaths.py`` (wirelength within a few percent of
the reference route).

:func:`route_resilient` bounds each attempt with a deadline and answers a
timeout, a crash or a non-converged route with one retry at twice the
iteration budget.

The min-CW probes route with ``abort_hopeless=True``: the routing-failure
predictor (:func:`predict_failure`) stops a route once its
overuse trend rules out convergence within the iteration budget.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..fpga.device import Device
from ..fpga.routing_graph import RR_BASE_COST, RRGraph, RRNodeType
from ..native.astar import astar_kernel
from ..obs import metrics as obs_metrics
from ..obs.trace import emit_series, span
from ..util.resilience import Deadline, DeadlineExceeded, FaultInjected, inject, record_event
from .forest import RouteForest, _NetFragment, _append_conn, build_route_forest
from .netlist import PhysicalNetlist
from .placement import Placement

__all__ = [
    "RoutingResult",
    "route",
    "route_resilient",
    "NetRoute",
    "terminal_rr_nodes",
    "routing_to_payload",
    "routing_from_payload",
]


@dataclass
class NetRoute:
    """Route tree of one net, as read from :attr:`RoutingResult.routes`."""

    net_id: int
    #: RR nodes of the tree: the SOURCE, then each connection's new nodes in
    #: attach-to-sink order (the forest's position order).
    nodes: List[int] = field(default_factory=list)
    #: ordered per-sink connections ``(sink_rr, path, attach)`` as the
    #: router built them -- ``path`` lists the nodes the connection added
    #: (sink first), ``attach`` is the tree node it grew from; a duplicate
    #: sink is ``(sink_rr, [], sink_rr)``.
    connections: List[Tuple[int, List[int], int]] = field(default_factory=list)


@dataclass
class RoutingResult:
    """Outcome of the routing step."""

    success: bool
    iterations: int
    wirelength: int
    overused_nodes: int
    max_channel_occupancy: int
    #: flat route forest over all nets' trees, converged or not -- the one
    #: stored route representation.  The STA engine consumes it with pure
    #: NumPy gathers, and the PaR cache serializes it so cache hits
    #: re-hydrate routes instead of re-routing.
    forest: RouteForest
    #: the routing-failure predictor stopped this route before its iteration
    #: budget (only min-CW probes enable it; see :func:`predict_failure`).
    aborted: bool = False
    #: per-run observability snapshot (see OBSERVABILITY.md): convergence
    #: timelines (``overuse_per_iteration``, ``rerouted_nets_per_iteration``,
    #: ``iteration_wall_ms``) plus kernel counters (``nodes_expanded``,
    #: ``sta_retimes``).  Excluded from equality -- wall times differ run to
    #: run while the routes stay bit-identical -- and deliberately *not*
    #: serialized into cache payloads (artifacts stay telemetry-free, so
    #: ``ROUTE_ALGO_VERSION`` is unaffected); re-hydrated results carry
    #: ``{"from_cache": True}`` instead.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @cached_property
    def routes(self) -> Dict[int, NetRoute]:
        """Per-net :class:`NetRoute` view of :attr:`forest`, built on first read.

        A derived, read-only view for per-net consumers (legality checks,
        test oracles); fresh and cache-hydrated results yield equal views.
        """
        f = self.forest
        node = f.node
        parent = f.parent
        routes: Dict[int, NetRoute] = {}
        for k in range(f.num_nets):
            nid = int(f.net_id[k])
            source = int(f.net_source[k])
            lo, hi = int(f.net_node_ptr[k]), int(f.net_node_ptr[k + 1])
            conns: List[Tuple[int, List[int], int]] = []
            for c in range(int(f.net_ptr[k]), int(f.net_ptr[k + 1])):
                s, e = int(f.conn_ptr[c]), int(f.conn_ptr[c + 1])
                sink = int(f.conn_sink[c])
                if e > s:
                    path = node[s:e][::-1].tolist()  # back to sink-first
                    ap = int(parent[s])
                    attach = source if ap < 0 else int(node[ap])
                    conns.append((sink, path, attach))
                else:
                    conns.append((sink, [], sink))
            routes[nid] = NetRoute(nid, [source] + node[lo:hi].tolist(), conns)
        return routes

    def describe(self) -> str:
        """One-line human-readable outcome: status, iterations and usage."""
        status = "routable" if self.success else "CONGESTED"
        return (
            f"{status} after {self.iterations} iteration(s); "
            f"wirelength={self.wirelength}, peak channel occupancy="
            f"{self.max_channel_occupancy}, overused nodes={self.overused_nodes}"
        )


#: Admissible floor of the cost still to pay after the last wire of a path:
#: one IPIN plus one SINK at base cost (congestion only ever adds to it).
#: Folding it into the A* lookahead makes the bound nearly tight, which
#: collapses the otherwise-huge tie plateau across the W parallel track grids.
#: Under the timing objective the floor scales by ``1 - criticality``: only
#: the congestion share of the blended cost is bounded below by the base
#: costs, while the delay share of a pin can be arbitrarily small.
_PIN_FLOOR = RR_BASE_COST[RRNodeType.IPIN] + RR_BASE_COST[RRNodeType.SINK]

#: PathFinder schedule.  The present-congestion factor starts at
#: ``PRES_FAC_INIT`` and grows by ``PRES_FAC_MULT`` per iteration; each unit
#: of overuse adds ``HIST_FAC`` to a node's history cost; ``ASTAR_FAC``
#: weights the Manhattan lookahead.
PRES_FAC_INIT = 1.0
PRES_FAC_MULT = 1.8
HIST_FAC = 0.4
ASTAR_FAC = 1.1
#: Routing-failure predictor (VTR 8's routing predictor), enabled only for
#: min-CW probes: a least-squares line through the last
#: ``max(PREDICT_WINDOW, k // 2)`` overuse counts after iteration ``k`` must
#: fall and reach zero within the iteration budget, or the probe stops.  It
#: never fires at or below ``PREDICT_MIN_OVERUSE`` overused nodes, where
#: near misses still converge late.
PREDICT_WINDOW = 3
PREDICT_MIN_OVERUSE = 20
#: Expansion margin of the per-net search bounding box.
BBOX_MARGIN = 3
#: The search bounds a connection escalates to when its net's box fails.
_FULL_BOUNDS = (-(1 << 30), 1 << 30, -(1 << 30), 1 << 30)
#: Criticality cap of the timing objective: every connection keeps paying
#: at least this slice of the congestion cost.
MAX_CRITICALITY = 0.95


def terminal_rr_nodes(
    netlist: PhysicalNetlist, placement: Placement, rr: RRGraph
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Map each placed block to its (SOURCE, SINK) RR nodes.

    The one canonical block -> RR terminal mapping: the router keys its
    searches on it and the timing subsystem keys its per-connection
    criticalities on the same sink ids, so both must always agree.
    """
    src_of: Dict[int, int] = {}
    sink_of: Dict[int, int] = {}
    for block in netlist.blocks:
        site = placement.block_site.get(block.id)
        if site is None:
            continue
        if block.needs_logic_site:
            src_of[block.id] = rr.clb_source[(site.x, site.y)]
            sink_of[block.id] = rr.clb_sink[(site.x, site.y)]
        else:
            src_of[block.id] = rr.io_source[(site.x, site.y, site.subtile)]
            sink_of[block.id] = rr.io_sink[(site.x, site.y, site.subtile)]
    return src_of, sink_of


def predict_failure(overuse: Sequence[int], max_iterations: int) -> bool:
    """Whether a route with this overuse history cannot converge in budget.

    ``overuse[i]`` is the overused-node count after iteration ``i + 1``.
    A pure function of the history, so it is backend-neutral and can be
    checked offline against recorded ``overuse_per_iteration`` traces.
    """
    k = len(overuse)
    n = max(PREDICT_WINDOW, k // 2)
    if k < n or k >= max_iterations or overuse[-1] <= PREDICT_MIN_OVERUSE:
        return False
    ys = overuse[-n:]
    x_mean = (n - 1) / 2.0
    y_mean = sum(ys) / n
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in enumerate(ys))
    sxx = sum((x - x_mean) ** 2 for x in range(n))
    slope = sxy / sxx
    if slope >= 0:
        return True
    fit_now = y_mean + slope * x_mean  # the line's value at iteration k
    return k + fit_now / -slope > max_iterations


def route(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    objective: str = "wirelength",
    criticality_exponent: float = 1.0,
    deadline: Optional[Deadline] = None,
    *,
    abort_hopeless: bool = False,
) -> RoutingResult:
    """Route all nets of a placed netlist on the device's RR graph.

    The per-net loop runs as compiled C when the native backend is
    available (:mod:`repro.native.astar`, bit-identical routes) and as the
    pure Python twin otherwise.  The PathFinder schedule is fixed (see
    :data:`PRES_FAC_INIT` and the constants next to it), and
    ``max_iterations`` is read only as the loop bound: a route that
    converges at iteration ``k`` returns the same result under every budget
    of at least ``k``.

    ``objective="timing"`` switches the connection searches to the
    VPR-style timing-driven cost ``crit * delay + (1 - crit) * congestion``:
    per-connection criticalities start from a placement-distance STA
    estimate and are refreshed from the actual route trees after every
    PathFinder iteration (:class:`repro.timing.sta.CriticalityTracker`).
    Delays are normalized by the architecture's unit-wire hop delay, so a
    unit wire costs exactly 1.0 under any blend and the Manhattan lookahead
    stays admissible.  :data:`MAX_CRITICALITY` keeps every connection
    paying a slice of the congestion cost; ``criticality_exponent``
    sharpens the blend.

    ``deadline`` bounds the route's wall time: the router polls it before
    every PathFinder iteration and before every net it routes or re-routes,
    and raises :class:`~repro.util.resilience.DeadlineExceeded` when it
    expires.  The check is a clock read per poll point -- it never changes
    the search trajectory, so results under a generous deadline are
    bit-identical to unbounded ones.

    ``abort_hopeless`` (the min-CW probes set it) stops the route as soon
    as :func:`predict_failure` rules out convergence within
    ``max_iterations``; the result then has ``success=False``,
    ``aborted=True`` and ``iterations`` set to the iteration it stopped at.
    """
    if objective not in ("wirelength", "timing"):
        raise ValueError(f"unknown routing objective {objective!r}")
    with span("par.route", objective=objective, nets=len(netlist.nets)) as route_span:
        result = _route_astar(
            netlist, placement, device,
            max_iterations=max_iterations,
            objective=objective,
            criticality_exponent=criticality_exponent,
            deadline=deadline,
            abort_hopeless=abort_hopeless,
        )
        route_span.annotate(
            channel_width=device.arch.channel_width,
            iterations=result.iterations, aborted=result.aborted,
        )
    # The convergence timeline lands in the trace (a no-op when disabled);
    # the arrays themselves stay on the result for PaRResult.telemetry.
    emit_series("route.overuse", result.telemetry["overuse_per_iteration"])
    return result


def route_resilient(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    objective: str = "wirelength",
    deadline_s: Optional[float] = None,
    events: Optional[List[Dict[str, object]]] = None,
    **route_kwargs,
) -> RoutingResult:
    """:func:`route` with a per-attempt deadline and one retry at twice the budget.

    The first attempt routes with ``max_iterations`` under a fresh
    :class:`~repro.util.resilience.Deadline` of ``deadline_s`` seconds.
    When it times out (``kernel-deadline``), raises (``kernel-error``) or
    ends congested (``kernel-nonconverged``), one retry runs at
    ``2 * max_iterations`` under its own fresh deadline, recorded as a
    ``route-retry`` event in ``events``.

    On a fault-free run that converges within ``max_iterations`` this is
    exactly one :func:`route` call -- same arguments, same trajectory,
    bit-identical result -- so callers can adopt it unconditionally.  The
    retry replays the same trajectory (the budget is only the loop bound),
    so a retry that converges at iteration ``k <= max_iterations`` returns
    the first attempt's route as it would have been without the fault.

    Returns the earliest non-converged result (``success=False``) when no
    attempt converges -- when the first attempt completed, exactly what a
    plain :func:`route` would have returned; raises the last attempt's
    error when both attempts fail outright.
    """
    first: Optional[RoutingResult] = None
    error: Optional[BaseException] = None
    for attempt, budget in enumerate((max_iterations, 2 * max_iterations)):
        if attempt:
            record_event(events, "route-retry", site="route.kernel",
                         max_iterations=budget)
        fault = inject("route.kernel")
        try:
            if fault == "timeout":
                raise DeadlineExceeded("injected route timeout")
            if fault is not None:
                raise FaultInjected("route.kernel", kind=fault)
            result = route(
                netlist, placement, device,
                max_iterations=budget,
                objective=objective,
                deadline=Deadline(deadline_s),
                **route_kwargs,
            )
        except DeadlineExceeded as exc:
            record_event(events, "kernel-deadline", site="route.kernel",
                         max_iterations=budget, deadline_s=deadline_s,
                         error=str(exc))
            error = exc
            continue
        except (FaultInjected, RuntimeError) as exc:
            record_event(events, "kernel-error", site="route.kernel",
                         max_iterations=budget,
                         error=f"{type(exc).__name__}: {exc}")
            error = exc
            continue
        if result.success:
            return result
        record_event(events, "kernel-nonconverged", site="route.kernel",
                     max_iterations=budget, overused_nodes=result.overused_nodes)
        if first is None:
            first = result
    if first is not None:
        return first
    assert error is not None
    raise error


def _route_astar(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    objective: str = "wirelength",
    criticality_exponent: float = 1.0,
    deadline: Optional[Deadline] = None,
    abort_hopeless: bool = False,
) -> RoutingResult:
    """Directed incremental PathFinder over the graph's search edges."""
    # Set-up (base costs, criticality tracker, terminals, the net loop's
    # binding) gets its own span so a trace accounts for the time
    # par.route spends outside its iterations.
    with span("par.route.setup"):
        rr = device.rr_graph
        base_cost = np.empty(rr.num_nodes, dtype=np.float64)
        for t, c in RR_BASE_COST.items():
            base_cost[rr.node_type == t] = c
        cap_arr = rr.node_capacity.astype(np.int32)
        history = np.zeros(rr.num_nodes, dtype=np.float64)

        # Timing objective: per-connection criticalities blend a normalized
        # delay cost into the congestion cost (crit * delay + (1-crit) * cong).
        # The normalization makes a unit wire cost exactly 1.0 in delay terms,
        # so the Manhattan lookahead stays admissible under any blend.
        # Criticalities live in the tracker's flat conn_crit vector, indexed by
        # connection id -- no per-connection dict probes in the search loop.
        tracker = None
        conn_crit: Optional[np.ndarray] = None
        cid_of: Optional[Dict[Tuple[int, int], int]] = None
        delay_arr = np.zeros(0, dtype=np.float64)
        if objective == "timing":
            from ..timing.sta import CriticalityTracker

            tracker = CriticalityTracker(
                netlist,
                placement,
                device,
                max_criticality=MAX_CRITICALITY,
                exponent=criticality_exponent,
            )
            conn_crit = tracker.initial_flat()
            cid_of = tracker.conn_index
            delay_arr = rr.node_delay_ns / device.arch.wire_hop_delay_ns

        src_of, sink_of = terminal_rr_nodes(netlist, placement, rr)
        nets = [
            (net.id, src_of[net.driver], [sink_of[s] for s in net.sinks])
            for net in netlist.nets
        ]
        # The compiled net loop when the native backend is available, the
        # pure-Python twin otherwise: bit-identical routes either way (see
        # repro.native.astar), so which one ran is unobservable in the result.
        nat = astar_kernel()
        if nat is not None:
            router: Any = _NativeNets(nat, rr, cap_arr, nets, cid_of, delay_arr)
        else:
            router = _PythonNets(rr, nets, cid_of, delay_arr)

    pres_fac = PRES_FAC_INIT
    iteration = 0
    success = False
    aborted = False
    # Convergence telemetry: plain list appends and clock reads at iteration
    # granularity -- never an FP input to the search, so trajectory-neutral.
    tl_overuse: List[int] = []
    tl_rerouted: List[int] = []
    tl_wall_ms: List[float] = []
    route_net = router.route_net
    next_congested = router.next_congested

    try:
        for iteration in range(1, max_iterations + 1):
            if deadline is not None:
                deadline.check(f"astar iteration {iteration}")
            it_t0 = time.perf_counter()
            rerouted = 0
            # The span covers the whole iteration (cost refresh included), the
            # same interval iteration_wall_ms records.
            with span("par.route.iteration", i=iteration):
                # Refresh the congestion cost vector for this iteration's
                # pres_fac and history; the net loop keeps the
                # occupancy-driven entries current as nets are routed.
                occ_arr = router.occupancy()
                base_hist = base_cost + history
                over_arr = occ_arr + 1 - cap_arr
                cost_arr = np.where(
                    over_arr > 0, base_hist * (1.0 + pres_fac * over_arr), base_hist
                )
                router.set_costs(cost_arr, base_hist, pres_fac, conn_crit)

                if iteration == 1:
                    rerouted = len(nets)
                    for k, (nid, _, _) in enumerate(nets):
                        if deadline is not None:
                            deadline.check(f"astar net {nid}")
                        route_net(k, False)
                else:
                    # Incremental re-route: only nets that occupy overused
                    # nodes, and within them only the congested connections.
                    # The overuse state is live, so a net already healed by
                    # an earlier re-route in this iteration is skipped and one
                    # newly congested is picked up.
                    k = next_congested(0)
                    while k >= 0:
                        if deadline is not None:
                            deadline.check(f"astar net {nets[k][0]}")
                        route_net(k, True)
                        rerouted += 1
                        k = next_congested(k + 1)

            overused = router.overused()
            tl_overuse.append(overused)
            tl_rerouted.append(rerouted)
            tl_wall_ms.append((time.perf_counter() - it_t0) * 1000.0)
            if not overused:
                success = True
                break
            if abort_hopeless and predict_failure(tl_overuse, max_iterations):
                aborted = True
                break
            router.add_history(history, cap_arr)
            pres_fac *= PRES_FAC_MULT
            if tracker is not None:
                # Re-time the current route trees on the flat forest: the next
                # iteration's re-routes price against fresh criticalities.
                conn_crit = tracker.update_flat(router.forest())

        telemetry = {
            "native": nat is not None,
            "overuse_per_iteration": tl_overuse,
            "rerouted_nets_per_iteration": tl_rerouted,
            "iteration_wall_ms": tl_wall_ms,
            "nodes_expanded": router.nodes_expanded(),
            "sta_retimes": tracker.updates if tracker is not None else 0,
        }
        with span("par.route.forest"):
            result = _assemble_result(
                rr,
                router.occupancy(),
                cap_arr,
                success,
                iteration,
                router.forest(),
                telemetry=telemetry,
            )
    finally:
        router.close()
    result.aborted = aborted
    return result


def _unreachable(net_id: int) -> RuntimeError:
    return RuntimeError(
        f"net {net_id} could not reach its sink; the device is too "
        "small or the channel width is insufficient even with "
        "congestion allowed"
    )


class _NativeNets:
    """The per-net half of PathFinder behind :func:`_route_astar`'s loop.

    Net ``k`` is the ``k``-th net of the netlist.  :meth:`route_net`
    routes all of a net's sinks, or with ``reroute`` rips up and re-routes
    only its congested connections, updating occupancy, the live
    congestion costs and the overuse state as it goes;
    :meth:`next_congested` finds the next net whose tree holds an overused
    node.  This one makes one compiled call per routed net
    (:mod:`repro.native.astar`); :class:`_PythonNets` is its twin.
    """

    def __init__(
        self,
        nat,
        rr: RRGraph,
        cap_arr: np.ndarray,
        nets: List[Tuple[int, int, List[int]]],
        cid_of: Optional[Dict[Tuple[int, int], int]],
        delay_arr: np.ndarray,
    ) -> None:
        self._nat = nat
        self._rr = rr
        self._net_ids = [nid for nid, _, _ in nets]
        self._occ = np.zeros(rr.num_nodes, dtype=np.int32)
        self._over = np.zeros(rr.num_nodes, dtype=np.uint8)
        self._stats = np.zeros(2, dtype=np.int64)
        self._delay = delay_arr
        self._routed = False
        counts = [len(sinks) for _, _, sinks in nets]
        sink_ptr = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(counts, out=sink_ptr[1:])
        flat = [t for _, _, sinks in nets for t in sinks]
        sources = np.array([src for _, src, _ in nets], dtype=np.int64)
        cids = None
        if cid_of is not None:
            cids = np.array(
                [cid_of.get((nid, t), -1) for nid, _, sinks in nets for t in sinks],
                dtype=np.int64,
            )
        # Nets are routed in netlist order but stored by ascending id.
        ids = np.array(self._net_ids, dtype=np.int32)
        self._order = np.argsort(ids, kind="stable").astype(np.int64)
        self._sorted_ids = ids[self._order]
        self._sorted_sources = sources[self._order].astype(np.int32)
        nat.bind_graph(rr, ASTAR_FAC, _PIN_FLOOR, BBOX_MARGIN)
        nat.bind_state(
            self._occ,
            cap_arr,
            self._over,
            self._stats,
            sources,
            sink_ptr,
            np.array(flat, dtype=np.int64),
            cids,
        )

    def set_costs(self, cost, base_hist, pres_fac, conn_crit) -> None:
        self._nat.set_costs(cost, base_hist, self._delay, conn_crit, pres_fac)

    def route_net(self, k: int, reroute: bool) -> None:
        rc = self._nat.route_net(k, reroute)
        if rc < 0:
            if rc == -3:
                raise MemoryError("native astar: scratch allocation failed")
            raise _unreachable(self._net_ids[k])
        self._routed = True

    def next_congested(self, start: int) -> int:
        return self._nat.next_congested(start)

    def occupancy(self) -> np.ndarray:
        return self._occ

    def overused(self) -> int:
        return int(self._stats[1])

    def add_history(self, history, cap) -> None:
        idx = np.flatnonzero(self._over)
        history[idx] += HIST_FAC * (self._occ[idx] - cap[idx])

    def nodes_expanded(self) -> int:
        return int(self._stats[0])

    def forest(self) -> RouteForest:
        if not self._routed:
            return build_route_forest([], self._rr)
        a = self._nat.export_forest(self._order)
        return RouteForest(
            num_rr_nodes=self._rr.num_nodes,
            net_id=self._sorted_ids,
            net_source=self._sorted_sources,
            conn_net=np.repeat(self._sorted_ids, np.diff(a["net_ptr"])),
            **a,
        )

    def close(self) -> None:
        self._nat.release()


class _PythonNets:
    """The pure-Python twin of :class:`_NativeNets`, with the same methods.

    It reads the graph through list mirrors built for each route call:
    the per-node search edges ``edge_dst[edge_ptr[n]:search_end[n]]`` as
    one list per node, and the flat CSR arrays for sink completion.
    """

    def __init__(
        self,
        rr: RRGraph,
        nets: List[Tuple[int, int, List[int]]],
        cid_of: Optional[Dict[Tuple[int, int], int]],
        delay_arr: np.ndarray,
    ) -> None:
        self._rr = rr
        num_nodes = rr.num_nodes
        xs, ys = rr.node_x.tolist(), rr.node_y.tolist()
        self._xs, self._ys, self._types = xs, ys, rr.node_type.tolist()
        self._cap = rr.node_capacity.tolist()
        ptr, dst = rr.edge_ptr.tolist(), rr.edge_dst.tolist()
        end = rr.search_end.tolist()
        self._edge_ptr, self._edge_dst, self._search_end = ptr, dst, end
        self._adj = [dst[ptr[n]:end[n]] for n in range(num_nodes)]
        self._occupancy = [0] * num_nodes
        self._visited = [0] * num_nodes
        self._csf = [0.0] * num_nodes
        self._prev = [-1] * num_nodes
        self._generation = 0
        self._expanded = [0]
        self._cid_of = cid_of
        self._delay_l: List[float] = delay_arr.tolist()
        self._conn_crit: Optional[np.ndarray] = None
        self._cost: List[float] = []
        self._bh: List[float] = []
        self._pres_fac = PRES_FAC_INIT
        # Live set of strictly-overused nodes, maintained by _bump(): the
        # congestion scans stay proportional to the overuse, never to the
        # graph, and see occupancy changes from earlier re-routes in the
        # same iteration (which is what makes the negotiation converge).
        self._over_now: Set[int] = set()

        self._nets = nets
        self._bbox: List[Tuple[int, int, int, int]] = []
        for _, source, sinks in nets:
            txs = [xs[source]] + [xs[t] for t in sinks]
            tys = [ys[source]] + [ys[t] for t in sinks]
            self._bbox.append(
                (
                    min(txs) - BBOX_MARGIN,
                    max(txs) + BBOX_MARGIN,
                    min(tys) - BBOX_MARGIN,
                    max(tys) + BBOX_MARGIN,
                )
            )
        # Per-net route trees are kept as ordered *connections* -- one
        # ``(target, path, attach)`` triple per sink, where ``path`` lists the
        # nodes this connection added to the tree (target first) and
        # ``attach`` is the existing tree node the path grew from.  A
        # duplicate sink (two net pins on one block) is ``(target, [], target)``.
        self._conns: Dict[int, List[Tuple[int, List[int], int]]] = {}
        # Live per-net forest fragments, emitted connection-by-connection as
        # the router backtraces, and each net's node -> local-position map
        # (whose keys are the net's tree nodes): forest() freezes the
        # fragments written since its last call and assembles them all.
        self._frag: Dict[int, _NetFragment] = {}
        self._frag_pos: Dict[int, Dict[int, int]] = {}
        self._unfrozen: Set[int] = set()

    def set_costs(self, cost, base_hist, pres_fac, conn_crit) -> None:
        self._cost = cost.tolist()
        self._bh = base_hist.tolist()
        self._pres_fac = pres_fac
        self._conn_crit = conn_crit

    def occupancy(self) -> np.ndarray:
        return np.asarray(self._occupancy, dtype=np.int32)

    def overused(self) -> int:
        return len(self._over_now)

    def add_history(self, history, cap) -> None:
        occupancy, cap_l = self._occupancy, self._cap
        for n in self._over_now:
            history[n] += HIST_FAC * (occupancy[n] - cap_l[n])

    def nodes_expanded(self) -> int:
        return self._expanded[0]

    def forest(self) -> RouteForest:
        for nid in self._unfrozen:
            self._frag[nid].freeze()
        self._unfrozen.clear()
        return build_route_forest(sorted(self._frag.items()), self._rr)

    def close(self) -> None:
        """Nothing to free: the twin's state is ordinary Python objects."""

    def next_congested(self, start: int) -> int:
        over_now = self._over_now
        for k in range(start, len(self._nets)):
            if not over_now.isdisjoint(self._frag_pos[self._nets[k][0]]):
                return k
        return -1

    def _bump(self, n: int, d: int) -> None:
        occupancy = self._occupancy
        occupancy[n] += d
        over = occupancy[n] + 1 - self._cap[n]
        if over > 0:
            self._cost[n] = self._bh[n] * (1.0 + self._pres_fac * over)
            if over > 1:
                self._over_now.add(n)
            elif d < 0:
                self._over_now.discard(n)
        else:
            self._cost[n] = self._bh[n]
            if d < 0:
                self._over_now.discard(n)

    def route_net(self, k: int, reroute: bool) -> None:
        net_id, source, sinks = self._nets[k]
        if reroute:
            self._reroute_net(k)
            return
        tree: List[int] = [source]
        tree_set: Set[int] = {source}
        # Route sinks farthest-first (VPR heuristic).
        xs, ys = self._xs, self._ys
        sx, sy = xs[source], ys[source]
        order = sorted(sinks, key=lambda t: -(abs(xs[t] - sx) + abs(ys[t] - sy)))
        conns: List[Tuple[int, List[int], int]] = []
        self._conns[net_id] = conns
        self._frag[net_id] = _NetFragment(source)
        self._frag_pos[net_id] = {source: -1}
        self._unfrozen.add(net_id)
        self._route_connections(k, order, tree, tree_set, conns)

    def _reroute_net(self, k: int) -> None:
        """Rip up and re-route only the congested connections of one net.

        A connection is ripped when its own nodes are overused or when it
        attaches to (or targets) a node owned by a ripped earlier connection;
        connections are stored in route order, so one forward scan closes the
        dependency chain.
        """
        net_id, source, _ = self._nets[k]
        over_now = self._over_now
        kept: List[Tuple[int, List[int], int]] = []
        ripped: List[Tuple[int, List[int], int]] = []
        ripped_nodes: Set[int] = set()
        for conn in self._conns[net_id]:
            target, path, attach = conn
            usage = path if path else [target]
            if (
                attach in ripped_nodes
                or target in ripped_nodes
                or not over_now.isdisjoint(usage)
            ):
                ripped.append(conn)
                ripped_nodes.update(usage)
            else:
                kept.append(conn)
        if not ripped:
            return
        for target, path, _ in ripped:
            for n in (path if path else [target]):
                self._bump(n, -1)
        tree = [source]
        tree_set = {source}
        for _, path, _ in kept:
            for n in path:
                tree.append(n)
                tree_set.add(n)
        # Restart the net's live fragment from the kept connections; the
        # re-routed ones are appended by _route_connections as they land.
        frag = _NetFragment(source)
        pos_of: Dict[int, int] = {source: -1}
        for target, path, attach in kept:
            _append_conn(frag, pos_of, target, path, attach)
        self._frag[net_id] = frag
        self._frag_pos[net_id] = pos_of
        self._unfrozen.add(net_id)
        new_conns: List[Tuple[int, List[int], int]] = []
        self._route_connections(k, [c[0] for c in ripped], tree, tree_set, new_conns)
        self._conns[net_id] = kept + new_conns

    def _route_connections(
        self,
        k: int,
        order: List[int],
        tree: List[int],
        tree_set: Set[int],
        conns: List[Tuple[int, List[int], int]],
    ) -> None:
        net_id = self._nets[k][0]
        frag = self._frag[net_id]
        pos_of = self._frag_pos[net_id]
        # A too-tight box can starve a congested net of detour room;
        # escalate to the net terminal box and then the whole device
        # before giving up.
        escalation = (self._bbox[k], _FULL_BOUNDS)
        bump = self._bump
        prev_node = self._prev
        for target in order:
            if target in tree_set:
                bump(target, 1)
                conns.append((target, [], target))
                _append_conn(frag, pos_of, target, [], target)
                continue
            crt = 0.0
            if self._cid_of is not None:
                cid = self._cid_of.get((net_id, target))
                if cid is not None:
                    crt = float(self._conn_crit[cid])
            for box in escalation:
                self._generation += 1
                if self._search(target, tree, self._generation, box, ASTAR_FAC, crt):
                    break
            else:
                raise _unreachable(net_id)
            # Backtrace and merge the new path into the route tree.
            path = []
            n = target
            while n not in tree_set:
                path.append(n)
                n = prev_node[n]
            for p in path:
                tree_set.add(p)
                tree.append(p)
                bump(p, 1)
            conns.append((target, path, n))
            _append_conn(frag, pos_of, target, path, n)

    def _search(
        self,
        target: int,
        tree: List[int],
        gen: int,
        bounds: Tuple[int, int, int, int],
        fac: float,
        crt: float = 0.0,
    ) -> bool:
        """One directed wavefront from the route tree to ``target``.

        ``crt`` is the connection's criticality under the timing objective
        (0.0 in wirelength mode): every node cost blends to
        ``(1-crt) * congestion + crt * delay``.
        """
        # Bind the hot attributes as locals: the expansion loop below runs
        # millions of times per route and LOAD_FAST is measurably cheaper.
        xs_l, ys_l, adj_l, cost_l = self._xs, self._ys, self._adj, self._cost
        visited_l, csf_l, prev_l = self._visited, self._csf, self._prev
        types = self._types
        push, pop = heapq.heappush, heapq.heappop
        exp_l = self._expanded
        dly_l = self._delay_l
        IPIN, SINK = RRNodeType.IPIN, RRNodeType.SINK
        omc = 1.0 - crt
        pf = _PIN_FLOOR if crt == 0.0 else omc * _PIN_FLOOR
        xlo, xhi, ylo, yhi = bounds
        tx, ty = xs_l[target], ys_l[target]
        ptr_l, dst_l, end_l = self._edge_ptr, self._edge_dst, self._search_end
        t_cost = cost_l[target]
        if crt:
            t_cost = omc * t_cost + crt * dly_l[target]
        best = float("inf")  # cheapest known completion through an input pin
        heap: List[Tuple[float, float, int]] = []

        def complete(w: int, g_w: float) -> None:
            """Finish target <- ipin <- ``w`` through the cheapest of ``w``'s
            pin edges whose input pin's one out-edge is the target (the
            lowest pin id on equal cost)."""
            nonlocal best
            ip = -1
            c = 0.0
            for q in dst_l[end_l[w]:ptr_l[w + 1]]:
                qe = ptr_l[q]
                if qe == ptr_l[q + 1] or dst_l[qe] != target:
                    continue
                cq = cost_l[q]
                if crt:
                    cq = omc * cq + crt * dly_l[q]
                if ip < 0 or cq < c or (cq == c and q < ip):
                    ip, c = q, cq
            if ip < 0:
                return
            total = g_w + c + t_cost
            if total < best - 1e-12:
                best = total
                visited_l[target] = gen
                csf_l[target] = total
                prev_l[target] = ip
                visited_l[ip] = gen
                csf_l[ip] = g_w + c
                prev_l[ip] = w

        # The route tree is seeded lazily: candidates are sorted by lookahead
        # and enter the heap only once the frontier's f reaches their h --
        # most tree nodes of a big net are far from the target and never get
        # pushed at all.  (A candidate the wavefront reaches before its seed
        # turn is simply re-relaxed to cost 0 when the turn comes.)
        seed_list: List[Tuple[float, int]] = []
        for n in tree:
            tt = types[n]
            if tt == IPIN or tt == SINK:
                continue  # no search edges
            x = xs_l[n]
            y = ys_l[n]
            if x < xlo or x > xhi or y < ylo or y > yhi:
                continue  # outside the search box: its expansions would be too
            dx = x - tx
            dy = y - ty
            if dx < 0:
                dx = -dx
            if dy < 0:
                dy = -dy
            if dx + dy <= 1:
                complete(n, 0.0)
            seed_list.append(((dx + dy) * fac, n))
        seed_list.sort()
        si = 0
        nseeds = len(seed_list)
        while True:
            if si < nseeds and (not heap or seed_list[si][0] <= heap[0][0]):
                f, n = seed_list[si]
                si += 1
                g = 0.0
                visited_l[n] = gen
                csf_l[n] = 0.0
                prev_l[n] = -1
            elif heap:
                f, g, n = pop(heap)
                if g > csf_l[n] + 1e-12:
                    continue  # stale heap entry
            else:
                break
            while True:
                if f >= best:
                    # The lookahead is admissible, so neither this node nor
                    # anything left in the heap can beat the completion
                    # already found: the recorded backtrace is final.
                    return True
                exp_l[0] += 1  # node expanded: its adjacency is scanned
                # Expand n; the cheapest improved neighbor is chased inline
                # (no heap round-trip) while it is at least as good as the
                # current heap top -- on straight corridors this removes the
                # push/pop pair for almost every hop.  Pushes are pruned with
                # two bounds: the weighted heap key ``f_m`` and the strictly
                # admissible ``g + dist + pin floor``, which becomes tight as
                # soon as a completion is known and cuts the cross-track tie
                # plateau at its root.
                chase_f = float("inf")
                chase_g = 0.0
                chase_m = -1
                for m in adj_l[n]:
                    cm = cost_l[m]
                    if crt:
                        cm = omc * cm + crt * dly_l[m]
                    new_cost = g + cm
                    if visited_l[m] == gen and new_cost >= csf_l[m] - 1e-12:
                        continue  # already reached at least as cheaply
                    x = xs_l[m]
                    if x < xlo or x > xhi:
                        continue
                    y = ys_l[m]
                    if y < ylo or y > yhi:
                        continue
                    dx = x - tx
                    dy = y - ty
                    if dx < 0:
                        dx = -dx
                    if dy < 0:
                        dy = -dy
                    d = dx + dy
                    if d <= 1:
                        # Candidate entry wire: record it, then complete
                        # through it immediately so the bound is primed
                        # long before the wavefront reaches the target.
                        visited_l[m] = gen
                        csf_l[m] = new_cost
                        prev_l[m] = n
                        complete(m, new_cost)
                        f_m = new_cost + d * fac
                        if new_cost + d + pf >= best or f_m >= best:
                            continue
                    else:
                        f_m = new_cost + d * fac
                        if f_m >= best or new_cost + d + pf >= best:
                            continue  # cannot beat the known completion
                        visited_l[m] = gen
                        csf_l[m] = new_cost
                        prev_l[m] = n
                    if f_m < chase_f:
                        if chase_m >= 0:
                            push(heap, (chase_f, chase_g, chase_m))
                        chase_f, chase_g, chase_m = f_m, new_cost, m
                    else:
                        push(heap, (f_m, new_cost, m))
                if chase_m < 0:
                    break
                if (heap and heap[0][0] < chase_f) or (
                    si < nseeds and seed_list[si][0] < chase_f
                ):
                    # Something cheaper waits in the heap or the seed stream:
                    # defer the candidate to keep the expansion in f-order.
                    push(heap, (chase_f, chase_g, chase_m))
                    break
                f, g, n = chase_f, chase_g, chase_m
        return best < float("inf")


def _assemble_result(
    rr: RRGraph,
    occupancy: np.ndarray,
    capacity: np.ndarray,
    success: bool,
    iteration: int,
    forest: RouteForest,
    telemetry: Optional[Dict[str, Any]] = None,
) -> RoutingResult:
    wire_mask = rr.wire_mask()
    wirelength = forest.wirelength(wire_mask)
    max_chan_occ = int(occupancy[wire_mask].max()) if wire_mask.any() else 0
    if telemetry is not None:
        # One registry merge per route call (see repro.obs.metrics): the
        # process-wide counters aggregate across calls, while the telemetry
        # dict on the result stays per-run.
        obs_metrics.merge(
            {
                "route.calls": 1,
                "route.iterations": iteration,
                "route.nodes_expanded": telemetry.get("nodes_expanded", 0),
                "route.rerouted_nets": sum(
                    telemetry.get("rerouted_nets_per_iteration", ())
                ),
            }
        )
    return RoutingResult(
        success=success,
        iterations=iteration,
        wirelength=wirelength,
        overused_nodes=int(np.count_nonzero(occupancy > capacity)),
        max_channel_occupancy=max_chan_occ,
        forest=forest,
        telemetry=telemetry,
    )


def routing_to_payload(result: RoutingResult) -> Dict[str, object]:
    """JSON-serializable routing result.

    The route trees ride along as the flat forest's int lists, so a
    :class:`~repro.par.cache.PaRCache` hit can re-hydrate the full result
    (see :func:`routing_from_payload`) instead of re-routing.
    """
    return {
        "success": result.success,
        "iterations": result.iterations,
        "wirelength": result.wirelength,
        "overused_nodes": result.overused_nodes,
        "max_channel_occupancy": result.max_channel_occupancy,
        "forest": result.forest.to_payload(),
    }


def routing_from_payload(payload: Dict[str, object]) -> Optional[RoutingResult]:
    """Re-hydrate a :class:`RoutingResult` from a cached payload.

    Returns ``None`` when the payload predates route-forest serialization
    or fails validation -- callers treat that as a cache miss.
    """
    raw = payload.get("forest")
    if raw is None:
        return None
    try:
        forest = RouteForest.from_payload(raw)
        return RoutingResult(
            success=bool(payload["success"]),
            iterations=int(payload["iterations"]),
            wirelength=int(payload["wirelength"]),
            overused_nodes=int(payload["overused_nodes"]),
            max_channel_occupancy=int(payload["max_channel_occupancy"]),
            forest=forest,
        )
    except (KeyError, TypeError, ValueError):
        return None
