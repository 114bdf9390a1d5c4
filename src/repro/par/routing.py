"""TROUTE: PathFinder negotiated-congestion routing.

Re-implementation of the VPR/TPaR router: every net is routed over the
routing-resource graph with an A*-guided Dijkstra search; congestion is
resolved by iteratively re-routing nets through overused nodes while the
present-congestion penalty grows and a history cost accumulates (PathFinder).

Two search kernels live behind :func:`route` (plus the opt-in
``objective="timing"`` that blends STA criticalities into the astar
kernel's costs -- see :func:`route`):

* ``kernel="astar"`` (the default) -- scalar directed search over
  the pin-filtered search view.  The wavefront expands over
  SOURCE/OPIN/CHANX/CHANY nodes only; input pins and sinks are reached
  through precomputed per-sink *entry maps* instead of being flooded,
  every expansion is pruned to the net's terminal bounding box (with a
  full-graph retry on the rare in-box failure), and the heap is keyed on
  ``cost + lookahead`` where the lookahead is the admissible Manhattan
  bound built from the precomputed RR-node coordinates.  Re-routing is
  incremental at *connection* granularity: after the first iteration only
  the congested connections of congested nets (plus the branches that hang
  off them) are ripped up and re-routed; untouched branches keep their
  paths across iterations.  The expansion loop runs as compiled C when the
  native backend is available (:mod:`repro.native.astar`, bit-identical
  routes) and as the pure-Python twin otherwise.
* ``kernel="fast"`` -- the first reworked kernel and the degradation target of
  :func:`route_resilient`: same congestion cost vector and incremental
  re-routing, but the wavefront floods pins and is not bbox-pruned.

``fast`` performs the floating-point operations of the original
per-edge ``node_cost()`` router in the same order, so it returns that
router's routes exactly; the original is kept as a test oracle in
``tests/oracles.py``.  ``astar`` trades that bit-identity for throughput;
its route quality is re-baselined in ``benchmarks/bench_hotpaths.py``
(wirelength within a few percent of the reference route).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

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
    "DEGRADATION_CHAIN",
    "NetRoute",
    "terminal_rr_nodes",
    "routing_to_payload",
    "routing_from_payload",
]


@dataclass
class NetRoute:
    """Route tree of one net: all RR nodes used (including pins and wires)."""

    net_id: int
    nodes: List[int] = field(default_factory=list)
    #: ordered per-sink connections ``(sink_rr, path, attach)`` as the
    #: astar kernel builds them -- ``path`` lists the nodes the
    #: connection added (sink first), ``attach`` is the tree node it grew
    #: from.  The STA engine walks these for exact per-sink delays; kernels
    #: that do not track connections (``fast``) leave it ``None`` and
    #: the engine falls back to a BFS over the tree's nodes.
    connections: Optional[List[Tuple[int, List[int], int]]] = None

    def wire_nodes(self, rr: RRGraph) -> List[int]:
        return [n for n in self.nodes if rr.is_wire(n)]


@dataclass
class RoutingResult:
    """Outcome of the routing step."""

    routes: Dict[int, NetRoute]
    success: bool
    iterations: int
    wirelength: int
    overused_nodes: int
    max_channel_occupancy: int
    #: flat route forest over all nets' trees (the astar kernel emits
    #: one natively; ``None`` from the ``fast`` kernel).  The STA
    #: engine consumes it with pure NumPy gathers, and the PaR cache
    #: serializes it so cache hits re-hydrate routes instead of re-routing.
    forest: Optional[RouteForest] = None
    #: the kernel that actually produced this result;
    #: :func:`route_resilient` may return a different kernel than requested
    #: (degradation chain), and the cache layer refuses to store such
    #: results.  ``None`` on re-hydrated payloads that predate the field.
    kernel: Optional[str] = None
    #: per-run observability snapshot (see OBSERVABILITY.md): convergence
    #: timelines (``overuse_per_iteration``, ``rerouted_nets_per_iteration``,
    #: ``iteration_wall_ms``) plus kernel counters (``nodes_expanded``,
    #: ``sta_retimes``).  Excluded from equality -- wall times differ run to
    #: run while the routes stay bit-identical -- and deliberately *not*
    #: serialized into cache payloads (artifacts stay telemetry-free, so
    #: ``ROUTE_ALGO_VERSION`` is unaffected); re-hydrated results carry
    #: ``{"from_cache": True}`` instead.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        status = "routable" if self.success else "CONGESTED"
        return (
            f"{status} after {self.iterations} iteration(s); "
            f"wirelength={self.wirelength}, peak channel occupancy="
            f"{self.max_channel_occupancy}, overused nodes={self.overused_nodes}"
        )


# The cost model lives next to the RR graph so the search view can bake the
# base-cost vector into its flat arrays; this module remains its one consumer.
_BASE_COST = RR_BASE_COST

#: Admissible floor of the cost still to pay after the last wire of a path:
#: one IPIN plus one SINK at base cost (congestion only ever adds to it).
#: Folding it into the A* lookahead makes the bound nearly tight, which
#: collapses the otherwise-huge tie plateau across the W parallel track grids.
#: Under the timing objective the floor scales by ``1 - criticality``: only
#: the congestion share of the blended cost is bounded below by the base
#: costs, while the delay share of a pin can be arbitrarily small.
_PIN_FLOOR = _BASE_COST[RRNodeType.IPIN] + _BASE_COST[RRNodeType.SINK]

#: PathFinder schedule.  The present-congestion factor starts at the kernel's
#: ``PRES_FAC_INIT`` (``fast`` keeps the seed trajectory's 0.6) and grows by
#: ``PRES_FAC_MULT`` per iteration; each unit of overuse adds ``HIST_FAC`` to
#: a node's history cost; ``ASTAR_FAC`` weights the Manhattan lookahead.
PRES_FAC_INIT = {"astar": 1.0, "fast": 0.6}
PRES_FAC_MULT = 1.8
HIST_FAC = 0.4
ASTAR_FAC = 1.1
#: Expansion margin of the astar kernel's per-net search bounding box.
BBOX_MARGIN = 3
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


def _base_cost_array(rr: RRGraph) -> np.ndarray:
    base_cost = np.empty(rr.num_nodes, dtype=np.float64)
    for t, c in _BASE_COST.items():
        base_cost[rr.node_type == t] = c
    return base_cost


def route(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    kernel: str = "astar",
    objective: str = "wirelength",
    criticality_exponent: float = 1.0,
    deadline: Optional[Deadline] = None,
) -> RoutingResult:
    """Route all nets of a placed netlist on the device's RR graph.

    ``kernel`` selects the search implementation (see module docstring):
    ``astar`` (the default), whose expansion loop runs as compiled C when
    the native backend is available (:mod:`repro.native`, bit-identical
    routes) and as the pure Python twin otherwise, or ``fast``, the
    degradation target of :func:`route_resilient`.  Any other value raises
    ``ValueError``.  The PathFinder schedule is fixed per kernel (see
    :data:`PRES_FAC_INIT` and the constants next to it).

    ``objective="timing"`` (``astar`` only) switches the
    connection searches to the VPR-style timing-driven cost
    ``crit * delay + (1 - crit) * congestion``: per-connection
    criticalities start from a placement-distance STA estimate and are
    refreshed from the actual route trees after every PathFinder iteration
    (:class:`repro.timing.sta.CriticalityTracker`).  Delays are normalized
    by the architecture's unit-wire hop delay, so a unit wire costs exactly
    1.0 under any blend and the Manhattan lookahead stays admissible.
    :data:`MAX_CRITICALITY` keeps every connection paying a slice of the
    congestion cost; ``criticality_exponent`` sharpens the blend.

    ``deadline`` bounds the route's wall time: every kernel polls it at
    PathFinder-iteration granularity (and inside long first iterations)
    and raises :class:`~repro.util.resilience.DeadlineExceeded` when it
    expires.  The check is a clock read per poll point -- it never changes
    the search trajectory, so results under a generous deadline are
    bit-identical to unbounded ones.
    """
    if kernel not in ("astar", "fast"):
        raise ValueError(f"unknown routing kernel {kernel!r}")
    if objective not in ("wirelength", "timing"):
        raise ValueError(f"unknown routing objective {objective!r}")
    if objective == "timing" and kernel != "astar":
        raise ValueError(f"objective='timing' requires the astar kernel, not {kernel!r}")
    with span("par.route", kernel=kernel, objective=objective, nets=len(netlist.nets)):
        if kernel == "astar":
            result = _route_astar(
                netlist, placement, device,
                max_iterations=max_iterations,
                objective=objective,
                criticality_exponent=criticality_exponent,
                deadline=deadline,
            )
        else:
            result = _route_fast(
                netlist, placement, device,
                max_iterations=max_iterations,
                deadline=deadline,
            )
    result.kernel = kernel
    if result.telemetry is not None:
        # Convergence timelines land in the trace (no-ops when disabled);
        # the arrays themselves stay on the result for PaRResult.telemetry.
        emit_series(
            "route.overuse", result.telemetry.get("overuse_per_iteration", ()),
            kernel=kernel,
        )
    return result


#: Kernel fallback order of :func:`route_resilient`: quality-first to
#: cheapest.  A degraded attempt starts at the requested kernel's position
#: and walks right, so a ``fast`` request has nowhere left to degrade to.
DEGRADATION_CHAIN: Tuple[str, ...] = ("astar", "fast")


def route_resilient(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    kernel: str = "astar",
    objective: str = "wirelength",
    deadline_s: Optional[float] = None,
    events: Optional[List[Dict[str, object]]] = None,
    degrade: bool = True,
    **route_kwargs,
) -> RoutingResult:
    """:func:`route` with a per-kernel deadline and a degradation chain.

    Each attempt gets a fresh :class:`~repro.util.resilience.Deadline` of
    ``deadline_s`` seconds.  When a kernel times out, crashes, or fails to
    converge within ``max_iterations``, the next kernel in
    :data:`DEGRADATION_CHAIN` (from the requested kernel's position) is
    tried, and the switch is recorded as a ``degraded-kernel`` event in
    ``events``.  The ``fast`` kernel cannot price timing costs, so a
    timing-objective route that degrades to it also degrades the objective
    to ``wirelength`` (recorded on the event).

    On a fault-free run this is exactly one :func:`route` call -- same
    arguments, same trajectory, bit-identical result -- so callers can
    adopt it unconditionally.  ``degrade=False`` keeps the deadline and
    event reporting but re-raises instead of walking the chain.

    Raises the final attempt's error when every kernel in the chain fails
    outright; returns the last non-converged result (``success=False``)
    when kernels complete but congestion never resolves.
    """
    if kernel in DEGRADATION_CHAIN and degrade:
        chain = DEGRADATION_CHAIN[DEGRADATION_CHAIN.index(kernel):]
    else:
        chain = (kernel,)

    last_result: Optional[RoutingResult] = None
    last_error: Optional[BaseException] = None
    for attempt, attempt_kernel in enumerate(chain):
        eff_objective = objective
        if objective == "timing" and attempt_kernel != "astar":
            eff_objective = "wirelength"
        fault = inject("route.kernel")
        try:
            if fault == "timeout":
                raise DeadlineExceeded(
                    f"injected kernel timeout ({attempt_kernel})"
                )
            if fault is not None:
                raise FaultInjected("route.kernel", kind=fault)
            result = route(
                netlist, placement, device,
                max_iterations=max_iterations,
                kernel=attempt_kernel,
                objective=eff_objective,
                deadline=Deadline(deadline_s),
                **route_kwargs,
            )
        except DeadlineExceeded as exc:
            record_event(events, "kernel-deadline", site="route.kernel",
                         kernel=attempt_kernel, deadline_s=deadline_s,
                         error=str(exc))
            last_error = exc
            continue
        except (FaultInjected, RuntimeError) as exc:
            record_event(events, "kernel-error", site="route.kernel",
                         kernel=attempt_kernel,
                         error=f"{type(exc).__name__}: {exc}")
            last_error = exc
            continue
        if attempt > 0:
            record_event(
                events, "degraded-kernel", site="route.kernel",
                requested=chain[0], kernel=attempt_kernel,
                objective=eff_objective,
                objective_degraded=eff_objective != objective,
            )
        if result.success:
            if result.forest is None:
                # The fast kernel skips the forest build so its
                # benchmark timings stay honest; the resilient path
                # is not timed against it, and downstream consumers
                # (STA, cached-route serialization) expect every converged
                # resilient result to carry one.
                result.forest = build_route_forest(result.routes, device.rr_graph)
            return result
        record_event(events, "kernel-nonconverged", site="route.kernel",
                     kernel=attempt_kernel, iterations=result.iterations,
                     overused_nodes=result.overused_nodes)
        if last_result is None:
            # Keep the *requested* kernel's non-converged result: when the
            # whole chain fails to converge, the caller sees exactly what a
            # plain route() would have returned, with the extra attempts
            # visible only in the events.
            last_result = result
    if last_result is not None:
        return last_result
    assert last_error is not None
    raise last_error


def _route_astar(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    objective: str = "wirelength",
    criticality_exponent: float = 1.0,
    deadline: Optional[Deadline] = None,
) -> RoutingResult:
    """Directed incremental PathFinder over the pin-filtered search view."""
    rr = device.rr_graph
    num_nodes = rr.num_nodes
    view = rr.search_view()

    base_cost = view.base_cost
    cap_arr = rr.node_capacity.astype(np.int32)
    history = np.zeros(num_nodes, dtype=np.float64)

    # Timing objective: per-connection criticalities blend a normalized
    # delay cost into the congestion cost (crit * delay + (1-crit) * cong).
    # The normalization makes a unit wire cost exactly 1.0 in delay terms,
    # so the Manhattan lookahead below stays admissible under any blend.
    # Criticalities live in the tracker's flat conn_crit vector, indexed by
    # connection id (resolved once per sink below) -- no per-connection
    # dict probes in the search loop, no dict rebuild per iteration.
    timing_mode = objective == "timing"
    if timing_mode:
        from ..timing.sta import CriticalityTracker

        tracker = CriticalityTracker(
            netlist, placement, device,
            max_criticality=MAX_CRITICALITY, exponent=criticality_exponent,
        )
        conn_crit = tracker.initial_flat()
        cid_of = tracker.conn_index
        delay_arr: np.ndarray = view.delay_ns / device.arch.wire_hop_delay_ns
        delay_l: List[float] = delay_arr.tolist()
    else:
        tracker = None
        conn_crit = None
        cid_of = {}
        delay_arr = np.zeros(0, dtype=np.float64)
        delay_l = []

    xs, ys = view.xs, view.ys
    types = view.types
    cap = view.capacity
    entries_of = view.entries_of
    occupancy = [0] * num_nodes

    src_of, sink_of = terminal_rr_nodes(netlist, placement, rr)

    routes: Dict[int, NetRoute] = {}
    net_terms: Dict[int, Tuple[int, List[int]]] = {}
    net_bbox: Dict[int, Tuple[int, int, int, int]] = {}
    for net in netlist.nets:
        source = src_of[net.driver]
        sinks = [sink_of[s] for s in net.sinks]
        net_terms[net.id] = (source, sinks)
        txs = [xs[source]] + [xs[t] for t in sinks]
        tys = [ys[source]] + [ys[t] for t in sinks]
        net_bbox[net.id] = (
            min(txs) - BBOX_MARGIN, max(txs) + BBOX_MARGIN,
            min(tys) - BBOX_MARGIN, max(tys) + BBOX_MARGIN,
        )
    full_bounds = (-(1 << 30), 1 << 30, -(1 << 30), 1 << 30)

    generation = 0

    IPIN = RRNodeType.IPIN
    SINK = RRNodeType.SINK
    CHANX = RRNodeType.CHANX
    CHANY = RRNodeType.CHANY
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Native backend: the compiled expansion loop reads the search view's
    # CSR directly and keeps the per-search visited/cost/prev planes in
    # int64/float64 arrays it shares with this function.  It is a
    # bit-identical twin of the _search closure below (same routes, same
    # trajectories -- see repro.native.astar), so which backend ran is
    # unobservable in the result.  None -> pure-Python kernels.
    nat = astar_kernel()
    # Nodes-expanded counter: the native kernel accumulates into the int64
    # out-param array, the Python twin into the one-slot list cell -- same
    # definition (one count per adjacency scan), integer-only either way.
    nat_stats = np.zeros(1, dtype=np.int64)
    py_expanded = [0]
    if nat is not None:
        adj: List[List[int]] = []       # Python-twin mirror, never built here
        visited_gen: List[int] = []     # unused; the arrays below replace them
        cost_so_far: List[float] = []
        prev_node: List[int] = []
        nat_visited = np.zeros(num_nodes, dtype=np.int64)
        nat_csf = np.zeros(num_nodes, dtype=np.float64)
        nat_prev = np.full(num_nodes, -1, dtype=np.int64)
        nat_tree_mark = np.zeros(num_nodes, dtype=np.int64)
        nat_out = np.empty(num_nodes + 1, dtype=np.int64)
        nat_ntype = np.ascontiguousarray(rr.node_type, dtype=np.int8)
        nat.bind(
            view.csr_ptr, view.csr_dst, view.xs_arr, view.ys_arr, nat_ntype,
            int(IPIN), int(SINK), nat_visited, nat_csf, nat_prev,
            nat_tree_mark, ASTAR_FAC, _PIN_FLOOR, nat_stats,
        )
        entry_csr = view.entry_csr
    else:
        adj = view.adj_search
        visited_gen = [0] * num_nodes
        cost_so_far = [0.0] * num_nodes
        prev_node = [-1] * num_nodes

    bh: List[float] = []
    cost: List[float] = []
    pres_fac = PRES_FAC_INIT["astar"]
    # Live set of strictly-overused nodes, maintained by bump(): the
    # congestion scans below stay proportional to the overuse, never to the
    # graph, and see occupancy changes from earlier re-routes in the same
    # iteration (which is what makes the negotiation converge).
    over_now: Set[int] = set()

    def bump(n: int, d: int) -> None:
        occupancy[n] += d
        over = occupancy[n] + 1 - cap[n]
        if over > 0:
            cost[n] = bh[n] * (1.0 + pres_fac * over)
            if over > 1:
                over_now.add(n)
            elif d < 0:
                over_now.discard(n)
        else:
            cost[n] = bh[n]
            if d < 0:
                over_now.discard(n)

    def _search(
        target: int, tree: List[int], gen: int,
        bounds: Tuple[int, int, int, int], fac: float, crt: float = 0.0,
    ) -> bool:
        """One directed wavefront from the route tree to ``target``.

        ``crt`` is the connection's criticality under the timing objective
        (0.0 in wirelength mode): every node cost blends to
        ``(1-crt) * congestion + crt * delay``.
        """
        # Bind the hot closure variables as locals: the expansion loop below
        # runs millions of times per route and LOAD_FAST is measurably
        # cheaper than LOAD_DEREF.
        xs_l, ys_l, adj_l, cost_l = xs, ys, adj, cost
        visited_l, csf_l, prev_l = visited_gen, cost_so_far, prev_node
        push, pop = heappush, heappop
        exp_l = py_expanded
        dly_l = delay_l
        omc = 1.0 - crt
        pf = _PIN_FLOOR if crt == 0.0 else omc * _PIN_FLOOR
        xlo, xhi, ylo, yhi = bounds
        tx, ty = xs_l[target], ys_l[target]
        entry_get = entries_of(target).get
        t_cost = cost_l[target]
        if crt:
            t_cost = omc * t_cost + crt * dly_l[target]
        best = float("inf")  # cheapest known completion through the entry map
        heap: List[Tuple[float, float, int]] = []

        def complete(w: int, g_w: float) -> None:
            """Finish target <- ipin <- ``w`` through the cheapest input pin."""
            nonlocal best
            ips = entry_get(w)
            if ips is None:
                return
            if crt:
                ip = ips[0]
                c = omc * cost_l[ip] + crt * dly_l[ip]
                for q in ips[1:]:
                    cq = omc * cost_l[q] + crt * dly_l[q]
                    if cq < c:
                        ip, c = q, cq
            else:
                ip = ips[0]
                c = cost_l[ip]
                for q in ips[1:]:
                    if cost_l[q] < c:
                        ip, c = q, cost_l[q]
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
                continue  # dead ends in the filtered view
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

    # Per-net route trees are kept as ordered *connections* -- one
    # ``(target, path, attach)`` triple per sink, where ``path`` lists the
    # nodes this connection added to the tree (target first) and ``attach``
    # is the existing tree node the path grew from.  A duplicate sink (two
    # net pins on one block) is recorded as ``(target, [], target)``.
    net_conns: Dict[int, List[Tuple[int, List[int], int]]] = {}

    # Live per-net forest fragments, emitted connection-by-connection as the
    # router backtraces (native and Python paths alike): the flat forest and
    # the re-time loop never rebuild a fragment from a net's connection list
    # again -- _sync_frags below just freezes what routing already wrote.
    frag_of: Dict[int, _NetFragment] = {}
    frag_pos: Dict[int, Dict[int, int]] = {}

    def _sync_frags(cache: Dict) -> None:
        for nid, r in routes.items():
            entry = cache.get(nid)
            if entry is None or entry[0] is not r:
                cache[nid] = (r, frag_of[nid].freeze())

    def _route_connections(
        net_id: int,
        order: List[int],
        tree: List[int],
        tree_set: Set[int],
        conns: List[Tuple[int, List[int], int]],
    ) -> None:
        nonlocal generation
        if deadline is not None:
            deadline.check(f"astar net {net_id}")
        frag = frag_of[net_id]
        pos_of = frag_pos[net_id]
        escalation = (net_bbox[net_id], full_bounds)
        for target in order:
            if target in tree_set:
                bump(target, 1)
                conns.append((target, [], target))
                _append_conn(frag, pos_of, target, [], target)
                continue
            if timing_mode:
                cid = cid_of.get((net_id, target))
                crt = float(conn_crit[cid]) if cid is not None else 0.0
            else:
                crt = 0.0
            # A too-tight box can starve a congested net of detour room;
            # escalate to the net terminal box and then the whole device
            # before giving up.
            if nat is not None:
                ew_wire, ew_ptr, ew_ipin = entry_csr(target)
                tree_arr = np.asarray(tree, dtype=np.int64)
                npath = 0
                for box in escalation:
                    generation += 1
                    npath = nat.search(
                        generation, tree_arr, target,
                        ew_wire, ew_ptr, ew_ipin, box, crt, nat_out,
                    )
                    if npath > 0:
                        break
                if npath <= 0:
                    raise RuntimeError(
                        f"net {net_id} could not reach its sink; the device is too "
                        "small or the channel width is insufficient even with "
                        "congestion allowed"
                    )
                # The compiled kernel backtraced already: nat_out holds the
                # new path sink-first and the tree node it attaches to.
                path = nat_out[:npath].tolist()
                n = int(nat_out[npath])
            else:
                found = False
                for box in escalation:
                    generation += 1
                    if _search(target, tree, generation, box, ASTAR_FAC, crt):
                        found = True
                        break
                if not found:
                    raise RuntimeError(
                        f"net {net_id} could not reach its sink; the device is too "
                        "small or the channel width is insufficient even with "
                        "congestion allowed"
                    )
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

    def _net_route_of(net_id: int) -> NetRoute:
        conns = net_conns[net_id]
        nodes = [net_terms[net_id][0]]
        for _, path, _ in conns:
            nodes.extend(path)
        return NetRoute(net_id, nodes, connections=list(conns))

    def route_net(net_id: int) -> None:
        source, sinks = net_terms[net_id]
        tree: List[int] = [source]
        tree_set: Set[int] = {source}
        # Route sinks farthest-first (VPR heuristic).
        sx, sy = xs[source], ys[source]
        order = sorted(sinks, key=lambda t: -(abs(xs[t] - sx) + abs(ys[t] - sy)))
        conns: List[Tuple[int, List[int], int]] = []
        net_conns[net_id] = conns
        frag_of[net_id] = _NetFragment(source)
        frag_pos[net_id] = {source: -1}
        _route_connections(net_id, order, tree, tree_set, conns)
        routes[net_id] = _net_route_of(net_id)

    def reroute_net(net_id: int) -> None:
        """Rip up and re-route only the congested connections of one net.

        A connection is ripped when its own nodes are overused or when it
        attaches to (or targets) a node owned by a ripped earlier connection;
        connections are stored in route order, so one forward scan closes the
        dependency chain.
        """
        source = net_terms[net_id][0]
        kept: List[Tuple[int, List[int], int]] = []
        ripped: List[Tuple[int, List[int], int]] = []
        ripped_nodes: Set[int] = set()
        for conn in net_conns[net_id]:
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
                bump(n, -1)
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
        frag_of[net_id] = frag
        frag_pos[net_id] = pos_of
        new_conns: List[Tuple[int, List[int], int]] = []
        _route_connections(
            net_id, [c[0] for c in ripped], tree, tree_set, new_conns
        )
        net_conns[net_id] = kept + new_conns
        routes[net_id] = _net_route_of(net_id)

    iteration = 0
    success = False
    net_ids = [net.id for net in netlist.nets]
    # Convergence telemetry: plain list appends and clock reads at iteration
    # granularity -- never an FP input to the search, so trajectory-neutral.
    tl_overuse: List[int] = []
    tl_rerouted: List[int] = []
    tl_wall_ms: List[float] = []

    for iteration in range(1, max_iterations + 1):
        if deadline is not None:
            deadline.check(f"astar iteration {iteration}")
        it_t0 = time.perf_counter()
        # Refresh the congestion cost vector for this iteration's pres_fac
        # and history (occupancy-driven entries are kept current by bump()).
        occ_arr = np.asarray(occupancy, dtype=np.int32)
        base_hist = base_cost + history
        over_arr = occ_arr + 1 - cap_arr
        cost_arr = np.where(over_arr > 0, base_hist * (1.0 + pres_fac * over_arr), base_hist)
        bh = base_hist.tolist()
        if nat is not None:
            # bump() writes through this array, so the compiled kernel sees
            # the live congestion costs -- the same bits the list twin holds.
            cost = cost_arr
            nat.set_costs(cost_arr, delay_arr if timing_mode else cost_arr)
        else:
            cost = cost_arr.tolist()

        rerouted = 0
        with span("par.route.iteration", i=iteration):
            if iteration == 1:
                rerouted = len(net_ids)
                for nid in net_ids:
                    route_net(nid)
            else:
                # Incremental re-route: only nets that occupy congested nodes,
                # and within them only the congested connections.  over_now is
                # live, so a net already healed by an earlier re-route in this
                # iteration is skipped and one newly congested is picked up.
                for nid in net_ids:
                    if not over_now.isdisjoint(routes[nid].nodes):
                        reroute_net(nid)
                        rerouted += 1

        tl_overuse.append(len(over_now))
        tl_rerouted.append(rerouted)
        tl_wall_ms.append((time.perf_counter() - it_t0) * 1000.0)
        if not over_now:
            success = True
            break
        for n in over_now:
            history[n] += HIST_FAC * (occupancy[n] - cap[n])
        pres_fac *= PRES_FAC_MULT
        if timing_mode:
            # Re-time the current route trees on the flat forest: the next
            # iteration's re-routes price against fresh criticalities.  The
            # fragments were emitted during backtrace; freezing them into
            # the tracker's cache means update_flat re-flattens nothing.
            _sync_frags(tracker._frag_cache)
            conn_crit = tracker.update_flat(routes)

    occ_arr = np.asarray(occupancy, dtype=np.int32)
    # Emit the flat forest for converged routes only: a congested result's
    # trees are about to be thrown away (min-channel-width probes below
    # the minimum fail by construction), so flattening them is pure waste.
    # The fragments were emitted during backtrace (native and Python paths
    # alike); the build below only concatenates them.
    forest = None
    if success:
        frag_cache = tracker._frag_cache if tracker is not None else {}
        _sync_frags(frag_cache)
        forest = build_route_forest(routes, rr, cache=frag_cache)
    telemetry = {
        "kernel": "astar",
        "native": nat is not None,
        "overuse_per_iteration": tl_overuse,
        "rerouted_nets_per_iteration": tl_rerouted,
        "iteration_wall_ms": tl_wall_ms,
        "nodes_expanded": int(nat_stats[0]) if nat is not None else py_expanded[0],
        "sta_retimes": tracker.updates if tracker is not None else 0,
    }
    return _assemble_result(
        rr, routes, occ_arr, cap_arr, success, iteration, forest=forest,
        telemetry=telemetry,
    )


def _route_fast(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    deadline: Optional[Deadline] = None,
) -> RoutingResult:
    """PR 1 kernel: congestion cost vector, unpruned wavefront (baseline)."""
    rr = device.rr_graph
    num_nodes = rr.num_nodes

    base_cost = _base_cost_array(rr)
    cap_arr = rr.node_capacity.astype(np.int32)
    history = np.zeros(num_nodes, dtype=np.float64)

    # Flat Python mirrors of the RR-graph arrays for the search inner loop.
    cap = cap_arr.tolist()
    ntype = rr.node_type.tolist()
    xs = rr.node_x.tolist()
    ys = rr.node_y.tolist()
    ptr = rr.edge_ptr.tolist()
    dst = rr.edge_dst.tolist()
    adj = [dst[ptr[i]: ptr[i + 1]] for i in range(num_nodes)]
    occupancy = [0] * num_nodes

    src_of, sink_of = terminal_rr_nodes(netlist, placement, rr)

    routes: Dict[int, NetRoute] = {}
    net_terms: Dict[int, Tuple[int, List[int]]] = {}
    for net in netlist.nets:
        net_terms[net.id] = (src_of[net.driver], [sink_of[s] for s in net.sinks])

    # Search bookkeeping with generation stamps (avoids clearing big arrays).
    visited_gen = [0] * num_nodes
    cost_so_far = [0.0] * num_nodes
    prev_node = [-1] * num_nodes
    generation = 0

    SINK = RRNodeType.SINK
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Per-iteration congestion costs: cost[n] = (base + history)[n] * present.
    # Refreshed vectorized at iteration start, entry-wise on occupancy change.
    bh: List[float] = []
    cost: List[float] = []
    astar_fac = ASTAR_FAC  # closure-local: read in the search loop
    pres_fac = PRES_FAC_INIT["fast"]

    def bump(n: int, d: int) -> None:
        occupancy[n] += d
        over = occupancy[n] + 1 - cap[n]
        cost[n] = bh[n] * (1.0 + pres_fac * over) if over > 0 else bh[n]

    def route_net(net_id: int) -> NetRoute:
        nonlocal generation
        if deadline is not None:
            deadline.check(f"fast net {net_id}")
        source, sinks = net_terms[net_id]
        tree: List[int] = [source]
        tree_set: Set[int] = {source}
        # Route sinks farthest-first (VPR heuristic).
        sx, sy = xs[source], ys[source]
        order = sorted(sinks, key=lambda t: -(abs(xs[t] - sx) + abs(ys[t] - sy)))
        for target in order:
            if target in tree_set:
                bump(target, 1)
                continue
            generation += 1
            gen = generation
            tx, ty = xs[target], ys[target]
            heap: List[Tuple[float, float, int]] = []
            for n in tree:
                h = (abs(xs[n] - tx) + abs(ys[n] - ty)) * astar_fac
                visited_gen[n] = gen
                cost_so_far[n] = 0.0
                prev_node[n] = -1
                heappush(heap, (h, 0.0, n))
            found = False
            while heap:
                _, g, n = heappop(heap)
                if g > cost_so_far[n] + 1e-12:
                    continue  # stale heap entry
                if n == target:
                    found = True
                    break
                for m in adj[n]:
                    if ntype[m] == SINK and m != target:
                        continue
                    new_cost = g + cost[m]
                    if visited_gen[m] != gen or new_cost < cost_so_far[m] - 1e-12:
                        visited_gen[m] = gen
                        cost_so_far[m] = new_cost
                        prev_node[m] = n
                        h = (abs(xs[m] - tx) + abs(ys[m] - ty)) * astar_fac
                        heappush(heap, (new_cost + h, new_cost, m))
            if not found:
                raise RuntimeError(
                    f"net {net_id} could not reach its sink; the device is too small "
                    "or the channel width is insufficient even with congestion allowed"
                )
            # Backtrace and merge the new path into the route tree.
            path = []
            n = target
            while n != -1 and n not in tree_set:
                path.append(n)
                n = prev_node[n]
            for n in path:
                tree_set.add(n)
                tree.append(n)
                bump(n, 1)
        return NetRoute(net_id, tree)

    def rip_up(net_route: NetRoute) -> None:
        source = net_terms[net_route.net_id][0]
        for n in net_route.nodes:
            if n != source:
                bump(n, -1)

    iteration = 0
    success = False
    net_ids = [net.id for net in netlist.nets]
    tl_overuse: List[int] = []
    tl_rerouted: List[int] = []
    tl_wall_ms: List[float] = []

    for iteration in range(1, max_iterations + 1):
        it_t0 = time.perf_counter()
        # Refresh the congestion cost vector for this iteration's pres_fac
        # and history (occupancy-driven entries are kept current by bump()).
        occ_arr = np.asarray(occupancy, dtype=np.int32)
        base_hist = base_cost + history
        over_arr = occ_arr + 1 - cap_arr
        cost_arr = np.where(over_arr > 0, base_hist * (1.0 + pres_fac * over_arr), base_hist)
        bh = base_hist.tolist()
        cost = cost_arr.tolist()

        if iteration == 1:
            targets = net_ids
        else:
            # Re-route only nets that currently use overused nodes.
            targets = [
                nid
                for nid in net_ids
                if any(occupancy[n] > cap[n] for n in routes[nid].nodes)
            ]
        for nid in targets:
            if nid in routes:
                rip_up(routes[nid])
            routes[nid] = route_net(nid)

        occ_arr = np.asarray(occupancy, dtype=np.int32)
        over_nodes = int(np.count_nonzero(occ_arr > cap_arr))
        tl_overuse.append(over_nodes)
        tl_rerouted.append(len(targets))
        tl_wall_ms.append((time.perf_counter() - it_t0) * 1000.0)
        if over_nodes == 0:
            success = True
            break
        history += HIST_FAC * np.maximum(occ_arr - cap_arr, 0)
        pres_fac *= PRES_FAC_MULT

    occ_arr = np.asarray(occupancy, dtype=np.int32)
    telemetry = {
        "kernel": "fast",
        "overuse_per_iteration": tl_overuse,
        "rerouted_nets_per_iteration": tl_rerouted,
        "iteration_wall_ms": tl_wall_ms,
    }
    return _assemble_result(
        rr, routes, occ_arr, cap_arr, success, iteration, telemetry=telemetry
    )


def _assemble_result(
    rr: RRGraph,
    routes: Dict[int, NetRoute],
    occupancy: np.ndarray,
    capacity: np.ndarray,
    success: bool,
    iteration: int,
    forest: Optional[RouteForest] = None,
    telemetry: Optional[Dict[str, Any]] = None,
) -> RoutingResult:
    wire_mask = (rr.node_type == RRNodeType.CHANX) | (rr.node_type == RRNodeType.CHANY)
    if forest is not None:
        wirelength = forest.wirelength(wire_mask)
    else:
        wirelength = 0
        for r in routes.values():
            wirelength += sum(1 for n in r.nodes if wire_mask[n])
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
        routes=routes,
        success=success,
        iterations=iteration,
        wirelength=wirelength,
        overused_nodes=int(np.count_nonzero(occupancy > capacity)),
        max_channel_occupancy=max_chan_occ,
        forest=forest,
        telemetry=telemetry,
    )


def routing_to_payload(result: RoutingResult) -> Optional[Dict[str, object]]:
    """JSON-serializable routing result, or ``None`` without a forest.

    The route trees ride along as the flat forest's int lists, so a
    :class:`~repro.par.cache.PaRCache` hit can re-hydrate the full result
    (see :func:`routing_from_payload`) instead of re-routing.
    """
    if result.forest is None:
        return None
    return {
        "success": result.success,
        "iterations": result.iterations,
        "wirelength": result.wirelength,
        "overused_nodes": result.overused_nodes,
        "max_channel_occupancy": result.max_channel_occupancy,
        "kernel": result.kernel,
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
            routes=forest.to_net_routes(),
            success=bool(payload["success"]),
            iterations=int(payload["iterations"]),
            wirelength=int(payload["wirelength"]),
            overused_nodes=int(payload["overused_nodes"]),
            max_channel_occupancy=int(payload["max_channel_occupancy"]),
            forest=forest,
            kernel=payload.get("kernel"),
        )
    except (KeyError, TypeError, ValueError):
        return None
