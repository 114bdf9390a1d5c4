"""Post-PaR metrics: wirelength, channel width, minimum-channel-width search.

These are the quantities of the paper's Table I PaR columns: total wirelength
(WL) of the routed design and the minimum channel width (CW) at which the
design still routes.

The minimum-channel-width binary search is the most expensive metric -- it
routes the whole design once per probed width.  :func:`minimum_channel_width`
can therefore fan the probes out over a ``concurrent.futures`` process pool
(``workers=N``): each bisection round evaluates up to N interior widths
speculatively, cutting the number of sequential routing rounds from
``log2(hi - lo)`` to ``log_{N+1}(hi - lo)``.  Results are optionally
memoized in an on-disk :class:`repro.par.cache.PaRCache`, so harness re-runs
and neighbouring experiments (Table I/II, reconfiguration) reuse routes
instead of recomputing them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture
from ..fpga.device import Device, build_device
from ..fpga.routing_graph import RRNodeType
from ..util.resilience import FaultInjected, inject, record_event
from .cache import PaRCache
from .netlist import PhysicalNetlist
from .placement import Placement
from .routing import RoutingResult, route

__all__ = [
    "channel_occupancy",
    "minimum_channel_width",
    "MinChannelWidthResult",
    "ChannelWidthError",
]


class ChannelWidthError(RuntimeError):
    """The minimum-channel-width search gave up.

    Subclasses ``RuntimeError`` for backward compatibility; carries the
    probe history so callers can log *why* bisection failed -- one
    ``{"converged": bool, "iterations": int | None}`` entry per width
    probed before giving up (``iterations`` is ``None`` for probes served
    by a pre-resilience cache entry or aborted by a search error).
    """

    def __init__(
        self, message: str, probes: Optional[Dict[int, Dict[str, Any]]] = None
    ) -> None:
        super().__init__(message)
        self.probes: Dict[int, Dict[str, Any]] = dict(probes or {})


def channel_occupancy(result: RoutingResult, device: Device) -> Dict[str, int]:
    """Peak and mean occupancy of the routing channels after routing."""
    rr = device.rr_graph
    occ = np.zeros(rr.num_nodes, dtype=np.int64)
    for net_route in result.routes.values():
        for n in net_route.nodes:
            occ[n] += 1
    wire_mask = (rr.node_type == RRNodeType.CHANX) | (rr.node_type == RRNodeType.CHANY)
    wires = occ[wire_mask]
    return {
        "peak": int(wires.max()) if wires.size else 0,
        "used": int(np.count_nonzero(wires)),
        "total": int(wires.size),
    }


@dataclass
class MinChannelWidthResult:
    """Outcome of the minimum-channel-width binary search."""

    min_channel_width: int
    attempts: Dict[int, bool]
    wirelength_at_min: int
    #: STA summary (critical_path_ns, logic_depth) of the route at the
    #: minimum width; ``None`` only for legacy cache entries that predate
    #: the timing subsystem (the cache version bump makes those misses).
    timing_at_min: Optional[Dict[str, float]] = None
    #: structured recovery log of the search (pool failures, serial
    #: resubmits, cache read errors); empty on a fault-free run.
    events: List[Dict[str, Any]] = field(default_factory=list)

    def describe(self) -> str:
        tried = ", ".join(
            f"W={w}:{'ok' if ok else 'fail'}" for w, ok in sorted(self.attempts.items())
        )
        return f"min CW = {self.min_channel_width} ({tried})"


def _route_width_task(
    args: Tuple,
) -> Tuple[int, bool, int, Optional[Dict], Optional[int]]:
    """Pool worker: route at one channel width.

    Returns ``(width, ok, wirelength, timing_summary, iterations)`` -- the
    timing summary rides along so the cache keeps the delay axis next to
    the wirelength metrics, and the iteration count feeds the probe
    history of :class:`ChannelWidthError`.  The STA runs only on converged routes: the search
    spends most of its probes on deliberately-congested widths whose
    timing would be both meaningless and wasted work.  Route *trees* are
    deliberately not serialized here: the probe keys (probe kernel, probe
    iteration budget) never coincide with a flow's route key, so a forest
    in these values would be JSON shipped across the pool and read by
    nobody -- re-hydration is :func:`repro.par.flow.cached_route`'s job.
    """
    from ..timing.sta import analyze

    netlist, placement, base_arch, width, max_iterations, kernel = args
    fault = inject("cw.probe")
    if fault == "crash":
        # Simulated hard worker death: kills the process without unwinding,
        # which the parent sees as a BrokenProcessPool.
        os._exit(13)
    if fault is not None:
        raise FaultInjected("cw.probe", kind=fault)
    device = build_device(base_arch.with_channel_width(width))
    try:
        result = route(
            netlist,
            placement,
            device,
            max_iterations=max_iterations,
            kernel=kernel,
        )
    except RuntimeError:
        # An unreachable sink at this width is a legitimate probe outcome
        # (the width is below the minimum), not a worker failure.
        return width, False, 0, None, None
    timing = None
    if result.success:
        timing = analyze(netlist, result, device, placement=placement).summary()
    return width, result.success, result.wirelength, timing, result.iterations


def _interior_points(lo: int, hi: int, count: int) -> List[int]:
    """Up to ``count`` distinct widths strictly inside (lo, hi), evenly spread.

    ``count == 1`` degenerates to the classic binary-search midpoint.
    """
    count = min(count, hi - lo - 1)
    return sorted({lo + ((hi - lo) * (i + 1)) // (count + 1) for i in range(count)})


def minimum_channel_width(
    netlist: PhysicalNetlist,
    placement: Placement,
    base_arch: FPGAArchitecture,
    low: int = 2,
    high: int = 32,
    max_router_iterations: int = 12,
    route_kernel: str = "auto",
    workers: Optional[int] = None,
    cache: Optional[PaRCache] = None,
) -> MinChannelWidthResult:
    """Binary-search the smallest channel width at which the placed design routes.

    The placement is kept fixed across channel widths (the paper's comparison
    holds the architecture constant apart from W), which is also how VPR's
    binary search operates.

    ``workers`` > 1 evaluates up to that many interior widths of each
    bisection round concurrently in a process pool (speculative bisection);
    the result is identical to the serial search whenever routability is
    monotone in W.  ``cache`` memoizes per-width outcomes on disk; pass a
    :class:`~repro.par.cache.PaRCache` or rely on ``PaRCache.from_env()`` at
    the call site.

    ``route_kernel`` defaults to ``auto``, which resolves to the
    ``astar`` kernel (see :data:`repro.par.routing.AUTO_KERNEL`).  The
    kernels agree on routability (all are gated to reference-class
    quality), so the found width is the same under any of them.

    A pool worker that crashes or raises does not lose the search: its
    probes are resubmitted serially in the parent (``pool-failure`` +
    ``serial-resubmit`` in :attr:`MinChannelWidthResult.events`), and
    routing is deterministic per width, so the recovered search returns
    the ``workers=1`` result.  When even an extremely wide channel fails,
    :class:`ChannelWidthError` carries the full probe history.
    """
    attempts: Dict[int, bool] = {}
    wl_at: Dict[int, int] = {}
    timing_at: Dict[int, Dict] = {}
    iters_at: Dict[int, Optional[int]] = {}
    events: List[Dict[str, Any]] = []
    pool_size = max(1, workers or 1)

    def record(
        width: int,
        ok: bool,
        wirelength: int,
        timing: Optional[Dict] = None,
        iterations: Optional[int] = None,
        from_cache: bool = False,
    ) -> None:
        attempts[width] = ok
        iters_at[width] = iterations
        if ok:
            wl_at[width] = wirelength
            if timing is not None:
                timing_at[width] = timing
        if cache is not None and not from_cache:
            key = PaRCache.route_key(
                netlist,
                placement,
                base_arch,
                width,
                max_router_iterations,
                route_kernel,
            )
            value = {"success": ok, "wirelength": wirelength}
            if timing is not None:
                value["timing"] = timing
            if iterations is not None:
                value["iterations"] = iterations
            cache.put(key, value, events=events)

    def evaluate(widths: List[int]) -> None:
        """Route every not-yet-attempted width, via cache/pool when possible."""
        todo = []
        for w in widths:
            if w in attempts:
                continue
            if cache is not None:
                key = PaRCache.route_key(
                    netlist,
                    placement,
                    base_arch,
                    w,
                    max_router_iterations,
                    route_kernel,
                )
                hit = cache.get(key, events=events)
                if hit is not None:
                    record(
                        w,
                        bool(hit["success"]),
                        int(hit["wirelength"]),
                        timing=hit.get("timing"),
                        iterations=hit.get("iterations"),
                        from_cache=True,
                    )
                    continue
            todo.append(w)
        if not todo:
            return
        tasks = [
            (netlist, placement, base_arch, w, max_router_iterations, route_kernel)
            for w in todo
        ]
        failed: List[Tuple] = []
        if pool_size > 1 and len(todo) > 1:
            with ProcessPoolExecutor(max_workers=min(pool_size, len(todo))) as pool:
                futures = [
                    (pool.submit(_route_width_task, task), task) for task in tasks
                ]
                for future, task in futures:
                    try:
                        record(*future.result())
                    except Exception as exc:
                        # Worker crash (BrokenProcessPool), injected fault,
                        # or a genuine routing error: defer to the serial
                        # pass below.  Probes that completed are preserved.
                        record_event(events, "pool-failure", site="cw.probe",
                                     width=task[3],
                                     error=f"{type(exc).__name__}: {exc}")
                        failed.append(task)
            if failed:
                record_event(events, "serial-resubmit", site="cw.probe",
                             widths=[t[3] for t in failed])
        else:
            failed = tasks
        for task in failed:
            record(*_route_width_task(task))

    # Ensure the upper bound routes; widen if necessary.
    hi = high
    evaluate([hi, low] if pool_size > 1 else [hi])
    while not attempts[hi]:
        hi *= 2
        if hi > 512:
            raise ChannelWidthError(
                "design does not route even with an extremely wide channel",
                probes={
                    w: {"converged": ok, "iterations": iters_at.get(w)}
                    for w, ok in sorted(attempts.items())
                },
            )
        evaluate([hi])
    evaluate([low])
    if attempts[low]:
        best = low
    else:
        lo = low
        while lo + 1 < hi:
            points = _interior_points(lo, hi, pool_size)
            evaluate(points)
            # Under monotone routability the points split fail | ok; narrow
            # the bracket to the tightest adjacent (fail, ok) pair seen.
            for w in points:
                if attempts[w]:
                    hi = min(hi, w)
                else:
                    lo = max(lo, w)
        best = hi
    return MinChannelWidthResult(
        min_channel_width=best,
        attempts=attempts,
        wirelength_at_min=wl_at.get(best, 0),
        timing_at_min=timing_at.get(best),
        events=events,
    )
