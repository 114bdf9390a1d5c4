"""Post-PaR metrics: wirelength, channel width, minimum-channel-width search.

These are the quantities of the paper's Table I PaR columns: total wirelength
(WL) of the routed design and the minimum channel width (CW) at which the
design still routes.

The minimum-channel-width binary search is the most expensive metric -- it
routes the whole design once per probed width.  :func:`minimum_channel_width`
runs it serially with the placement held fixed, as VPR does, and can memoize
every probe in an on-disk :class:`repro.par.cache.PaRCache`, so harness
re-runs and neighbouring experiments (Table I/II, reconfiguration) reuse
routes instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture
from ..fpga.device import Device, build_device
from ..fpga.routing_graph import RRNodeType
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
    #: structured recovery log of the search (cache read errors, dropped
    #: cache writes); empty on a fault-free run.
    events: List[Dict[str, Any]] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary: the found width and every probe's outcome."""
        tried = ", ".join(
            f"W={w}:{'ok' if ok else 'fail'}" for w, ok in sorted(self.attempts.items())
        )
        return f"min CW = {self.min_channel_width} ({tried})"


def _probe(
    netlist: PhysicalNetlist,
    placement: Placement,
    base_arch: FPGAArchitecture,
    width: int,
    max_iterations: int,
) -> Tuple[bool, int, Optional[Dict], Optional[int]]:
    """Route at one channel width.

    Returns ``(ok, wirelength, timing_summary, iterations)`` -- the timing
    summary rides along so the cache keeps the delay axis next to the
    wirelength metrics, and the iteration count feeds the probe history of
    :class:`ChannelWidthError`.  The STA runs only on converged routes: the
    search spends most of its probes on deliberately-congested widths whose
    timing would be both meaningless and wasted work.  Route *trees* are
    deliberately not cached here: the probe keys (probe iteration budget)
    never coincide with a flow's route key, so a forest in these values
    would be read by nobody -- re-hydration is
    :func:`repro.par.flow.cached_route`'s job.
    """
    from ..timing.sta import analyze

    device = build_device(base_arch.with_channel_width(width))
    try:
        result = route(netlist, placement, device, max_iterations=max_iterations)
    except RuntimeError:
        # An unreachable sink at this width is a legitimate probe outcome
        # (the width is below the minimum), not a search failure.
        return False, 0, None, None
    timing = None
    if result.success:
        timing = analyze(netlist, result, device, placement=placement).summary()
    return result.success, result.wirelength, timing, result.iterations


def minimum_channel_width(
    netlist: PhysicalNetlist,
    placement: Placement,
    base_arch: FPGAArchitecture,
    low: int = 2,
    high: int = 32,
    max_router_iterations: int = 12,
    cache: Optional[PaRCache] = None,
) -> MinChannelWidthResult:
    """Binary-search the smallest channel width at which the placed design routes.

    The placement is kept fixed across channel widths (the paper's comparison
    holds the architecture constant apart from W), which is also how VPR's
    binary search operates.  ``cache`` memoizes per-width outcomes on disk;
    pass a :class:`~repro.par.cache.PaRCache` or rely on
    ``PaRCache.from_env()`` at the call site.

    Every probe routes with the default ``astar`` kernel.  When even an
    extremely wide channel fails, :class:`ChannelWidthError` carries the
    full probe history.
    """
    attempts: Dict[int, bool] = {}
    wl_at: Dict[int, int] = {}
    timing_at: Dict[int, Dict] = {}
    iters_at: Dict[int, Optional[int]] = {}
    events: List[Dict[str, Any]] = []

    def evaluate(width: int) -> bool:
        """Whether the design routes at ``width``; each width routes once."""
        if width in attempts:
            return attempts[width]
        hit = None
        if cache is not None:
            key = PaRCache.route_key(
                netlist, placement, base_arch, width, max_router_iterations
            )
            hit = cache.get(key, events=events)
        if hit is not None:
            ok, wirelength = bool(hit["success"]), int(hit["wirelength"])
            timing, iterations = hit.get("timing"), hit.get("iterations")
        else:
            ok, wirelength, timing, iterations = _probe(
                netlist, placement, base_arch, width, max_router_iterations
            )
            if cache is not None:
                value: Dict[str, Any] = {"success": ok, "wirelength": wirelength}
                if timing is not None:
                    value["timing"] = timing
                if iterations is not None:
                    value["iterations"] = iterations
                cache.put(key, value, events=events)
        attempts[width] = ok
        iters_at[width] = iterations
        if ok:
            wl_at[width] = wirelength
            if timing is not None:
                timing_at[width] = timing
        return ok

    # Ensure the upper bound routes; widen if necessary.
    hi = high
    while not evaluate(hi):
        hi *= 2
        if hi > 512:
            raise ChannelWidthError(
                "design does not route even with an extremely wide channel",
                probes={
                    w: {"converged": ok, "iterations": iters_at.get(w)}
                    for w, ok in sorted(attempts.items())
                },
            )
    if evaluate(low):
        best = low
    else:
        lo = low
        while lo + 1 < hi:
            mid = lo + (hi - lo) // 2
            if evaluate(mid):
                hi = mid
            else:
                lo = mid
        best = hi
    return MinChannelWidthResult(
        min_channel_width=best,
        attempts=attempts,
        wirelength_at_min=wl_at.get(best, 0),
        timing_at_min=timing_at.get(best),
        events=events,
    )
