"""Post-PaR metrics: wirelength, channel width, minimum-channel-width search.

These are the quantities of the paper's Table I PaR columns: total wirelength
(WL) of the routed design and the minimum channel width (CW) at which the
design still routes.

The minimum-channel-width binary search is the most expensive metric -- it
routes the whole design once per probed width.  :func:`minimum_channel_width`
runs it serially with the placement held fixed, as VPR does, and can memoize
every probe in an on-disk :class:`repro.par.cache.PaRCache`, so harness
re-runs and neighbouring experiments (Table I/II, reconfiguration) reuse
routes instead of recomputing them.  A probe's value holds metrics only,
so its key carries ``tag="probe"`` and never names the flow's stored
route at the same width and iteration budget.

All probes of one search share one RR graph, built at the search's upper
bound (``high``, or each width it widens to) on the first cache miss there
and dropped when the search returns.  A narrower probe routes on its arrays
with its own ``search_end`` (:func:`_narrowed`, by the width-prefix
property of :mod:`repro.fpga.routing_graph`); ``tests/oracles.py`` keeps
the per-width build as the oracle of its probe records.

Each probe routes with the routing-failure predictor on
(:func:`repro.par.routing.predict_failure`): a width whose overuse stalls
or falls too slowly to reach zero within the probe's iteration budget is
abandoned early and reported as a failure.  ``tests/oracles.py`` keeps the
search without the predictor, and the tests check that both find the same
width with the same per-width outcomes.  The search keeps one probe record
per width, ``{"converged", "iterations", "aborted"}``, on
:attr:`MinChannelWidthResult.probes` and :attr:`ChannelWidthError.probes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture
from ..fpga.bitstream import ConfigurationLayout
from ..fpga.device import Device, build_device
from ..fpga.routing_graph import RRNodeType
from .cache import PaRCache
from .netlist import PhysicalNetlist
from .placement import Placement
from .routing import route

__all__ = [
    "minimum_channel_width",
    "check_min_cw_bounds",
    "MinChannelWidthResult",
    "ChannelWidthError",
]


class ChannelWidthError(RuntimeError):
    """The minimum-channel-width search gave up.

    Subclasses ``RuntimeError`` for backward compatibility; carries the
    probe history so callers can log *why* bisection failed -- one
    ``{"converged": bool, "iterations": int | None, "aborted": bool}``
    entry per width probed before giving up (``iterations`` is ``None``
    when the router raised at that width, e.g. on an unreachable sink;
    ``aborted`` marks a probe the routing-failure predictor stopped early).
    """

    def __init__(
        self, message: str, probes: Optional[Dict[int, Dict[str, Any]]] = None
    ) -> None:
        super().__init__(message)
        self.probes: Dict[int, Dict[str, Any]] = dict(probes or {})


@dataclass
class MinChannelWidthResult:
    """Outcome of the minimum-channel-width binary search."""

    min_channel_width: int
    #: one record per probed width: ``{"converged": bool, "iterations":
    #: int | None, "aborted": bool}`` (see :class:`ChannelWidthError`).
    probes: Dict[int, Dict[str, Any]]
    wirelength_at_min: int
    #: structured recovery log of the search (cache read errors, dropped
    #: cache writes); empty on a fault-free run.
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def attempts(self) -> Dict[int, bool]:
        """Whether each probed width routed."""
        return {w: p["converged"] for w, p in self.probes.items()}

    def describe(self) -> str:
        """One-line summary: the found width and every probe's outcome."""
        tried = ", ".join(
            f"W={w}:{'ok' if ok else 'fail'}" for w, ok in sorted(self.attempts.items())
        )
        return f"min CW = {self.min_channel_width} ({tried})"


def _narrowed(wide: Device, width: int) -> Device:
    """The device of ``width`` on the RR graph of the wider device ``wide``.

    Only OPIN rows change: each keeps its first ``width`` tracks, a prefix
    of its search edges (see the width-prefix property of
    :mod:`repro.fpga.routing_graph`).  Wires of higher tracks stay in the
    arrays, but no search reaches them; ``rr_graph.arch`` stays the wide
    architecture the arrays were built for.
    """
    if width == wide.arch.channel_width:
        return wide
    rr = wide.rr_graph
    opin = np.flatnonzero(rr.node_type == RRNodeType.OPIN)
    start = rr.edge_ptr[opin]
    search_end = rr.search_end.copy()
    search_end[opin] = start + (search_end[opin] - start) // wide.arch.channel_width * width
    arch = wide.arch.with_channel_width(width)
    return Device(
        arch=arch,
        rr_graph=replace(rr, search_end=search_end),
        config_layout=ConfigurationLayout(arch),
    )


def _probe(
    netlist: PhysicalNetlist, placement: Placement, device: Device, max_iterations: int
) -> Tuple[bool, int, Optional[int], bool]:
    """Route on one probe's device, with the routing-failure predictor on.

    Returns ``(ok, wirelength, iterations, aborted)`` -- the iteration count
    and the predictor's verdict feed the probe record.  No STA runs here:
    nothing reads a probe's timing (a flow reports the critical path of its
    own route).  Route *trees* are
    deliberately not cached here: the probe keys (probe iteration budget)
    never coincide with a flow's route key, so a forest in these values
    would be read by nobody -- re-hydration is
    :func:`repro.par.flow.cached_route`'s job.
    """
    try:
        result = route(
            netlist, placement, device, max_iterations=max_iterations, abort_hopeless=True
        )
    except RuntimeError:
        # An unreachable sink at this width is a legitimate probe outcome
        # (the width is below the minimum), not a search failure.
        return False, 0, None, False
    return result.success, result.wirelength, result.iterations, result.aborted


def check_min_cw_bounds(low: int, high: int) -> None:
    """Raise ``ValueError`` unless ``1 <= low <= high``."""
    if low < 1 or low > high:
        raise ValueError(f"min-CW bounds need 1 <= low <= high, got low={low}, high={high}")


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

    Every probe routes with the routing-failure predictor on.
    ``1 <= low <= high`` or ``ValueError``.
    When even an extremely wide channel fails, :class:`ChannelWidthError`
    carries the full probe history.
    """
    check_min_cw_bounds(low, high)
    probes: Dict[int, Dict[str, Any]] = {}
    wl_at: Dict[int, int] = {}
    events: List[Dict[str, Any]] = []
    # The search's upper bound and the graph its probes share (module docstring).
    bound = high
    wide: Optional[Device] = None

    def probe_device(width: int) -> Device:
        """The device of ``width`` on the graph at the current bound."""
        nonlocal wide
        if wide is None or wide.arch.channel_width != bound:
            wide = None  # free the narrower graph before building its successor
            wide = build_device(base_arch.with_channel_width(bound))
        return _narrowed(wide, width)

    def evaluate(width: int) -> bool:
        """Whether the design routes at ``width``; each width routes once."""
        if width in probes:
            return probes[width]["converged"]
        hit = None
        if cache is not None:
            # Probe values are metrics only, so they never share a key with
            # the flow's stored route at the same width and budget.
            key = PaRCache.route_key(
                netlist, placement, base_arch, width, max_router_iterations, tag="probe"
            )
            hit = cache.get(key, events=events)
        if hit is not None:
            ok, wirelength = bool(hit["success"]), int(hit["wirelength"])
            iterations = hit.get("iterations")
            aborted = bool(hit.get("aborted", False))
        else:
            ok, wirelength, iterations, aborted = _probe(
                netlist, placement, probe_device(width), max_router_iterations
            )
            if cache is not None:
                value: Dict[str, Any] = {
                    "success": ok,
                    "wirelength": wirelength,
                    "aborted": aborted,
                }
                if iterations is not None:
                    value["iterations"] = iterations
                cache.put(key, value, events=events)
        probes[width] = {"converged": ok, "iterations": iterations, "aborted": aborted}
        if ok:
            wl_at[width] = wirelength
        return ok

    # Ensure the upper bound routes; widen if necessary.
    while not evaluate(bound):
        bound *= 2
        if bound > 512:
            raise ChannelWidthError(
                "design does not route even with an extremely wide channel",
                probes=probes,
            )
    hi = bound
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
        probes=probes,
        wirelength_at_min=wl_at.get(best, 0),
        events=events,
    )
