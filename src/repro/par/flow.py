"""TPaR flow driver: placement + routing + metrics for a mapped network.

This is the physical half of the paper's evaluation: given a technology
mapped Processing Element (conventional or fully parameterized), it sizes an
FPGA, places the blocks, routes the nets and reports the quantities of
Table I (wirelength, channel width, logic depth) plus timing estimates.

An optional on-disk :class:`~repro.par.cache.PaRCache` memoizes the main
route (:func:`cached_route`) and every probe of the serial
minimum-channel-width search (see :mod:`repro.par.metrics`), the dominant
cost of the Table I/II benchmarks.

Flows on one architecture share one :class:`~repro.fpga.device.Device`:
:func:`place_and_route` takes it from a per-process LRU of
:data:`DEVICE_MEMO_SIZE` devices keyed by the frozen architecture (the RR
graph is read-only, so sharing cannot change a route).  The min-CW search
builds one device of its own, at its upper bound, shares its graph among
its probes and drops it when the search returns; it never enters the memo.

The flow also carries the timing axis: every result embeds a full STA
(:attr:`PaRResult.sta`, from :mod:`repro.timing`) and
``objective="timing"`` switches placement to the incremental-STA
:func:`timing_driven_placement`.  Routing has one cost formula, so every
objective's placement is routed by the same :func:`cached_route`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..fpga.architecture import FPGAArchitecture, auto_size
from ..fpga.device import Device, build_device
from ..obs.trace import traced
from ..techmap.mapping import MappedNetwork
from ..timing.graph import build_timing_graph
from ..timing.sta import TimingAnalysis, analyze, scan_edge_criticality
from ..util.resilience import count_events, inject, record_event
from .cache import PaRCache
from .metrics import MinChannelWidthResult, check_min_cw_bounds, minimum_channel_width
from .netlist import PhysicalNetlist, from_mapped_network
from .placement import Placement, PlacementResult, TimingCost, place
from .routing import (
    RoutingResult,
    route_resilient,
    routing_from_payload,
    routing_to_payload,
)
from .timing import TimingReport, report_from_analysis

__all__ = [
    "PaRResult",
    "place_and_route",
    "cached_route",
    "timing_driven_placement",
]

#: Devices :func:`place_and_route` keeps per process, least recently used
#: first out.  A device is a pure function of its frozen architecture and
#: its RR graph is read-only, so flows on one architecture share one.
DEVICE_MEMO_SIZE = 4
_devices: "OrderedDict[FPGAArchitecture, Device]" = OrderedDict()


def _shared_device(arch: FPGAArchitecture) -> Device:
    """The memoized device of ``arch``, built on a miss (LRU, see above).

    The router reads the device's read-only graph arrays and caches
    nothing on them, so the memo holds exactly the devices.
    """
    device = _devices.get(arch)
    if device is not None:
        _devices.move_to_end(arch)
        return device
    device = build_device(arch)
    _devices[arch] = device
    if len(_devices) > DEVICE_MEMO_SIZE:
        _devices.popitem(last=False)
    return device


@dataclass
class PaRResult:
    """Complete place-and-route outcome for one mapped network."""

    network: MappedNetwork
    netlist: PhysicalNetlist
    device: Device
    placement: PlacementResult
    routing: RoutingResult
    timing: TimingReport
    min_channel_width: Optional[MinChannelWidthResult] = None
    #: full STA over the routed design (arrival/slack/criticality arrays,
    #: critical-path breakdown); the legacy ``timing`` report above is
    #: derived from it.
    sta: Optional[TimingAnalysis] = None
    objective: str = "wirelength"
    #: structured recovery log: every fault hit, cache fallback and route
    #: retry the flow absorbed while producing this result
    #: (see RESILIENCE.md for the event taxonomy).  Empty on a fault-free run.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: per-run observability snapshot (see OBSERVABILITY.md): the routing
    #: and placement convergence telemetry, the cache counters that served
    #: this run, and per-kind recovery-event counts.  Never serialized into
    #: cache payloads; ``None`` only for results built outside
    #: :func:`place_and_route`.
    telemetry: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def wirelength(self) -> int:
        """Routed wirelength: channel-wire nodes used over all route trees."""
        return self.routing.wirelength

    @property
    def logic_depth(self) -> int:
        """LUT levels on the longest combinational path."""
        return self.timing.logic_depth

    @property
    def degraded(self) -> bool:
        """True when the main route needed its retry at twice the budget."""
        return count_events(self.events, "route-retry") > 0

    def summary(self) -> Dict[str, float]:
        """Key metrics as a flat dict (used by the Table I benchmark)."""
        out = {
            "luts": self.network.num_luts(),
            "tluts": self.network.num_tluts(),
            "tcons": self.network.num_tcons(),
            "logic_depth": self.logic_depth,
            "wirelength": self.wirelength,
            "channel_width": self.device.arch.channel_width,
            "critical_path_ns": self.timing.critical_path_ns,
            "placement_hpwl": self.placement.cost,
            "array_side": self.device.arch.width,
            "routed": self.routing.success,
            "objective": self.objective,
            "recovery_events": len(self.events),
            "route_retries": count_events(self.events, "route-retry"),
        }
        if self.sta is not None:
            out["worst_slack_ns"] = self.sta.summary()["worst_slack_ns"]
        if self.min_channel_width is not None:
            out["min_channel_width"] = self.min_channel_width.min_channel_width
        cache_stats = (self.telemetry or {}).get("cache")
        if cache_stats is not None:
            out["cache_hits"] = cache_stats["hits"]
            out["cache_misses"] = cache_stats["misses"]
            out["cache_hit_rate"] = cache_stats["hit_rate"]
        return out


@traced("par.cached_route")
def cached_route(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    cache: Optional[PaRCache] = None,
    max_iterations: int = 25,
    deadline_s: Optional[float] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> RoutingResult:
    """Resilient astar :func:`~repro.par.routing.route` with on-disk memoization.

    The cache value carries the flat route forest next to the metrics, so a
    hit re-hydrates the *full* :class:`RoutingResult` -- route trees
    included -- instead of re-routing; reconfiguration experiments that
    re-run the same (netlist, placement, architecture) triple pay the
    route once per machine.  Corrupt or pre-forest cache entries degrade to
    a plain route call.  Routing is deterministic for fixed inputs, so a
    re-hydrated result is the one a fresh route would return.

    Failure semantics (all recorded into ``events``): a corrupt cache
    entry or a bad forest payload falls back to a fresh route
    (``cache-fallback``); the route itself runs under
    :func:`~repro.par.routing.route_resilient` with a ``deadline_s``
    per-attempt budget and one retry at twice ``max_iterations``.

    A result is stored iff it converged within ``max_iterations``.  That is
    exact: the router reads the budget only as its loop bound, so a retry
    that converges at iteration ``k <= max_iterations`` is the route a
    fault-free call returns, and a route that converges only past
    ``max_iterations`` never lands under this budget's key.  Non-converged
    results are never stored either.
    """
    key = None
    if cache is not None:
        key = PaRCache.route_key(
            netlist,
            placement,
            device.arch,
            device.arch.channel_width,
            max_iterations,
        )
        hit = cache.get(key, events=events)
        if hit is not None:
            result = None
            if inject("cache.hydrate") is None:
                result = routing_from_payload(hit)
            if result is not None:
                # Re-hydrated results carry no convergence arrays (those are
                # never serialized); mark the provenance instead.
                result.telemetry = {"from_cache": True}
                return result
            # Entry exists but cannot be trusted (corrupt forest payload or
            # injected hydration fault): route fresh and overwrite it.
            record_event(events, "cache-fallback", site="cache.hydrate", key=key)
    result = route_resilient(
        netlist,
        placement,
        device,
        max_iterations=max_iterations,
        deadline_s=deadline_s,
        events=events,
    )
    if key is not None and result.success and result.iterations <= max_iterations:
        cache.put(key, routing_to_payload(result), events=events)
    return result


@traced("par.flow")
def place_and_route(
    network: MappedNetwork,
    arch: Optional[FPGAArchitecture] = None,
    channel_width: int = 10,
    placement_effort: float = 1.0,
    router_iterations: int = 25,
    find_min_channel_width: bool = False,
    min_cw_bounds: tuple = (2, 32),
    seed: int = 0,
    cache: Optional[PaRCache] = None,
    objective: str = "wirelength",
    route_deadline_s: Optional[float] = None,
) -> PaRResult:
    """Run the full TPaR flow (TPLACE + TROUTE) on a mapped network.

    Parameters
    ----------
    network:
        Output of :func:`~repro.techmap.map_conventional` or
        :func:`~repro.techmap.map_parameterized`.
    arch:
        Target architecture.  When omitted the array is auto-sized for the
        design at the requested ``channel_width`` (the paper's experiments use
        the VPR auto-sizing with W = 10).
    placement_effort:
        Scales annealing effort; lower is faster but noisier.  Placement
        runs the ``batched`` annealer (native when the compiled backend is
        available).
    find_min_channel_width:
        Additionally run the binary search for the minimum channel width
        (Table I's CW column).  This re-routes the design several times;
        ``cache`` memoizes the probes (defaults to ``PaRCache.from_env()``)
        -- see :func:`repro.par.metrics.minimum_channel_width`.
    objective:
        ``"wirelength"`` (the seed behavior) or ``"timing"``, which selects
        the placer only: ``"timing"`` places with the incremental-STA
        :func:`timing_driven_placement`.  Either placement is routed by the
        same :func:`cached_route`, and every result carries the full STA in
        :attr:`PaRResult.sta`.

    The device comes from the per-process device memo (see the module
    doc), so repeated flows on one architecture build it once.

    With a ``cache`` (or ``REPRO_PAR_CACHE`` set) the main route is served
    through :func:`cached_route`: repeated flows over the same placed
    design re-hydrate their route trees from disk instead of re-routing.

    The flow is *resilient*: cache rot falls back to recomputation, and
    ``route_deadline_s`` bounds each routing attempt's wall time; a timed
    out, failed or congested main route is retried once at twice
    ``router_iterations``.  Every recovery taken is recorded in
    :attr:`PaRResult.events`; a fault-free run has an empty list and is
    bit-identical to the pre-resilience flow.

    Raises ``ValueError`` for an unknown ``objective`` or, with
    ``find_min_channel_width``, bounds outside ``1 <= low <= high`` --
    both before any placement work.
    """
    if objective not in ("wirelength", "timing"):
        raise ValueError(f"unknown PAR objective {objective!r}")
    if find_min_channel_width:
        check_min_cw_bounds(*min_cw_bounds)
    netlist = from_mapped_network(network)
    num_logic = netlist.num_logic_blocks() + netlist.num_ff_blocks()
    num_ios = netlist.num_io_blocks()
    if arch is None:
        arch = auto_size(num_logic, num_ios, channel_width=channel_width)
    device = _shared_device(arch)
    if cache is None:
        cache = PaRCache.from_env()

    if objective == "timing":
        placement = timing_driven_placement(netlist, arch, seed=seed, effort=placement_effort)
    else:
        placement = place(netlist, arch, seed=seed, effort=placement_effort)
    events: List[Dict[str, Any]] = []
    routing = cached_route(
        netlist,
        placement.placement,
        device,
        cache=cache,
        max_iterations=router_iterations,
        deadline_s=route_deadline_s,
        events=events,
    )
    sta = analyze(netlist, routing, device, placement=placement.placement)
    timing = report_from_analysis(sta, network, routing, device)

    min_cw = None
    if find_min_channel_width:
        min_cw = minimum_channel_width(
            netlist,
            placement.placement,
            arch,
            low=min_cw_bounds[0],
            high=min_cw_bounds[1],
            cache=cache,
        )
        events.extend(min_cw.events)

    # Per-run observability snapshot: the kernels' convergence telemetry,
    # the cache counters, and the recovery events folded to per-kind counts.
    telemetry: Dict[str, Any] = {
        "route": routing.telemetry,
        "place": placement.telemetry,
    }
    if cache is not None:
        cache_stats: Dict[str, Any] = dict(cache.stats())
        cache_stats["hit_rate"] = cache.hit_rate()
        telemetry["cache"] = cache_stats
    if events:
        by_kind: Dict[str, int] = {}
        for ev in events:
            kind = ev.get("event", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
        telemetry["events"] = by_kind

    return PaRResult(
        network=network,
        netlist=netlist,
        device=device,
        placement=placement,
        routing=routing,
        timing=timing,
        min_channel_width=min_cw,
        sta=sta,
        objective=objective,
        events=events,
        telemetry=telemetry,
    )


def timing_driven_placement(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
) -> PlacementResult:
    """VPR-style incremental-STA placement.

    **One** anneal whose objective is plain HPWL plus a per-connection
    ``criticality**2 * distance`` term over the timing graph's flat edge
    arrays (:class:`repro.par.placement.TimingCost`, at its fixed
    tradeoff).  Every half temperature step of accepted moves the live
    block coordinates feed a placement-estimate STA
    (:func:`repro.timing.sta.scan_edge_criticality`, pure NumPy) and the
    per-connection weights are refreshed in place -- criticality chases
    the anneal instead of being frozen between candidate anneals, and each
    *sink* is priced by its own slack rather than by its net's worst one.

    It replaced the candidate-anneal recipe (four anneals with net-level
    weights frozen between them), which is kept as a test oracle in
    ``tests/oracles.py``: this placer must match or beat its critical path
    (gated by ``check_quality.py``) with one anneal instead of four (the
    placement-time ratio is recorded in ``BENCH_hotpaths.json``).  Because
    the weights are re-timed in the loop, a stale weight decays as soon as
    its connection stops being critical, so this placer tolerates (and
    measures best at) a sharper pull than the candidate recipe's tradeoff.
    """
    graph = build_timing_graph(netlist, arch.lut_delay_ns)

    def conn_criticality(block_x: List[int], block_y: List[int]) -> np.ndarray:
        from ..timing.delays import estimated_edge_delays_from_coords

        delays = estimated_edge_delays_from_coords(graph, block_x, block_y, arch)[0]
        _cp, crit = scan_edge_criticality(graph, delays)
        return crit**2.0

    return place(
        netlist,
        arch,
        seed=seed,
        effort=effort,
        timing=TimingCost(
            conn_src=graph.edge_src.tolist(),
            conn_dst=graph.edge_dst.tolist(),
            criticality=conn_criticality,
        ),
    )
