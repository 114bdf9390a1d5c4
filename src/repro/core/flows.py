"""Gate-level evaluation flows: conventional vs fully parameterized PE.

These drivers produce the numbers of the paper's Table I: one Processing
Element is pushed through

* the **conventional flow** -- synthesis, ABC-style optimization, conventional
  LUT mapping (parameters as ordinary inputs), TPLACE/TROUTE -- and
* the **fully parameterized flow** -- the same front end followed by TCONMAP
  (TLUTs + TCONs) and TPLACE/TROUTE,

and the LUT / TCON / logic-depth / wirelength / channel-width metrics of the
two runs are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..fpga.architecture import FPGAArchitecture
from ..netlist.circuit import Circuit
from ..obs.trace import span
from ..par.flow import PaRResult, place_and_route
from ..synth.synthesis import SynthesisResult, synthesize
from ..techmap.lutmap import map_conventional
from ..techmap.mapping import MappedNetwork
from ..techmap.tconmap import map_parameterized
from .pe import ProcessingElementSpec, build_pe_design

__all__ = [
    "PEFlowResult",
    "FlowComparison",
    "run_pe_flow",
    "compare_pe_flows",
    "build_context_library",
]


@dataclass
class PEFlowResult:
    """Result of pushing one circuit through one of the two flows."""

    flow: str                        #: "conventional" or "fully_parameterized"
    synthesis: SynthesisResult
    network: MappedNetwork
    par: Optional[PaRResult]

    def table1_row(self) -> Dict[str, object]:
        """The metrics of one row of Table I."""
        row: Dict[str, object] = {
            "flow": self.flow,
            "luts": self.network.num_luts(),
            "tluts": self.network.num_tluts(),
            "tcons": self.network.num_tcons(),
            "logic_depth": self.network.depth(),
        }
        if self.par is not None:
            row["wirelength"] = self.par.wirelength
            row["channel_width"] = (
                self.par.min_channel_width.min_channel_width
                if self.par.min_channel_width is not None
                else self.par.device.arch.channel_width
            )
            row["routed"] = self.par.routing.success
            row["critical_path_ns"] = self.par.timing.critical_path_ns
            row["objective"] = self.par.objective
            if self.par.events:
                # Recovery provenance: a row produced through cache
                # fallbacks, pool resubmits or a route retry says so.
                row["recovery_events"] = len(self.par.events)
                row["route_retried"] = self.par.degraded
        return row


@dataclass
class FlowComparison:
    """Both rows of Table I plus the derived improvement percentages."""

    conventional: PEFlowResult
    parameterized: PEFlowResult

    def lut_reduction(self) -> float:
        conv = self.conventional.network.num_luts()
        par = self.parameterized.network.num_luts()
        return 1.0 - par / conv if conv else 0.0

    def depth_reduction(self) -> float:
        conv = self.conventional.network.depth()
        par = self.parameterized.network.depth()
        return 1.0 - par / conv if conv else 0.0

    def wirelength_reduction(self) -> Optional[float]:
        if self.conventional.par is None or self.parameterized.par is None:
            return None
        conv = self.conventional.par.wirelength
        par = self.parameterized.par.wirelength
        return 1.0 - par / conv if conv else 0.0

    def intra_network_lut_overhead(self) -> float:
        """Fraction of the parameterized design's LUT count that the
        conventional flow additionally spends -- the paper's ~31% intra-network
        overhead figure (TCON logic realized on LUTs)."""
        conv = self.conventional.network.num_luts()
        par = self.parameterized.network.num_luts()
        return (conv - par) / par if par else 0.0

    def table(self) -> Dict[str, Dict[str, object]]:
        return {
            "conventional": self.conventional.table1_row(),
            "fully_parameterized": self.parameterized.table1_row(),
        }

    def summary(self) -> Dict[str, float]:
        out = {
            "lut_reduction": self.lut_reduction(),
            "depth_reduction": self.depth_reduction(),
            "intra_network_lut_overhead": self.intra_network_lut_overhead(),
        }
        wl = self.wirelength_reduction()
        if wl is not None:
            out["wirelength_reduction"] = wl
        return out


def run_pe_flow(
    circuit: Circuit,
    parameterized: bool,
    do_par: bool = True,
    arch: Optional[FPGAArchitecture] = None,
    channel_width: int = 10,
    placement_effort: float = 1.0,
    router_iterations: int = 25,
    find_min_channel_width: bool = False,
    seed: int = 0,
    objective: str = "wirelength",
    route_deadline_s: Optional[float] = None,
) -> PEFlowResult:
    """Push a circuit through one complete flow (synthesis -> mapping -> PaR).

    Route results, min-CW probes included, are memoized on disk when the
    ``REPRO_PAR_CACHE`` environment variable names a directory.
    ``objective="timing"`` runs the criticality-driven placer (see
    :func:`repro.par.flow.place_and_route`).  ``route_deadline_s``
    bounds each routing attempt's wall time; a main route that exceeds it,
    fails or ends congested is retried once at twice the iteration budget,
    with the retry recorded in the result's events.
    """
    with span("flow.synthesis"):
        synth = synthesize(circuit)

    with span("flow.techmap", parameterized=parameterized):
        if parameterized:
            network = map_parameterized(synth.circuit)
        else:
            network = map_conventional(synth.circuit)

    par = None
    if do_par:
        par = place_and_route(
            network,
            arch=arch,
            channel_width=channel_width,
            placement_effort=placement_effort,
            router_iterations=router_iterations,
            find_min_channel_width=find_min_channel_width,
            seed=seed,
            objective=objective,
            route_deadline_s=route_deadline_s,
        )

    return PEFlowResult(
        flow="fully_parameterized" if parameterized else "conventional",
        synthesis=synth,
        network=network,
        par=par,
    )


def compare_pe_flows(
    spec: Optional[ProcessingElementSpec] = None,
    circuit: Optional[Circuit] = None,
    do_par: bool = True,
    channel_width: int = 10,
    placement_effort: float = 1.0,
    router_iterations: int = 25,
    find_min_channel_width: bool = False,
    seed: int = 0,
    objective: str = "wirelength",
) -> FlowComparison:
    """Run both flows on the same Processing Element and compare them (Table I).

    Either a :class:`ProcessingElementSpec` (the PE is elaborated internally)
    or an explicit circuit can be supplied.
    """
    if circuit is None:
        spec = spec or ProcessingElementSpec()
        circuit = build_pe_design(spec).circuit
    conventional = run_pe_flow(
        circuit,
        parameterized=False,
        do_par=do_par,
        channel_width=channel_width,
        placement_effort=placement_effort,
        router_iterations=router_iterations,
        find_min_channel_width=find_min_channel_width,
        seed=seed,
        objective=objective,
    )
    parameterized = run_pe_flow(
        circuit,
        parameterized=True,
        do_par=do_par,
        channel_width=channel_width,
        placement_effort=placement_effort,
        router_iterations=router_iterations,
        find_min_channel_width=find_min_channel_width,
        seed=seed,
        objective=objective,
    )
    return FlowComparison(conventional=conventional, parameterized=parameterized)


def build_context_library(
    circuits: Dict[str, Circuit],
    parameterized: bool = True,
    arch: Optional[FPGAArchitecture] = None,
    channel_width: int = 10,
    placement_effort: float = 0.5,
    router_iterations: int = 20,
    seed: int = 0,
    objective: str = "wirelength",
    cache=None,
    popularity: Optional[Dict[str, float]] = None,
):
    """Compile named circuits into a multi-context library on one shared grid.

    This is the build driver of the reconfiguration scheduler
    (:mod:`repro.reconfig`, see RECONFIGURATION.md): every circuit runs the
    full flow (synthesis -> mapping -> TPaR) against the *same*
    architecture -- auto-sized for the largest member unless ``arch`` is
    given -- so their configurations share one frame space and frame-level
    diffs between any two contexts are meaningful.

    The route of each context is served through
    :func:`repro.par.flow.cached_route` when ``cache`` (or
    ``REPRO_PAR_CACHE``) is set: a warm cache re-hydrates the routed
    forests from disk and the whole library builds without routing
    anything (assert with ``cache.stats()`` -- one hit per context).

    ``popularity`` (name -> weight) sets each context's admission
    criticality; unnamed contexts default to 0.  Each context's metadata
    records its routed ``critical_path_ns`` and ``wirelength``.

    Returns a :class:`repro.reconfig.context.ContextLibrary` whose contexts
    are registered in ``circuits`` iteration order (= popularity order for
    :func:`repro.reconfig.trace.synthetic_trace`); its ``build_stats``
    carries the build cache's counter snapshot plus ``hit_rate`` whenever a
    cache served the build.
    """
    # Imported here: repro.reconfig depends on repro.core.reconfiguration,
    # and a module-level import would make that a package-import cycle.
    from ..reconfig.context import ContextLibrary, render_context_bitstream

    if not circuits:
        raise ValueError("context library needs at least one circuit")
    popularity = popularity or {}
    if cache is None:
        # Resolve the env cache once so the whole build shares one counter
        # set (place_and_route would otherwise make a fresh instance per
        # circuit and the library's build_stats would always read zero).
        from ..par.cache import PaRCache

        cache = PaRCache.from_env()

    networks: Dict[str, MappedNetwork] = {}
    for name, circuit in circuits.items():
        synth = synthesize(circuit)
        networks[name] = (
            map_parameterized(synth.circuit) if parameterized else map_conventional(synth.circuit)
        )

    if arch is None:
        from ..fpga.architecture import auto_size
        from ..par.netlist import from_mapped_network

        max_logic = max_ios = 0
        for network in networks.values():
            netlist = from_mapped_network(network)
            max_logic = max(max_logic, netlist.num_logic_blocks() + netlist.num_ff_blocks())
            max_ios = max(max_ios, netlist.num_io_blocks())
        arch = auto_size(max_logic, max_ios, channel_width=channel_width)

    library: Optional[ContextLibrary] = None
    for name, network in networks.items():
        par = place_and_route(
            network,
            arch=arch,
            channel_width=channel_width,
            placement_effort=placement_effort,
            router_iterations=router_iterations,
            seed=seed,
            cache=cache,
            objective=objective,
        )
        if not par.routing.success:
            raise RuntimeError(
                f"context {name!r} did not route on the shared "
                f"{arch.width}x{arch.height} grid at W={arch.channel_width}"
            )
        if library is None:
            library = ContextLibrary(par.device.config_layout)
        library.add_bitstream(
            name,
            render_context_bitstream(par),
            criticality=popularity.get(name, 0.0),
            metadata={
                "critical_path_ns": par.timing.critical_path_ns,
                "wirelength": float(par.wirelength),
            },
        )
    if cache is not None:
        library.build_stats = dict(cache.stats())
        library.build_stats["hit_rate"] = cache.hit_rate()
    return library
