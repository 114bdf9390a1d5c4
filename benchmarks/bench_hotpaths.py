"""Hot-path kernel benchmark: simulation, placement, routing.

Times the CAD hot paths on fixed seeds, comparing the reworked kernels
against the seed ("reference") implementations they replaced, which are kept
as test oracles in ``tests/oracles.py``, and writes a machine-readable
``BENCH_hotpaths.json`` at the repo root so future PRs have a perf
trajectory.

Run with::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py

The workload is the paper's conventional Processing Element (reduced FloPoCo
format by default; ``REPRO_FULL=1`` switches to the paper's 6/26 format).

Three comparisons are made:

* **simulation** -- compiled engine vs legacy interpreter, bit-identical;
* **placement** -- the production ``batched`` annealer (PCG64 block
  randomness + O(1) window moves, native when available) vs the
  ``reference`` oracle at *matched quality*: the batched effort is chosen
  so its mean HPWL across the seed sweep is within the quality band of
  the reference mean, and the speedup is reported at that iso-quality
  point;
* **routing** -- the directed incremental ``astar`` router vs the
  ``route_reference`` oracle, both at the same routable channel width and
  in both modes.  The benchmark first finds the minimum routable width for
  the placement (the W=12 default of the reduced format is *not* routable
  -- routing it only measured non-convergence), records it as
  ``channel_width_used``, and checks the re-baselined astar route quality
  against the oracle's route (``astar_wirelength_ratio``);
* **rr_build** -- the closed-form NumPy RR-graph builder vs the per-edge
  append builder it replaced (``tests/oracles.py``), on the routing
  section's architecture at its width and at W=32.  ``identical`` (every
  array by value and dtype, ``search_end`` included, every lookup item for
  item) is gated by ``check_quality.py``;
* **timing** -- the PR 4 criticality-driven objective at the same minimum
  routable width: routed ``critical_path_ns`` + ``logic_depth`` of the
  default (wirelength) flow vs ``objective="timing"`` both route-only (same
  placement) and flow-level (timing-driven placement), plus the measured
  cost of one criticality update per PathFinder iteration.  Since PR 5 the
  flow-level placement is the *incremental-STA* placer (per-connection
  criticality re-timed inside the annealing loop); the PR 4 candidate-
  anneal recipe is timed next to it and the critical-path ratio is gated
  (the incremental placer must match or beat it).  Gated by
  ``check_quality.py``: the timing run must converge, must not regress
  delay, and must stay inside the wirelength band of the reference route on
  its own placement;
* **retime** -- the flat route forest vs the per-net dict walk oracle
  (``routed_edge_delays_reference`` / ``criticality_update`` in
  ``tests/oracles.py``): routed-delay extraction and the
  per-PathFinder-iteration criticality update, measured dict vs flat both
  in the steady state (``update_flat`` on the route's own forest) and with
  5% of the nets freshly re-routed (the forest rebuilt through the per-net
  fragment memo first, as the timing-driven router does).  Bit-identity
  of the extracted delays and criticality vectors is asserted and gated;
* **native** -- the PR 7 compiled-C kernels (astar expansion loop, batched
  annealer move loop; see ``src/repro/native/``) vs their pure-Python
  twins, warm, same seeds.  Bit-identity of routes and annealing
  trajectories is asserted and gated -- the native backend must be a pure
  accelerator, never a different algorithm;
* **reconfig** -- the PR 8 multi-context scheduler (``src/repro/reconfig``;
  see RECONFIGURATION.md): a seeded synthetic context library over the
  bench grid's configuration layout is replayed against a Zipf-skewed
  request trace under a 30% residency budget, and *every* switch's
  diff-applied active plane is checked bit-identical to a full
  reconfiguration of the target -- the identity ``check_quality.py`` gates
  -- alongside contexts/sec, amortized switch cost, hit rate and the
  full-vs-diff frame savings;
* **scg** -- the compiled PPC behind ``MappedNetwork.specialize`` vs the
  ``specialize_reference`` oracle (whole-circuit simulation, then
  ``restrict`` per tunable node) on the parameterized bench PE at the
  default ports and counter width: milliseconds per word-level update
  for both, the one-off compile time, and ``identical`` (equal
  ``lut_configs`` and ``tcon_routes`` on every seeded setting), which
  ``check_quality.py`` gates;
* **obs** -- the PR 9 observability layer (``src/repro/obs``; see
  OBSERVABILITY.md): the disabled ``span()`` per-call cost and the
  estimated traced slowdown of the place+route workload (trace records x
  enabled cost per record / untraced wall time; both gated by
  ``check_quality.py``), the wall-clock traced/untraced ratios (recorded,
  not gated), bit-identity of traced vs untraced results, and a
  Chrome-trace artifact (``BENCH_trace.json``) from the traced run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_config import BENCH_FP_FORMAT, FULL_MODE
from oracles import (
    build_rr_graph_reference,
    candidates_timing_placement,
    criticality_update,
    place_reference,
    route_reference,
    routed_edge_delays_reference,
    rr_graph_differences,
    simulate_patterns_reference,
    specialize_reference,
)

import numpy as np

from repro.core.flows import run_pe_flow
from repro.core.pe import PEOp, ProcessingElementSpec, build_pe_design
from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.fpga.routing_graph import build_rr_graph
from repro.netlist.engine import compile_circuit
from repro.netlist.simulate import random_patterns, simulate_patterns
from repro.par.cache import PaRCache
from repro.par.flow import timing_driven_placement
from repro.par.metrics import minimum_channel_width
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.forest import _fragment_from_conns, build_route_forest
from repro.par.routing import route
from repro.synth.constprop import param_bit_values
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.techmap.mapping import CompiledPPC
from repro.timing import analyze, routed_edge_delays
from repro.timing.sta import CriticalityTracker

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"

SIM_PATTERNS = 1024
SIM_REPEATS = 20
SIM_REF_REPEATS = 5
PLACE_SEEDS = [0, 1, 2, 3, 4]
PLACE_EFFORT = 0.25          #: effort of the reference kernel (the HPWL baseline)
BATCHED_EFFORT = 0.1         #: iso-quality effort of the batched kernel
PLACE_QUALITY_BAND = 1.02    #: batched mean HPWL must be <= band * reference
ROUTE_QUALITY_BAND = 1.05    #: astar wirelength must be <= band * reference
PLACE_SPEEDUP_FLOOR = 1.5    #: recorded batched-vs-reference iso-quality floor
CHANNEL_WIDTH = 12           #: starting point of the routable-width search
TIMING_DELAY_TARGET = 0.90   #: recorded flow-level delay-ratio target (>=10% better)
TIMING_WL_BAND = 1.02        #: timing route wirelength vs reference, same placement
RETIME_SPEEDUP_FLOOR = 3.0   #: flat-vs-dict steady-state retime target (issue 5)
RETIME_REROUTED_FRACTION = 20  #: 1-in-N nets re-routed in the perturbed retime case
NATIVE_ASTAR_SPEEDUP_FLOOR = 3.0   #: recorded native-vs-python astar target (issue 7)
NATIVE_ANNEAL_SPEEDUP_FLOOR = 5.0  #: recorded native-vs-python move-loop target (22.8x measured)
RECONFIG_CONTEXTS = 24       #: synthetic contexts in the scheduler bench
RECONFIG_TRACE_LENGTH = 2000  #: requests replayed against the scheduler
RECONFIG_BUDGET_FRACTION = 0.3  #: context-memory budget / library footprint
OBS_DISABLED_NS_CEILING = 2000.0  #: disabled span() cost bound, ns/call
OBS_SLOWDOWN_CEILING = 1.05  #: estimated traced/untraced place+route ratio bound
OBS_PAIRS = 7                #: interleaved traced/untraced pairs, recorded ungated
OBS_PROBE_RECORDS = 2000     #: spans per per-record cost probe
OBS_PROBE_REPEATS = 5        #: probes per size, fastest kept
RR_BUILD_WIDE = 32          #: width the rr_build section times besides the routing one
RR_BUILD_REPEATS = 3
SCG_SETTINGS = 48            #: seeded PE settings specialized per timing pass
SCG_REPEATS = 3
TRACE_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"


def _build_workload():
    spec = ProcessingElementSpec(fmt=BENCH_FP_FORMAT, num_inputs=2, counter_width=4)
    circuit, _ = optimize(build_pe_design(spec).circuit)
    network = map_conventional(circuit)
    netlist = from_mapped_network(network)
    arch = auto_size(
        netlist.num_logic_blocks() + netlist.num_ff_blocks(),
        netlist.num_io_blocks(),
        channel_width=CHANNEL_WIDTH,
    )
    return circuit, network, netlist, arch


def _timed(fn, repeats=1):
    """Best-of-N wall time (interleaved noise on shared CI boxes is real)."""
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


@contextmanager
def _python_kernels():
    """Force the pure-Python twins (``REPRO_NATIVE=0``) inside the block."""
    prev = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = prev


def bench_simulation(circuit):
    patterns = random_patterns(circuit, SIM_PATTERNS)
    compile_circuit(circuit)  # compile outside the timed region (one-time cost)
    simulate_patterns(circuit, patterns, SIM_PATTERNS)  # warm the codegen path

    t0 = time.perf_counter()
    for _ in range(SIM_REPEATS):
        fast = simulate_patterns(circuit, patterns, SIM_PATTERNS)
    fast_s = (time.perf_counter() - t0) / SIM_REPEATS

    t0 = time.perf_counter()
    for _ in range(SIM_REF_REPEATS):
        ref = simulate_patterns_reference(circuit, patterns, SIM_PATTERNS)
    ref_s = (time.perf_counter() - t0) / SIM_REF_REPEATS

    node_evals = len(circuit.ops) * SIM_PATTERNS
    return {
        "workload": f"PE circuit, {len(circuit.ops)} nodes x {SIM_PATTERNS} patterns",
        "reference_seconds": ref_s,
        "fast_seconds": fast_s,
        "speedup": ref_s / fast_s,
        "ops_per_sec_reference": node_evals / ref_s,
        "ops_per_sec_fast": node_evals / fast_s,
        "identical_outputs": ref == fast,
        "ok": ref == fast,
    }


def bench_placement(netlist, arch):
    ref_results, ref_times = [], []
    bat_results, bat_times = [], []
    for seed in PLACE_SEEDS:
        r, dt = _timed(
            lambda s=seed: place_reference(netlist, arch, seed=s, effort=PLACE_EFFORT)
        )
        ref_results.append(r)
        ref_times.append(dt)
        r, dt = _timed(
            lambda s=seed: place(netlist, arch, seed=s, effort=BATCHED_EFFORT)
        )
        bat_results.append(r)
        bat_times.append(dt)

    exact_ints = all(
        isinstance(r.cost, int) for r in [*ref_results, *bat_results]
    )
    ref_hpwl = [r.cost for r in ref_results]
    bat_hpwl = [r.cost for r in bat_results]
    hpwl_ratio = statistics.mean(bat_hpwl) / statistics.mean(ref_hpwl)
    batched_speedup = sum(ref_times) / sum(bat_times)
    quality_ok = hpwl_ratio <= PLACE_QUALITY_BAND

    return {
        "workload": (
            f"{len(netlist.blocks)} blocks / {len(netlist.nets)} nets on "
            f"{arch.width}x{arch.height}, seeds={PLACE_SEEDS}, "
            f"reference effort={PLACE_EFFORT} (batched iso-quality at {BATCHED_EFFORT})"
        ),
        "exact_int_hpwl": exact_ints,
        "batched": {
            "effort": BATCHED_EFFORT,
            "seconds_per_seed": bat_times,
            "reference_seconds_per_seed": ref_times,
            "speedup_vs_reference": batched_speedup,
            "hpwl_per_seed": bat_hpwl,
            "reference_hpwl_per_seed": ref_hpwl,
            "mean_hpwl_ratio": hpwl_ratio,
            "quality_band": PLACE_QUALITY_BAND,
            "quality_ok": quality_ok,
        },
        # The exit-code gate is correctness/quality only; wall-clock floors
        # are recorded but machine-load dependent (see check_quality.py).
        "speedup_floor_met": batched_speedup >= PLACE_SPEEDUP_FLOOR,
        "ok": exact_ints and quality_ok,
    # The downstream sections route the reference seed-0 placement, the
    # same input they have always been measured on.
    }, ref_results[0].placement


def bench_routing(netlist, arch, placement):
    # The default benchmark width is not necessarily routable (at the reduced
    # format's W=12 every router ends congested); find the minimum routable
    # width for this placement and benchmark the router and the oracle there.
    min_cw = minimum_channel_width(
        netlist, placement, arch,
        low=max(2, CHANNEL_WIDTH - 4), high=CHANNEL_WIDTH * 2,
        max_router_iterations=15,
        cache=PaRCache.from_env(),
    )
    width = min_cw.min_channel_width
    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, max_iterations=1)  # warm view

    ref, ref_s = _timed(lambda: route_reference(netlist, placement, device))
    astar, astar_s = _timed(lambda: route(netlist, placement, device), 3)

    wl_ratio = astar.wirelength / ref.wirelength
    quality_ok = astar.success and wl_ratio <= ROUTE_QUALITY_BAND
    entry = {
        "workload": (
            f"{len(netlist.nets)} nets, W={width} (min routable; "
            f"W={CHANNEL_WIDTH} was congested), {device.rr_graph.num_nodes} RR nodes"
        ),
        "channel_width_used": width,
        "min_cw_attempts": {str(w): ok for w, ok in sorted(min_cw.attempts.items())},
        "astar_seconds": astar_s,
        "reference_seconds": ref_s,
        "speedup": ref_s / astar_s,
        "wirelength_astar": astar.wirelength,
        "wirelength_reference": ref.wirelength,
        "astar_wirelength_ratio": wl_ratio,
        "iterations_astar": astar.iterations,
        "iterations_reference": ref.iterations,
        "success_astar": astar.success,
        "success_reference": ref.success,
        "quality_band": ROUTE_QUALITY_BAND,
        "quality_ok": quality_ok,
        "ok": quality_ok and ref.success,
    }
    return entry, width


def bench_rr_build(arch, width):
    """Closed-form RR-graph builder vs the per-edge append oracle."""
    entry = {
        "workload": f"{arch.width}x{arch.height} grid, best of {RR_BUILD_REPEATS}",
        "widths": {},
    }
    for w in (width, RR_BUILD_WIDE):
        wide = arch.with_channel_width(w)
        rr, build_s = _timed(lambda: build_rr_graph(wide), RR_BUILD_REPEATS)
        ref, reference_s = _timed(lambda: build_rr_graph_reference(wide), RR_BUILD_REPEATS)
        entry["widths"][str(w)] = {
            "num_edges": rr.num_edges,
            "build_s": build_s,
            "reference_s": reference_s,
            "speedup": reference_s / build_s,
            "identical": not rr_graph_differences(rr, ref),
        }
    entry["identical"] = all(v["identical"] for v in entry["widths"].values())
    entry["ok"] = entry["identical"]
    return entry


def bench_scg():
    """Compiled-PPC specialization vs the per-update oracle, bench PE."""
    spec = ProcessingElementSpec(fmt=BENCH_FP_FORMAT)
    network = run_pe_flow(
        build_pe_design(spec).circuit, parameterized=True, do_par=False
    ).network
    rng = np.random.default_rng(0)
    settings = [
        {
            "coeff": int(rng.integers(0, 1 << spec.fmt.width)),
            "op": int(rng.choice(PEOp.ALL)),
            "sel_a": int(rng.integers(0, 1 << spec.sel_width)),
            "sel_b": int(rng.integers(0, 1 << spec.sel_width)),
            "count_limit": int(rng.integers(0, 1 << spec.counter_width)),
        }
        for _ in range(SCG_SETTINGS)
    ]
    ppc, compile_s = _timed(lambda: CompiledPPC(network), SCG_REPEATS)
    compiled, compiled_s = _timed(
        lambda: [network.specialize_words(w) for w in settings], SCG_REPEATS
    )
    reference, reference_s = _timed(
        lambda: [
            specialize_reference(network, param_bit_values(network.source, w))
            for w in settings
        ],
        SCG_REPEATS,
    )
    identical = all(
        mine.lut_configs == ref.lut_configs and mine.tcon_routes == ref.tcon_routes
        for mine, ref in zip(compiled, reference)
    )
    return {
        "workload": (
            f"parameterized PE ({network.num_tluts()} TLUTs, {network.num_tcons()} "
            f"TCONs), {SCG_SETTINGS} seeded settings, best of {SCG_REPEATS}"
        ),
        "table_entries": ppc.num_entries,
        "compile_ms": compile_s * 1000.0,
        "compiled_ms_per_update": compiled_s * 1000.0 / SCG_SETTINGS,
        "reference_ms_per_update": reference_s * 1000.0 / SCG_SETTINGS,
        "speedup": reference_s / compiled_s,
        "identical": identical,
        "ok": identical,
    }


def bench_timing(network, netlist, arch, placement, width):
    """Criticality-driven PAR vs the default flow at the min routable width.

    Measurements at the same channel width:

    * the default flow's route (wirelength objective on the bench
      placement) -- the delay baseline;
    * ``objective="timing"`` route-only on the *same* placement, isolating
      the router's contribution;
    * the full timing flow: the *incremental-STA* placer
      (``timing_driven_placement``) + timing route -- the headline
      delay-ratio number gated by ``check_quality.py``;
    * the candidate-anneal placer (the ``candidates_timing_placement``
      oracle), timed and routed next to it: the
      incremental placer must reach (or beat) its routed critical path --
      deterministic for the fixed seed, so ``check_quality.py`` gates the
      ratio -- and the wall-time ratio documents the ~x0.4 placement cost
      (recorded, not gated: wall clock is machine-load dependent).

    The timing route's wirelength is banded against the ``route_reference``
    oracle's route *on the incremental placement* (the router-quality claim), and
    one criticality update is timed to document the per-PathFinder-
    iteration cost of the feedback loop.
    """
    device = build_device(arch.with_channel_width(width))

    base = route(netlist, placement, device)
    a_base = analyze(netlist, base, device, placement=placement)

    t0 = time.perf_counter()
    timed_route = route(
        netlist, placement, device,
        objective="timing", criticality_exponent=2.0,
    )
    route_timing_s = time.perf_counter() - t0
    a_route = analyze(netlist, timed_route, device, placement=placement)

    flow_result, place_timing_s = _timed(
        lambda: timing_driven_placement(
            netlist, arch, seed=PLACE_SEEDS[0], effort=PLACE_EFFORT
        ),
        repeats=2,
    )
    flow_placement = flow_result.placement
    flow_route = route(
        netlist, flow_placement, device,
        objective="timing", criticality_exponent=2.0,
    )
    a_flow = analyze(netlist, flow_route, device, placement=flow_placement)
    ref_on_flow = route_reference(netlist, flow_placement, device)

    # PR 4's candidate-anneal placer on the same seed: the comparison
    # baseline for the incremental-STA placer's quality/time claims.
    # Both placers are timed best-of-2 (they are deterministic, so only
    # the wall time varies): the time *ratio* is the recorded claim and a
    # single loaded sample on either side would skew it.
    cand_result, place_cand_s = _timed(
        lambda: candidates_timing_placement(
            netlist, arch, seed=PLACE_SEEDS[0], effort=PLACE_EFFORT
        ),
        repeats=2,
    )
    cand_placement = cand_result.placement
    cand_route = route(
        netlist, cand_placement, device,
        objective="timing", criticality_exponent=2.0,
    )
    a_cand = analyze(netlist, cand_route, device, placement=cand_placement)

    # Cost of one criticality update (route-tree walk + two STA scans),
    # paid once per PathFinder iteration in timing mode (the dict-walk
    # baseline; the flat-forest path is benchmarked in bench_retime).
    tracker = CriticalityTracker(netlist, flow_placement, device)
    t0 = time.perf_counter()
    criticality_update(tracker, flow_route.routes)
    crit_update_s = time.perf_counter() - t0

    delay_ratio_route = a_route.critical_path_ns / a_base.critical_path_ns
    delay_ratio_flow = a_flow.critical_path_ns / a_base.critical_path_ns
    placer_cp_ratio = a_flow.critical_path_ns / a_cand.critical_path_ns
    placer_time_ratio = place_timing_s / place_cand_s
    wl_band_ratio = flow_route.wirelength / ref_on_flow.wirelength
    converged = (
        base.success and timed_route.success and flow_route.success
        and cand_route.success
    )
    depth_ok = a_base.logic_depth == network.depth()
    ok = (
        converged
        and depth_ok
        and delay_ratio_flow <= 1.0
        and wl_band_ratio <= TIMING_WL_BAND
        and placer_cp_ratio <= 1.0 + 1e-9
    )
    return {
        "workload": (
            f"{len(netlist.nets)} nets at W={width} (min routable), "
            f"STA over {len(netlist.blocks)} blocks"
        ),
        "channel_width_used": width,
        "logic_depth": a_base.logic_depth,
        "logic_depth_matches_network": depth_ok,
        "critical_path_ns_wirelength": a_base.critical_path_ns,
        "critical_path_ns_timing_route": a_route.critical_path_ns,
        "critical_path_ns_timing_flow": a_flow.critical_path_ns,
        "critical_path_ns_candidates_placer": a_cand.critical_path_ns,
        "delay_ratio_route": delay_ratio_route,
        "delay_ratio_flow": delay_ratio_flow,
        "delay_target": TIMING_DELAY_TARGET,
        "delay_target_met": delay_ratio_flow <= TIMING_DELAY_TARGET,
        "placer_cp_ratio": placer_cp_ratio,
        "placer_time_ratio": placer_time_ratio,
        "placer_time_target_met": placer_time_ratio <= 0.5,
        "wirelength_wirelength": base.wirelength,
        "wirelength_timing_route": timed_route.wirelength,
        "wirelength_timing_flow": flow_route.wirelength,
        "wirelength_reference_on_flow_placement": ref_on_flow.wirelength,
        "timing_wl_band": TIMING_WL_BAND,
        "timing_wl_band_ratio": wl_band_ratio,
        "success_wirelength": base.success,
        "success_timing_route": timed_route.success,
        "success_timing_flow": flow_route.success,
        "success_candidates_placer": cand_route.success,
        "iterations_timing_route": timed_route.iterations,
        "iterations_timing_flow": flow_route.iterations,
        "route_timing_seconds": route_timing_s,
        "timing_placement_seconds": place_timing_s,
        "candidates_placement_seconds": place_cand_s,
        "criticality_update_seconds": crit_update_s,
        "ok": ok,
    }, flow_placement, flow_route


def bench_retime(netlist, arch, placement, width):
    """Flat route forest vs the per-net dict walk: extraction + retime cost.

    Both sides do the same semantic work -- exact routed delays out of the
    route trees, two STA scans, criticalities folded per connection -- and
    are asserted bit-identical first.  The flat path is measured in the
    steady state (``update_flat`` on the route's own forest) and with
    1-in-``RETIME_REROUTED_FRACTION`` nets freshly re-routed (those nets'
    fragments re-flattened from their connection lists + full reassembly,
    then the retime), which brackets what a real PathFinder iteration pays.
    Interleaved best-of-N like the routing benches: drifting machine load
    hits both sides alike.
    """
    device = build_device(arch.with_channel_width(width))
    rr = device.rr_graph
    routing = route(netlist, placement, device)
    routes = routing.routes
    tracker = CriticalityTracker(netlist, placement, device, exponent=2.0)

    # -- bit-identity first: flat vs dict must agree to the last bit ------
    flat = tracker.update_flat(routing.forest).copy()
    legacy = criticality_update(tracker, routes)
    crit_identical = all(
        flat[tracker.conn_index[key]] == value for key, value in legacy.items()
    ) and all(
        flat[cid] == 0.0
        for key, cid in tracker.conn_index.items()
        if key not in legacy
    )
    graph = tracker.graph
    d_dict, w_dict, p_dict = routed_edge_delays_reference(graph, routes, placement, device)
    d_flat, w_flat, p_flat = routed_edge_delays(graph, routing.forest, placement, device)
    delays_identical = (
        np.array_equal(d_dict, d_flat)
        and np.array_equal(w_dict, w_flat)
        and np.array_equal(p_dict, p_flat)
    )

    # Perturbed forests: every rebuild re-flattens a different 5% slice of
    # the nets from their connection lists and reassembles the whole forest.
    fragments = [
        (nid, _fragment_from_conns(r.nodes[0], r.connections))
        for nid, r in sorted(routes.items())
    ]

    def retime_rerouted(k):
        frags = list(fragments)
        for i in range(k, len(frags), RETIME_REROUTED_FRACTION):
            nid = frags[i][0]
            frags[i] = (nid, _fragment_from_conns(routes[nid].nodes[0], routes[nid].connections))
        return tracker.update_flat(build_route_forest(frags, rr))

    repeats = 15
    t_dict = t_steady = t_rerouted = None
    t_ext_dict = t_ext_flat = None
    for i in range(repeats):
        _, dt = _timed(lambda: criticality_update(tracker, routes))
        t_dict = dt if t_dict is None else min(t_dict, dt)
        _, dt = _timed(lambda: tracker.update_flat(routing.forest))
        t_steady = dt if t_steady is None else min(t_steady, dt)
        _, dt = _timed(lambda: retime_rerouted(i % RETIME_REROUTED_FRACTION))
        t_rerouted = dt if t_rerouted is None else min(t_rerouted, dt)
        _, dt = _timed(lambda: routed_edge_delays_reference(graph, routes, placement, device))
        t_ext_dict = dt if t_ext_dict is None else min(t_ext_dict, dt)
        _, dt = _timed(lambda: routed_edge_delays(graph, routing.forest, placement, device))
        t_ext_flat = dt if t_ext_flat is None else min(t_ext_flat, dt)

    steady_speedup = t_dict / t_steady
    rerouted_speedup = t_dict / t_rerouted
    extraction_speedup = t_ext_dict / t_ext_flat
    identical = crit_identical and delays_identical
    return {
        "workload": (
            f"{len(netlist.nets)} nets / {routing.wirelength} wires routed at "
            f"W={width}; {tracker.num_connections} connections, "
            f"{graph.num_edges} timing edges"
        ),
        "extraction_dict_seconds": t_ext_dict,
        "extraction_flat_seconds": t_ext_flat,
        "extraction_speedup": extraction_speedup,
        "retime_dict_seconds": t_dict,
        "retime_flat_steady_seconds": t_steady,
        "retime_flat_rerouted_seconds": t_rerouted,
        "retime_speedup": steady_speedup,
        "retime_speedup_rerouted": rerouted_speedup,
        "rerouted_fraction": 1.0 / RETIME_REROUTED_FRACTION,
        "speedup_floor": RETIME_SPEEDUP_FLOOR,
        "speedup_floor_met": steady_speedup >= RETIME_SPEEDUP_FLOOR,
        "criticality_identical": crit_identical,
        "delays_identical": delays_identical,
        "ok": identical and steady_speedup >= RETIME_SPEEDUP_FLOOR,
    }


def bench_resilience(netlist, arch, placement, width):
    """The resilient execution path must be free when nothing fails.

    Two claims are measured and gated (see RESILIENCE.md):

    * a fault-free ``route_resilient`` call returns the *bit-identical*
      result of a plain ``route`` call -- same wirelength, same iteration
      count, same per-net node lists -- with an empty recovery-event log
      (``check_quality.py`` fails the build on any retry event);
    * the disabled injection hook ``repro.util.inject`` is cheap enough
      for hot loops: one module-global load + a ``None`` compare, measured
      here in ns/call next to a dict-lookup baseline for scale.

    The section runs under ``fault_plan(None)`` so a stray ambient
    ``REPRO_FAULT_PLAN`` in the environment cannot turn the fault-free
    measurement into a chaos run.
    """
    from repro.par.routing import route_resilient
    from repro.util import count_events, fault_plan, inject

    with fault_plan(None):
        device = build_device(arch.with_channel_width(width))
        base, base_s = _timed(
            lambda: route(netlist, placement, device)
        )
        events = []
        res, res_s = _timed(
            lambda: route_resilient(
                netlist, placement, device, events=events
            )
        )
        identical = (
            res.success == base.success
            and res.wirelength == base.wirelength
            and res.iterations == base.iterations
            and all(res.routes[k].nodes == r.nodes for k, r in base.routes.items())
        )
        zero_events = len(events) == 0
        retries = count_events(events, "route-retry")

        # ns/call of the disabled hook, best of 3 sweeps.
        calls = 200_000
        inject_ns = None
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                inject("bench.site")
            dt = (time.perf_counter() - t0) / calls * 1e9
            inject_ns = dt if inject_ns is None else min(inject_ns, dt)

    return {
        "workload": (
            f"{len(netlist.nets)} nets at W={width}: route_resilient vs route, "
            f"disabled inject() x{calls}"
        ),
        "route_seconds": base_s,
        "route_resilient_seconds": res_s,
        "overhead_ratio": res_s / base_s if base_s else 1.0,
        "inject_disabled_ns_per_call": inject_ns,
        "identical_outputs": identical,
        "recovery_events": len(events),
        "retry_events": retries,
        "ok": identical and zero_events,
    }


def bench_native(netlist, arch, placement, width):
    """Native C kernels vs their pure-Python twins: warm speed + bit-identity.

    Both backends run warm (the device and the compiled ``.so`` exist
    before the timed region) on the routing section's placement and channel
    width.  The Python twin builds its list mirrors of the graph inside each
    timed route, as every route call does.  The annealer comparison re-runs
    the batched placement kernel across the bench seeds.  Identity is
    literal: same route node lists, same placements, same exact-int costs
    and counters -- the compiled kernels are twins, not approximations.
    """
    from repro.native import status as native_status

    st = native_status()
    available = bool(st.get("astar")) and bool(st.get("annealer"))
    if not available:
        # No compiler on PATH or REPRO_NATIVE=0: the Python kernels are the
        # backend and there is nothing to compare.  Graceful absence is
        # covered by tests/test_native.py, not gated here.
        return {
            "workload": "native backend unavailable",
            "available": False,
            "build": st,
            "ok": True,
        }

    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, max_iterations=1)  # warm

    nat_route = py_route = None
    nat_s = py_s = None
    for _ in range(3):
        nat_i, dt_n = _timed(lambda: route(netlist, placement, device))
        with _python_kernels():
            py_i, dt_p = _timed(
                lambda: route(netlist, placement, device)
            )
        if nat_s is None or dt_n < nat_s:
            nat_route, nat_s = nat_i, dt_n
        if py_s is None or dt_p < py_s:
            py_route, py_s = py_i, dt_p

    astar_identical = (
        nat_route.success == py_route.success
        and nat_route.wirelength == py_route.wirelength
        and nat_route.iterations == py_route.iterations
        and all(
            nat_route.routes[k].nodes == r.nodes
            for k, r in py_route.routes.items()
        )
    )
    # The timing objective exercises the lookahead's delay term; identity
    # must hold there too (not separately timed -- the expansion loop is
    # the same code path).
    t_nat = route(netlist, placement, device, objective="timing")
    with _python_kernels():
        t_py = route(netlist, placement, device, objective="timing")
    astar_timing_identical = (
        t_nat.wirelength == t_py.wirelength
        and all(t_nat.routes[k].nodes == r.nodes for k, r in t_py.routes.items())
    )

    def _place_all():
        return [
            place(netlist, arch, seed=s, effort=PLACE_EFFORT)
            for s in PLACE_SEEDS
        ]

    _place_all()  # warm (first call pays the one-time ctypes binding setup)
    nat_places, anneal_nat_s = _timed(_place_all)
    with _python_kernels():
        py_places, anneal_py_s = _timed(_place_all)
    anneal_identical = all(
        a.cost == b.cost
        and a.moves_attempted == b.moves_attempted
        and a.moves_accepted == b.moves_accepted
        and a.temperature_steps == b.temperature_steps
        and {k: v.as_tuple() for k, v in a.placement.block_site.items()}
        == {k: v.as_tuple() for k, v in b.placement.block_site.items()}
        for a, b in zip(nat_places, py_places)
    )

    astar_speedup = py_s / nat_s
    anneal_speedup = anneal_py_s / anneal_nat_s
    identical = astar_identical and astar_timing_identical and anneal_identical
    return {
        "workload": (
            f"{len(netlist.nets)} nets, W={width}, "
            f"{device.rr_graph.num_nodes} RR nodes; anneal seeds {PLACE_SEEDS} "
            f"at effort {PLACE_EFFORT}"
        ),
        "available": True,
        "build": st,
        "astar_python_seconds": py_s,
        "astar_native_seconds": nat_s,
        "astar_speedup": astar_speedup,
        "astar_identical": astar_identical,
        "astar_timing_identical": astar_timing_identical,
        "anneal_python_seconds": anneal_py_s,
        "anneal_native_seconds": anneal_nat_s,
        "anneal_speedup": anneal_speedup,
        "anneal_identical": anneal_identical,
        "astar_speedup_floor": NATIVE_ASTAR_SPEEDUP_FLOOR,
        "anneal_speedup_floor": NATIVE_ANNEAL_SPEEDUP_FLOOR,
        "astar_speedup_floor_met": astar_speedup >= NATIVE_ASTAR_SPEEDUP_FLOOR,
        "anneal_speedup_floor_met": anneal_speedup >= NATIVE_ANNEAL_SPEEDUP_FLOOR,
        "ok": identical and astar_speedup >= 1.0 and anneal_speedup >= 1.0,
    }


def bench_reconfig(arch):
    """Multi-context scheduler: diff-switch identity + serving throughput.

    A seeded synthetic library over the bench grid's configuration layout
    (a shared base configuration, each context re-programming a random
    quarter of the logic tiles -- the structure micro-reconfiguration
    exploits) is replayed against a Zipf-skewed trace under a
    ``RECONFIG_BUDGET_FRACTION`` residency budget.  The gated invariant is
    bit-identity: after *every* diff switch the active plane must equal the
    target's full frame image.  Throughput numbers (contexts/sec, amortized
    switch cost) come from the modelled MiCAP frame costs; the scheduler's
    own Python overhead is recorded as wall time per request.
    """
    from repro.fpga.bitstream import Bitstream
    from repro.reconfig import (
        ContextLibrary,
        ReconfigScheduler,
        popularity_weights,
        replay,
        synthetic_trace,
    )

    device = build_device(arch)
    layout = device.config_layout
    clbs = [
        (x, y)
        for x in range(arch.width)
        for y in range(arch.height)
        if arch.contains_clb(x, y)
    ]
    rng = np.random.Generator(np.random.PCG64(2024))
    lut_mask = (1 << layout.lut_bits) - 1
    base = {site: int(rng.integers(1, lut_mask + 1)) for site in clbs}

    library = ContextLibrary(layout)
    weights = popularity_weights(RECONFIG_CONTEXTS, skew=1.2)
    for i in range(RECONFIG_CONTEXTS):
        bitstream = Bitstream(layout)
        for (x, y), bits in base.items():
            bitstream.set_lut_config(x, y, bits)
        for idx in rng.choice(len(clbs), size=max(1, len(clbs) // 4), replace=False):
            x, y = clbs[int(idx)]
            bitstream.set_lut_config(x, y, int(rng.integers(1, lut_mask + 1)))
        library.add_bitstream(f"ctx{i}", bitstream, criticality=float(weights[i]))

    total = library.total_frames()
    budget = max(1, int(total * RECONFIG_BUDGET_FRACTION))
    trace = synthetic_trace(
        library.names(), RECONFIG_TRACE_LENGTH, seed=1, skew=1.2, repeat=0.25
    )

    # Identity pass: every diff-applied switch must land bit-identical to a
    # full reconfiguration of the target.  This is the gated claim.
    scheduler = ReconfigScheduler(library, budget_frames=budget)
    diff_identical = all(
        scheduler.switch_to(name) is not None
        and scheduler.active_image == library[name].image
        for name in trace
    )

    report, wall_s = _timed(
        lambda: replay(ReconfigScheduler(library, budget_frames=budget), trace),
        repeats=3,
    )

    return {
        "workload": (
            f"{RECONFIG_CONTEXTS} contexts x {total} frames on "
            f"{arch.width}x{arch.height} ({len(clbs)} logic tiles), "
            f"{RECONFIG_TRACE_LENGTH}-request Zipf trace, budget {budget} frames"
        ),
        "num_contexts": RECONFIG_CONTEXTS,
        "library_frames": total,
        "budget_frames": budget,
        "requests": report.requests,
        "hit_rate": report.hit_rate,
        "contexts_per_sec": report.contexts_per_sec,
        "amortized_switch_ms": report.amortized_switch_ms,
        "frame_savings": report.frame_savings,
        "evictions": report.evictions,
        "rejected_admissions": report.rejected_admissions,
        "scheduler_wall_seconds": wall_s,
        "wall_us_per_request": wall_s / report.requests * 1e6,
        "diff_identical": diff_identical,
        "ok": diff_identical and report.hit_rate > 0.0 and report.frame_savings > 0.0,
    }


def _trace_record_cost():
    """Enabled tracing cost: ``(fixed_ns, per_record_ns)``.

    Times ``tracing()`` blocks into a temporary Chrome trace: one with only
    an outer span (the install, the close-time counter snapshot and the
    seal: the fixed cost of a traced run) and one with
    ``OBS_PROBE_RECORDS`` child spans under that outer span (buffered and
    flushed every 512 records, as a traced workload's records are).  The
    per-record cost is the difference over the record count.  Each size
    keeps the fastest of ``OBS_PROBE_REPEATS`` probes.
    """
    import tempfile

    from repro.obs.trace import span, tracing

    def probe(path, n):
        t0 = time.perf_counter_ns()
        with tracing(path):
            with span("bench.obs.outer"):
                for i in range(n):
                    with span("bench.obs.record", i=i):
                        pass
        return time.perf_counter_ns() - t0

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.json")
        fixed = min(probe(path, 0) for _ in range(OBS_PROBE_REPEATS))
        full = min(probe(path, OBS_PROBE_RECORDS) for _ in range(OBS_PROBE_REPEATS))
    return fixed, max(0.0, (full - fixed) / OBS_PROBE_RECORDS)


def bench_obs(netlist, arch, placement, width):
    """Observability overhead: disabled span cost + traced-run slowdown.

    Two gated claims (see OBSERVABILITY.md): with tracing *disabled* a
    ``span()`` call is one global load plus a ``None`` compare, measured
    here in ns/call; with tracing *enabled* the same place+route workload
    slows down by at most ``OBS_SLOWDOWN_CEILING``, produces bit-identical
    results, and leaves a valid Chrome ``trace_event`` file at
    ``BENCH_trace.json`` (loadable in chrome://tracing / Perfetto;
    uploaded as a CI artifact).

    The gated slowdown is an estimate that does not move with machine
    load: the records the traced run wrote times the measured enabled
    cost of one record, plus the fixed cost of a traced run (see
    :func:`_trace_record_cost`), over the untraced wall time.  Tracing
    adds nothing but those records (instrumentation reads clocks and
    appends records; nothing else runs differently when it is on).  The
    wall-clock ratios of ``OBS_PAIRS`` interleaved pairs (alternating
    which side runs first) are recorded next to it, ungated: on a shared
    2-vCPU host the per-pair ratios of one tree ranged 0.73-1.29, so a
    1.05 gate on them measured the host, not the tracer.
    """
    from repro.obs.trace import clear as obs_clear
    from repro.obs.trace import span, tracing

    device = build_device(arch.with_channel_width(width))
    route(netlist, placement, device, max_iterations=1)  # warm view

    obs_clear()  # measure the disabled fast path, not an inherited tracer
    n = 200_000
    t0 = time.perf_counter_ns()
    for _ in range(n):
        with span("bench.obs"):
            pass
    disabled_ns = (time.perf_counter_ns() - t0) / n

    def workload():
        placed = place(netlist, arch, seed=0, effort=PLACE_EFFORT)
        routed = route(netlist, placement, device)
        return placed, routed

    def traced():
        with tracing(str(TRACE_PATH)):
            return _timed(workload)

    off_times, on_times, ratios = [], [], []
    for i in range(OBS_PAIRS):
        if i % 2 == 0:
            off, dt_off = _timed(workload)
            on, dt_on = traced()
        else:
            on, dt_on = traced()
            off, dt_off = _timed(workload)
        off_times.append(dt_off)
        on_times.append(dt_on)
        ratios.append(dt_on / dt_off)

    identical = (
        on[0].cost == off[0].cost
        and on[0].placement.block_site == off[0].placement.block_site
        and on[1].wirelength == off[1].wirelength
        and all(on[1].routes[k].nodes == r.nodes for k, r in off[1].routes.items())
    )

    trace_events = []
    try:
        trace_events = json.loads(TRACE_PATH.read_text())
        trace_valid = isinstance(trace_events, list)
    except (OSError, json.JSONDecodeError):
        trace_valid = False
    names = {e.get("name") for e in trace_events} if trace_valid else set()
    trace_complete = {"par.place", "par.route", "route.overuse", "place.cost"} <= names

    # The trace file holds the last traced run's records, the
    # close-time counter snapshot and the seal included.
    fixed_ns, per_record_ns = _trace_record_cost()
    untraced_seconds = statistics.median(off_times)
    overhead_s = (fixed_ns + len(trace_events) * per_record_ns) / 1e9
    estimated = 1.0 + overhead_s / untraced_seconds

    telemetry = on[1].telemetry or {}
    return {
        "workload": (
            f"place(effort={PLACE_EFFORT}) + astar route of {len(netlist.nets)} "
            f"nets at W={width}; gated: trace records x enabled cost per record "
            f"/ untraced wall time; ungated: median wall-clock ratio of {OBS_PAIRS} "
            "interleaved pairs, order alternated"
        ),
        "disabled_ns_per_call": disabled_ns,
        "disabled_ns_ceiling": OBS_DISABLED_NS_CEILING,
        "untraced_seconds": untraced_seconds,
        "traced_seconds": statistics.median(on_times),
        "trace_fixed_ns": fixed_ns,
        "trace_ns_per_record": per_record_ns,
        "estimated_slowdown": estimated,
        "slowdown_ceiling": OBS_SLOWDOWN_CEILING,
        "wall_pair_ratios": ratios,
        "wall_slowdown": statistics.median(ratios),
        "identical_outputs": identical,
        "trace_path": str(TRACE_PATH),
        "trace_events": len(trace_events),
        "chrome_trace_valid": trace_valid,
        "trace_complete": trace_complete,
        "route_iterations_in_telemetry": len(
            telemetry.get("overuse_per_iteration", ())
        ),
        "ok": (
            disabled_ns <= OBS_DISABLED_NS_CEILING
            and estimated <= OBS_SLOWDOWN_CEILING
            and identical
            and trace_valid
            and trace_complete
        ),
    }


def main() -> int:
    circuit, network, netlist, arch = _build_workload()

    print("benchmarking simulation kernel ...")
    sim = bench_simulation(circuit)
    print("benchmarking placement kernels ...")
    placement_result, placement = bench_placement(netlist, arch)
    print("benchmarking routing kernels ...")
    routing_result, width = bench_routing(netlist, arch, placement)
    print("benchmarking RR-graph build ...")
    rr_build_result = bench_rr_build(arch, width)
    print("benchmarking SCG specialization ...")
    scg_result = bench_scg()
    print("benchmarking timing-driven PAR ...")
    timing_result, flow_placement, _flow_route = bench_timing(
        network, netlist, arch, placement, width
    )
    print("benchmarking flat-forest retime ...")
    retime_result = bench_retime(netlist, arch, flow_placement, width)
    print("benchmarking resilient execution path ...")
    resilience_result = bench_resilience(netlist, arch, placement, width)
    print("benchmarking native kernels ...")
    native_result = bench_native(netlist, arch, placement, width)
    print("benchmarking multi-context reconfiguration ...")
    reconfig_result = bench_reconfig(arch)
    print("benchmarking observability overhead ...")
    obs_result = bench_obs(netlist, arch, placement, width)

    report = {
        "config": {
            "fp_format": {"we": BENCH_FP_FORMAT.we, "wf": BENCH_FP_FORMAT.wf},
            "full_mode": FULL_MODE,
            "sim_patterns": SIM_PATTERNS,
            "place_seeds": PLACE_SEEDS,
            "place_effort": PLACE_EFFORT,
            "batched_effort": BATCHED_EFFORT,
            "channel_width_start": CHANNEL_WIDTH,
            "python": platform.python_version(),
        },
        "kernels": {
            "simulation": sim,
            "placement": placement_result,
            "routing": routing_result,
            "rr_build": rr_build_result,
            "scg": scg_result,
            "timing": timing_result,
            "retime": retime_result,
            "resilience": resilience_result,
            "native": native_result,
            "reconfig": reconfig_result,
            "obs": obs_result,
        },
    }
    # Sections owned by satellite benches (e.g. bench_service_throughput's
    # kernels.service) are carried over, so re-running this bench never
    # erases a gate another bench wrote.
    carried = set()
    if RESULT_PATH.exists():
        try:
            previous = json.loads(RESULT_PATH.read_text()).get("kernels", {})
        except ValueError:
            previous = {}
        for name, section in previous.items():
            if name not in report["kernels"]:
                report["kernels"][name] = section
                carried.add(name)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    ok = True
    for name, entry in report["kernels"].items():
        if name in carried:
            print(f"{name:11s} ...  carried over (re-run its own bench to refresh)")
            continue
        flag = "OK " if entry["ok"] else "FAIL"
        ok = ok and entry["ok"]
        if name == "routing":
            print(
                f"{name:11s} {flag} astar={entry['astar_seconds'] * 1000:8.1f}ms "
                f"reference={entry['reference_seconds'] * 1000:8.1f}ms "
                f"({entry['speedup']:5.2f}x) "
                f"wl_ratio={entry['astar_wirelength_ratio']:.4f} "
                f"W={entry['channel_width_used']}"
            )
        elif name == "rr_build":
            print(
                f"{name:11s} {flag} "
                + ", ".join(
                    f"W={w} {v['build_s'] * 1000:6.1f}ms vs reference "
                    f"{v['reference_s'] * 1000:6.1f}ms ({v['speedup']:.1f}x)"
                    for w, v in entry["widths"].items()
                )
                + f" identical={entry['identical']}"
            )
        elif name == "scg":
            print(
                f"{name:11s} {flag} compiled {entry['compiled_ms_per_update']:.3f}ms "
                f"vs reference {entry['reference_ms_per_update']:.3f}ms per update "
                f"({entry['speedup']:.1f}x), compile {entry['compile_ms']:.1f}ms, "
                f"identical={entry['identical']}"
            )
        elif name == "timing":
            print(
                f"{name:11s} {flag} cp {entry['critical_path_ns_wirelength']:6.1f}ns -> "
                f"route {entry['critical_path_ns_timing_route']:6.1f}ns / "
                f"flow {entry['critical_path_ns_timing_flow']:6.1f}ns "
                f"(ratio {entry['delay_ratio_flow']:.3f}, "
                f"wl_band {entry['timing_wl_band_ratio']:.4f}; placer vs "
                f"candidates cp {entry['placer_cp_ratio']:.3f}x at "
                f"{entry['placer_time_ratio']:.2f}x time)"
            )
        elif name == "retime":
            print(
                f"{name:11s} {flag} dict {entry['retime_dict_seconds'] * 1000:6.2f}ms -> "
                f"flat {entry['retime_flat_steady_seconds'] * 1000:5.2f}ms steady / "
                f"{entry['retime_flat_rerouted_seconds'] * 1000:5.2f}ms rerouted "
                f"({entry['retime_speedup']:.2f}x / {entry['retime_speedup_rerouted']:.2f}x, "
                f"extract {entry['extraction_speedup']:.2f}x, "
                f"identical={entry['criticality_identical'] and entry['delays_identical']})"
            )
        elif name == "resilience":
            print(
                f"{name:11s} {flag} route {entry['route_seconds'] * 1000:7.1f}ms vs "
                f"resilient {entry['route_resilient_seconds'] * 1000:7.1f}ms "
                f"(x{entry['overhead_ratio']:.3f}), disabled inject "
                f"{entry['inject_disabled_ns_per_call']:.0f}ns/call, "
                f"events={entry['recovery_events']}"
            )
        elif name == "native":
            if not entry.get("available"):
                print(f"{name:11s} {flag} {entry['workload']}")
            else:
                print(
                    f"{name:11s} {flag} astar py "
                    f"{entry['astar_python_seconds'] * 1000:7.1f}ms -> native "
                    f"{entry['astar_native_seconds'] * 1000:6.1f}ms "
                    f"({entry['astar_speedup']:.2f}x); anneal py "
                    f"{entry['anneal_python_seconds'] * 1000:7.1f}ms -> native "
                    f"{entry['anneal_native_seconds'] * 1000:6.1f}ms "
                    f"({entry['anneal_speedup']:.2f}x); identical="
                    f"{entry['astar_identical'] and entry['anneal_identical']}"
                )
        elif name == "reconfig":
            print(
                f"{name:11s} {flag} {entry['contexts_per_sec']:6.0f} ctx/s "
                f"({entry['amortized_switch_ms']:.3f}ms/switch modelled, "
                f"{entry['wall_us_per_request']:.0f}us/req wall), "
                f"hit_rate={entry['hit_rate']:.2f} "
                f"frame_savings={entry['frame_savings']:.2f} "
                f"identical={entry['diff_identical']}"
            )
        elif name == "obs":
            print(
                f"{name:11s} {flag} disabled span "
                f"{entry['disabled_ns_per_call']:.0f}ns/call, traced slowdown "
                f"x{entry['estimated_slowdown']:.4f} estimated "
                f"(wall x{entry['wall_slowdown']:.3f}, "
                f"untraced {entry['untraced_seconds'] * 1000:.1f}ms), "
                f"identical={entry['identical_outputs']} "
                f"trace={entry['trace_events']}ev valid={entry['chrome_trace_valid']}"
            )
        elif name == "placement":
            b = entry["batched"]
            print(
                f"{name:11s} {flag} batched {b['speedup_vs_reference']:5.2f}x "
                f"of reference at hpwl_ratio={b['mean_hpwl_ratio']:.4f}"
            )
        else:
            print(
                f"{name:11s} {flag} speedup={entry['speedup']:6.2f}x  "
                f"ref={entry['reference_seconds'] * 1000:8.1f}ms  "
                f"fast={entry['fast_seconds'] * 1000:8.1f}ms"
            )
    print(f"wrote {RESULT_PATH}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
