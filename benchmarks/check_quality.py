"""Quality gate over ``BENCH_hotpaths.json`` for CI.

Runs in the PR-time ``hotpath-bench`` job and in the nightly REPRO_FULL
workflow (same gate, different benchmark scale).  Fails (exit 1) when the
benchmark shows

* routing non-convergence (the ``astar`` router did not reach ``success``),
* a quality regression beyond 10% -- astar wirelength vs the reference
  route, or batched-placement mean HPWL vs the reference kernel,
* a broken bit-identity claim (compiled simulation vs interpreter, the
  closed-form RR-graph builder vs the per-edge append builder, or the
  compiled-PPC specialization vs the per-update reference),
* a timing-subsystem failure: the ``objective="timing"`` flow's route did
  not converge, the timing flow's critical path regressed more than 10%
  over the default flow's, its wirelength left the 10% band of the
  reference route on its own placement, or the STA logic depth diverged
  from the mapped network's,
* an incremental-STA placer regression: its routed critical path must not
  exceed the PR 4 candidate-anneal placer's (both deterministic for the
  bench seed, so this gate carries no machine noise),
* a flat-forest delay-extraction failure: the routed delays extracted
  from the route forest must stay bit-identical to the dict walk,
* a resilience regression: the fault-free ``route_resilient`` path diverged
  from a plain ``route`` call, or logged recovery/retry events with
  no fault injected (zero events is the fault-free contract, see
  RESILIENCE.md),
* a native-backend failure: compiled astar routes or annealer trajectories
  diverged from their Python twins (identity is the contract that keeps
  the cached artifacts backend-independent), or a compiled kernel measured
  *slower* than the Python twin it replaces,
* a reconfiguration-scheduler failure: a diff-applied context switch that
  is not bit-identical to a full reconfiguration of the target (the
  ``repro.reconfig`` invariant, see RECONFIGURATION.md), a missing
  section, or a skewed-trace replay with no residency hits or no frame
  savings at all (the scheduler stopped buying anything),
* an observability regression: the disabled ``span()`` fast path costs
  more than ``OBS_DISABLED_NS`` per call, a traced place+route run is
  estimated more than 5% slower than the untraced twin (its trace
  records times the measured cost of one record, over the untraced wall
  time; the wall-clock ratios are recorded, not gated), tracing perturbed the
  results (the trajectory-neutrality contract, see OBSERVABILITY.md),
  or the emitted Chrome trace is invalid or missing expected spans,
* a service regression (``kernels.service``, written by
  ``bench_service_throughput.py``): a service-produced job result that is
  not bit-identical to a direct ``place_and_route`` call, recovery or
  restart events on a fault-free run, duplicate submissions that were not
  coalesced, a failed crash-recovery scenario, throughput below the
  ``SERVICE_JOBS_PER_SEC`` floor, or p99 completion latency above the
  ``SERVICE_P99_MS`` ceiling.

The thresholds here are looser than the in-benchmark ``ok`` flags on
purpose: this gate is about catching real regressions, not about
re-asserting the tight quality bands or the speedup floors measured on
quiet machines (the benchmark's own exit code carries those).

Run with::

    python benchmarks/check_quality.py [path/to/BENCH_hotpaths.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REGRESSION_BAND = 1.10  # >10% quality loss fails the nightly
OBS_DISABLED_NS = 2000.0  # issue 9: disabled span() per-call ceiling (ns)
OBS_SLOWDOWN = 1.05       # estimated traced/untraced place+route ratio ceiling
SERVICE_JOBS_PER_SEC = 0.2   # issue 10: unique-job throughput floor
SERVICE_P99_MS = 30_000.0    # issue 10: p99 completion latency ceiling


def check(report: dict) -> list:
    problems = []
    kernels = report.get("kernels", {})

    sim = kernels.get("simulation", {})
    if not sim.get("identical_outputs", False):
        problems.append("simulation: compiled engine no longer bit-identical")

    placement = kernels.get("placement", {})
    if not placement.get("exact_int_hpwl", False):
        problems.append("placement: HPWL accounting is no longer exact-int")
    batched = placement.get("batched", {})
    ratio = batched.get("mean_hpwl_ratio")
    if ratio is None:
        problems.append("placement: batched quality baseline missing")
    elif ratio > REGRESSION_BAND:
        problems.append(
            f"placement: batched mean HPWL {ratio:.3f}x of reference "
            f"(> {REGRESSION_BAND}x)"
        )

    routing = kernels.get("routing", {})
    if not routing.get("success_astar", False):
        problems.append("routing: astar kernel did not converge (success_astar false)")
    wl_ratio = routing.get("astar_wirelength_ratio")
    if wl_ratio is None:
        problems.append("routing: astar wirelength ratio missing")
    elif wl_ratio > REGRESSION_BAND:
        problems.append(
            f"routing: astar wirelength {wl_ratio:.3f}x of the reference route "
            f"(> {REGRESSION_BAND}x)"
        )

    rr_build = kernels.get("rr_build", {})
    if not rr_build:
        problems.append("rr_build: benchmark section missing")
    elif not rr_build.get("identical", False):
        problems.append("rr_build: the RR-graph builder diverged from the reference builder")

    scg = kernels.get("scg", {})
    if not scg:
        problems.append("scg: benchmark section missing")
    elif not scg.get("identical", False):
        problems.append("scg: compiled PPC specialization diverged from the reference")

    timing = kernels.get("timing", {})
    if not timing:
        problems.append("timing: benchmark section missing")
    else:
        if not timing.get("success_timing_flow", False):
            problems.append("timing: timing-driven flow did not converge")
        if not timing.get("logic_depth_matches_network", False):
            problems.append("timing: STA logic depth diverged from the mapped network")
        delay_ratio = timing.get("delay_ratio_flow")
        if delay_ratio is None:
            problems.append("timing: flow delay ratio missing")
        elif delay_ratio > REGRESSION_BAND:
            problems.append(
                f"timing: flow critical path {delay_ratio:.3f}x of the default "
                f"flow (> {REGRESSION_BAND}x)"
            )
        band = timing.get("timing_wl_band_ratio")
        if band is None:
            problems.append("timing: wirelength band ratio missing")
        elif band > REGRESSION_BAND:
            problems.append(
                f"timing: timing-flow wirelength {band:.3f}x of the reference "
                f"route (> {REGRESSION_BAND}x)"
            )
        placer_ratio = timing.get("placer_cp_ratio")
        if placer_ratio is None:
            problems.append("timing: incremental-vs-candidates placer ratio missing")
        elif placer_ratio > 1.0 + 1e-9:
            problems.append(
                f"timing: incremental-STA placer critical path {placer_ratio:.3f}x "
                "of the candidate-anneal placer (must match or beat it)"
            )

    retime = kernels.get("retime", {})
    if not retime:
        problems.append("retime: benchmark section missing")
    elif not retime.get("delays_identical", False):
        problems.append("retime: flat routed delays diverged from the dict walk")

    resilience = kernels.get("resilience", {})
    if not resilience:
        problems.append("resilience: benchmark section missing")
    else:
        if not resilience.get("identical_outputs", False):
            problems.append(
                "resilience: fault-free route_resilient diverged from plain route"
            )
        # The fault-free bench run must not take any recovery path at all:
        # a retry event here means a route failed, timed out or ended
        # congested with no fault injected, which is a real regression.
        if resilience.get("recovery_events", 1) != 0:
            problems.append(
                f"resilience: {resilience.get('recovery_events')} recovery "
                "event(s) on a fault-free benchmark run (expected zero)"
            )
        if resilience.get("retry_events", 1) != 0:
            problems.append("resilience: route retry on a fault-free benchmark run")

    native = kernels.get("native", {})
    if not native:
        problems.append("native: benchmark section missing")
    elif native.get("available"):
        for key, label in (
            ("astar_identical", "astar routes"),
            ("anneal_identical", "annealer trajectories"),
        ):
            if not native.get(key, False):
                problems.append(
                    f"native: {label} diverged between the C and Python backends"
                )
        for key, label in (("astar_speedup", "astar"), ("anneal_speedup", "annealer")):
            speedup = native.get(key)
            if speedup is None:
                problems.append(f"native: {label} speedup missing")
            elif speedup < 1.0:
                problems.append(
                    f"native: compiled {label} kernel measured slower than its "
                    f"Python twin ({speedup:.2f}x)"
                )

    reconfig = kernels.get("reconfig", {})
    if not reconfig:
        problems.append("reconfig: benchmark section missing")
    else:
        if not reconfig.get("diff_identical", False):
            problems.append(
                "reconfig: a diff-applied context switch is not bit-identical "
                "to a full reconfiguration of the target"
            )
        if not reconfig.get("hit_rate", 0.0) > 0.0:
            problems.append(
                "reconfig: zero residency hits on the skewed trace (the "
                "context memory stopped buying anything)"
            )
        if not reconfig.get("frame_savings", 0.0) > 0.0:
            problems.append(
                "reconfig: diff switches saved no frames over full "
                "reconfigurations on the skewed trace"
            )

    obs = kernels.get("obs", {})
    if not obs:
        problems.append("obs: benchmark section missing")
    else:
        disabled_ns = obs.get("disabled_ns_per_call")
        if disabled_ns is None:
            problems.append("obs: disabled span() cost missing")
        elif disabled_ns > OBS_DISABLED_NS:
            problems.append(
                f"obs: disabled span() costs {disabled_ns:.0f} ns/call "
                f"(> {OBS_DISABLED_NS:.0f} ns -- the zero-overhead "
                "contract of OBSERVABILITY.md)"
            )
        slowdown = obs.get("estimated_slowdown")
        if slowdown is None:
            problems.append("obs: estimated traced-run slowdown missing")
        elif slowdown > OBS_SLOWDOWN:
            problems.append(
                f"obs: traced place+route run estimated at {slowdown:.3f}x "
                f"of the untraced twin (> {OBS_SLOWDOWN}x)"
            )
        if not obs.get("identical_outputs", False):
            problems.append(
                "obs: tracing perturbed the place/route results "
                "(trajectory neutrality broken)"
            )
        if not obs.get("chrome_trace_valid", False):
            problems.append("obs: emitted Chrome trace is not valid JSON")
        if not obs.get("trace_complete", False):
            problems.append(
                "obs: Chrome trace is missing expected span/series names"
            )

    service = kernels.get("service", {})
    if not service:
        problems.append("service: benchmark section missing")
    else:
        if not service.get("bit_identical", False):
            problems.append(
                "service: a daemon-produced job result is not bit-identical "
                "to the direct place_and_route call (the service contract)"
            )
        # The mixed workload runs with no faults injected; any recovery
        # event, worker restart or journal drop there is a real failure
        # being absorbed, not chaos.
        if service.get("recovery_events", 1) != 0:
            problems.append(
                f"service: {service.get('recovery_events')} recovery "
                "event(s) on the fault-free workload (expected zero)"
            )
        if service.get("worker_restarts", 1) != 0:
            problems.append(
                "service: worker restarts on the fault-free workload"
            )
        if not service.get("coalesced_hits", 0) > 0:
            problems.append(
                "service: duplicate submissions were not coalesced"
            )
        jobs_per_sec = service.get("jobs_per_sec")
        if jobs_per_sec is None:
            problems.append("service: throughput measurement missing")
        elif jobs_per_sec < SERVICE_JOBS_PER_SEC:
            problems.append(
                f"service: {jobs_per_sec:.3f} unique jobs/sec "
                f"(< {SERVICE_JOBS_PER_SEC} floor)"
            )
        p99 = service.get("p99_latency_ms")
        if p99 is None:
            problems.append("service: p99 latency missing")
        elif p99 > SERVICE_P99_MS:
            problems.append(
                f"service: p99 completion latency {p99:.0f}ms "
                f"(> {SERVICE_P99_MS:.0f}ms ceiling)"
            )
        if not service.get("crash_recovered", False):
            problems.append(
                "service: the worker-crash scenario did not complete its job"
            )
        if not service.get("crash_bit_identical", False):
            problems.append(
                "service: the crash-recovered result is not bit-identical "
                "to the direct computation"
            )
    return problems


def main(argv) -> int:
    path = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"
    )
    report = json.loads(path.read_text())
    problems = check(report)
    if problems:
        for p in problems:
            print(f"QUALITY REGRESSION: {p}")
        return 1
    print(f"{path.name}: no quality regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
