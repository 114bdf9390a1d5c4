"""One benchmark workload in one process (started by ``run.py``).

Usage::

    PYTHONPATH=src python3 perfbench/workloads.py --workload table1 --seed 1 \
        --seconds 15 --trace 0 --out result.json --scratch DIR [--setup-only]

The process imports the library, loads the native kernels (their build
cache is warmed by ``run.py`` first), does the workload's set-up, and
stamps ``first_op`` -- the monotonic time of its first timed operation,
which ``run.py`` subtracts from the time it started this process to get
``setup_s``.  With ``--setup-only`` it stops there.  Otherwise it runs
operations until ``--seconds`` have passed (at least one), checks every
output against an independent reference outside the timed window, and
writes one JSON result: per-operation latencies and failures, peak RSS,
quality numbers, layer counters and, with ``--trace 1``, the spans.

Workloads (the README lists why each was chosen):

* ``table1`` -- the paper's Table I row pair on the bench PE;
* ``service_mixed`` -- a closed loop of 2 callers against the PAR service;
* ``respecialize`` -- run-time parameter updates through the SCG and the
  reconfiguration scheduler.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

#: FloPoCo format of the bench PE (the repo's reduced bench format).
BENCH_FORMAT = (5, 10)
#: Channel width of the table1 flows: the smallest both flows route.
TABLE1_WIDTH = 14
#: Flow seed of the Table I experiment: one fixed row pair per run, so its
#: quality columns repeat exactly and only machine noise moves its time.
TABLE1_FLOW_SEED = 0
#: LUT / TLUT / TCON counts of the bench PE (deterministic; a mapping change
#: that moves them changes the paper's numbers).
TABLE1_COUNTS = {
    "conventional": {"luts": 967, "tluts": 0, "tcons": 0},
    "fully_parameterized": {"luts": 697, "tluts": 22, "tcons": 281},
}
#: Table I quality columns of the seed commit at TABLE1_FLOW_SEED, and the
#: regression band they must stay inside (the band of
#: benchmarks/check_quality.py).
TABLE1_QUALITY_SEED = {
    "wirelength_conv": 13471,
    "wirelength_param": 6790,
    "critical_path_ns_conv": 169.4,
    "critical_path_ns_param": 143.3,
    "min_cw_conv": 10,
    "min_cw_param": 7,
}
QUALITY_BAND = 1.10

#: The circuit family, classes and mix of the mixed workload in
#: benchmarks/bench_service_throughput.py, chosen there by design rather
#: than observed from traffic.  The classes are its two counter widths.
SERVICE_BASE = dict(we=3, wf=4, num_inputs=2, channel_width=12, placement_effort=0.3,
                    router_iterations=20)
#: One block of that bench's submissions: the counter widths of its unique
#: jobs (one per class, then three near-hits), and the positions of the
#: unique jobs it submits again as exact repeats.
SERVICE_BLOCK_WIDTHS = (4, 5, 4, 4, 5)
SERVICE_BLOCK_REPEATS = (0, 1, 2)
SERVICE_CALLERS = 2
SERVICE_WAIT_S = 120.0

#: Parameter sets of the respecialize stream and their Zipf skew.
RESPEC_PARAM_SETS = 48
RESPEC_SKEW = 1.2
RESPEC_STIMULI = 4          #: model-check stimuli per distinct parameter set

SPANS_KEY = "__perfbench_spans__"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def bench_pe_spec():
    from repro.core.pe import ProcessingElementSpec
    from repro.flopoco.format import FPFormat

    return ProcessingElementSpec(fmt=FPFormat(*BENCH_FORMAT))


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def join_children(timeout: float = 30.0) -> None:
    """Wait for every multiprocessing child of this process to end."""
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)


class Outcome:
    """What one workload process measured and checked."""

    def __init__(self, first_op: float) -> None:
        self.first_op = first_op
        self.window_s = 0.0
        self.ops: List[Dict[str, Any]] = []  #: latency_ms, ok, plus workload fields
        self.problems: List[str] = []
        self.quality: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.shares: Dict[str, float] = {}
        self.peak_rss_mb = 0.0
        self.root_id: Optional[str] = None

    def fail(self, op: Dict[str, Any], problems: List[str]) -> None:
        if problems:
            op["ok"] = False
            self.problems.extend(problems)

    def as_dict(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {
            "first_op": self.first_op,
            "window_s": self.window_s,
            "latencies_ms": [op["latency_ms"] for op in self.ops],
            "attempted": len(self.ops),
            "failed": sum(1 for op in self.ops if not op["ok"]),
            "problems": self.problems[:50],
            "quality": self.quality,
            "counters": self.counters,
            "shares": self.shares,
            "peak_rss_mb": self.peak_rss_mb,
            "root": self.root_id,
            "spans": tracer.spans if tracer is not None else [],
        }


class Window:
    """The timed window: one root span when traced, plain timing otherwise.

    Time spent inside ``aside()`` (checks made between operations) is left
    out of ``elapsed()`` and of the recorded window; when traced it is the
    ``perfbench.check`` span.
    """

    def __init__(self, name: str, tracer: Optional[Tracer], outcome: Outcome) -> None:
        self.name, self.tracer, self.outcome = name, tracer, outcome
        self.set_aside = 0.0

    def __enter__(self) -> "Window":
        self._span = self.tracer.span(self.name) if self.tracer else None
        if self._span is not None:
            self.outcome.root_id = self._span.__enter__()["id"]
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.outcome.window_s = self.elapsed()
        if self._span is not None:
            self._span.__exit__(*exc)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.set_aside

    @contextlib.contextmanager
    def aside(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            with self.tracer.span("perfbench.check") if self.tracer else contextlib.nullcontext():
                yield
        finally:
            self.set_aside += time.perf_counter() - t0


def _counts(**fields: Callable[[Any], float]) -> Callable:
    """``on_result`` hook storing ``fields`` of a call's return value."""

    def hook(span, result, args, kwargs):
        span["counts"] = {name: float(get(result)) for name, get in fields.items()}

    return hook


def wrap_flow_layers(tracer: Tracer) -> None:
    """Wrap the calls ``core.flows`` and ``par.flow`` make into each layer.

    The min-CW search calls ``build_device``, ``route`` and ``analyze`` from
    ``par.metrics`` once per probed width; those are wrapped as well.
    """
    import repro.core.flows as flows
    import repro.par.flow as par_flow
    import repro.par.metrics as par_metrics
    import repro.timing.sta as sta

    tracer.patch(flows, "synthesize", "synth.synthesize")
    tracer.patch(flows, "map_conventional", "techmap.map")
    tracer.patch(flows, "map_parameterized", "techmap.map")
    tracer.patch(flows, "place_and_route", "par.flow.place_and_route")
    tracer.patch(par_flow, "from_mapped_network", "par.netlist.pack")
    tracer.patch(par_flow, "build_device", "fpga.device.build")
    tracer.patch(
        par_flow, "place", "par.placement.place",
        _counts(moves_attempted=lambda r: r.moves_attempted,
                moves_accepted=lambda r: r.moves_accepted),
    )
    tracer.patch(
        par_flow, "cached_route", "par.routing.route",
        _counts(iterations=lambda r: r.iterations,
                nodes_expanded=lambda r: (r.telemetry or {}).get("nodes_expanded", 0)),
    )
    tracer.patch(par_flow, "analyze", "timing.analyze")
    tracer.patch(par_flow, "report_from_analysis", "timing.report")
    tracer.patch(
        par_flow, "minimum_channel_width", "par.metrics.min_cw",
        _counts(probes=lambda r: len(r.attempts),
                routable=lambda r: sum(1 for ok in r.attempts.values() if ok)),
    )
    tracer.patch(par_metrics, "build_device", "fpga.device.build")
    tracer.patch(par_metrics, "route", "par.routing.probe_route")
    tracer.patch(sta, "analyze", "timing.analyze")


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def run_table1(opts, tracer: Optional[Tracer]) -> Outcome:
    from repro.core.flows import run_pe_flow
    from repro.core.pe import build_pe_design

    circuit = build_pe_design(bench_pe_spec()).circuit
    if tracer is not None:
        wrap_flow_layers(tracer)
    outcome = Outcome(time.perf_counter())
    if opts.setup_only:
        return outcome

    results = []
    with Window("table1", tracer, outcome) as win:
        while True:
            t0 = time.perf_counter()
            pair = [
                run_pe_flow(circuit, parameterized=p, channel_width=TABLE1_WIDTH,
                            find_min_channel_width=True, seed=TABLE1_FLOW_SEED)
                for p in (False, True)
            ]
            outcome.ops.append({"latency_ms": (time.perf_counter() - t0) * 1000.0, "ok": True})
            results.append(pair)
            if win.elapsed() >= opts.seconds:
                break
    if tracer is not None:
        tracer.unpatch()
    outcome.peak_rss_mb = peak_rss_mb()

    rng = np.random.default_rng(opts.seed)
    for op, pair in zip(outcome.ops, results):
        for flow in pair:
            outcome.fail(op, table1_problems(circuit, flow, rng))
    conv, param = results[0]
    outcome.quality = table1_quality(conv, param)
    for name, value in outcome.quality.items():
        if value > TABLE1_QUALITY_SEED[name] * QUALITY_BAND:
            outcome.fail(outcome.ops[0], [
                f"{name} = {value} is worse than {QUALITY_BAND}x the seed's "
                f"{TABLE1_QUALITY_SEED[name]}"
            ])
    return outcome


def table1_quality(conv, param) -> Dict[str, float]:
    out = {}
    for tag, flow in (("conv", conv), ("param", param)):
        out[f"wirelength_{tag}"] = float(flow.par.wirelength)
        out[f"critical_path_ns_{tag}"] = float(flow.par.timing.critical_path_ns)
        out[f"min_cw_{tag}"] = float(flow.par.min_channel_width.min_channel_width)
    return out


def table1_problems(circuit, flow, rng) -> List[str]:
    """Counts, functional equivalence and route legality of one flow."""
    problems = []
    want = TABLE1_COUNTS[flow.flow]
    got = {"luts": flow.network.num_luts(), "tluts": flow.network.num_tluts(),
           "tcons": flow.network.num_tcons()}
    if got != want:
        problems.append(f"{flow.flow}: counts {got} != seed {want}")
    problems += [f"{flow.flow}: {p}" for p in checks.simulation_mismatches(circuit, flow.network, rng)]
    par = flow.par
    problems += [
        f"{flow.flow}: {p}"
        for p in checks.route_violations(par.device.rr_graph, par.netlist,
                                         par.placement.placement, par.routing.routes)
    ]
    return problems


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------


def service_stream(seed: int) -> Iterator[Tuple[str, Any]]:
    """Seeded (tier, JobSpec) stream of bench_service_throughput.py blocks.

    Each block of 8 submits one job of each class, three more jobs of the
    classes, then exact repeats of the block's first three jobs.  The
    order and the classes are fixed; ``seed`` draws only the flow seeds,
    all distinct.  A job is ``cold`` when it opens its class (the first
    block's first two), ``near`` when it is a known class with a new seed,
    and ``repeat`` when it re-submits a job of its block.
    """
    from repro.service import JobSpec

    rng = np.random.default_rng(seed)
    seeds = set()
    opened = set()
    while True:
        block = []
        for width in SERVICE_BLOCK_WIDTHS:
            tier = "near" if width in opened else "cold"
            opened.add(width)
            flow_seed = int(rng.integers(0, 1 << 20))
            while flow_seed in seeds:
                flow_seed = int(rng.integers(0, 1 << 20))
            seeds.add(flow_seed)
            block.append(JobSpec(**SERVICE_BASE, counter_width=width, seed=flow_seed))
            yield tier, block[-1]
        for k in SERVICE_BLOCK_REPEATS:
            yield "repeat", block[k]


def wrap_service_layers(tracer: Tracer, daemon) -> None:
    """Wrap the daemon's calls into admission, journal and pool, and the
    worker-side calls of ``execute_job``.

    Installed before the pool forks, so workers inherit the wrappers.  A
    worker returns its spans inside the job's result dict; the wrapper of
    ``pool.run_job`` takes them out before the daemon sees the result and
    hangs them under the parent's span of that job.
    """
    import repro.par.flow as par_flow
    import repro.service.pool as pool_mod
    import repro.service.spec as spec_mod

    wrap_flow_layers(tracer)
    tracer.patch(par_flow, "place_and_route", "par.flow.place_and_route")
    tracer.patch(spec_mod, "_mapped_network", "service.exec.front_end")
    tracer.patch(spec_mod, "result_digest", "service.exec.digest")

    execute = pool_mod.execute_job

    def traced_execute_job(payload):
        mark = len(tracer.spans)
        with tracer.span("service.exec.job"):
            result = execute(payload)
        spans = tracer.spans[mark:]
        del tracer.spans[mark:]
        return {**result, SPANS_KEY: spans}

    tracer.replace(pool_mod, "execute_job", traced_execute_job)

    def adopt_worker_spans(span, result, args, kwargs):
        span["request"] = args[0]
        spans = result.pop(SPANS_KEY, [])
        ids = {s["id"] for s in spans}
        for s in spans:
            s["request"] = args[0]
            if s["parent"] not in ids:
                s["parent"] = span["id"]
        tracer.spans.extend(spans)

    def submitted(span, result, args, kwargs):
        span["request"] = result.get("job")
        span["counts"] = {"accepted": float(result.get("state") == "accepted"),
                          "coalesced": float(bool(result.get("coalesced")))}

    tracer.patch(daemon, "submit", "service.submit", submitted)
    tracer.patch(daemon.journal, "record", "service.journal.record")
    tracer.patch(daemon.pool, "run_job", "service.exec", adopt_worker_spans)


def run_service_mixed(opts, tracer: Optional[Tracer]) -> Outcome:
    from repro.obs import metrics as obs_metrics
    from repro.service import ServiceConfig, ServiceDaemon

    # A fresh journal per process: replaying an earlier run's journal would
    # serve its jobs from the result table.
    daemon = ServiceDaemon(ServiceConfig(journal_dir=Path(opts.scratch) / f"journal-{os.getpid()}"))
    if tracer is not None:
        wrap_service_layers(tracer, daemon)
    stream = service_stream(opts.seed)
    payloads: Dict[str, Dict[str, Any]] = {}
    outcome: Optional[Outcome] = None

    async def caller(win: Window) -> None:
        while win.elapsed() < opts.seconds:
            tier, spec = next(stream)
            t0 = time.perf_counter()
            resp = await daemon.submit(spec.to_payload())
            op = {"tier": tier, "key": resp.get("job"), "ok": bool(resp.get("ok"))}
            if op["ok"]:
                done = await daemon.wait(resp["job"], timeout=SERVICE_WAIT_S)
                res = daemon.result(resp["job"]) if done else {"ok": False}
                op["ok"] = bool(res.get("ok"))
                op["digest"] = (res.get("result") or {}).get("digest")
            op["latency_ms"] = (time.perf_counter() - t0) * 1000.0
            if op["ok"]:
                payloads[op["key"]] = spec.to_payload()
            else:
                outcome.problems.append(f"{tier} job {op['key']}: {resp}")
            outcome.ops.append(op)

    async def main() -> None:
        nonlocal outcome
        await daemon.start()
        try:
            outcome = Outcome(time.perf_counter())
            if opts.setup_only:
                return
            obs_metrics.registry().reset()
            with Window("service_mixed", tracer, outcome) as win:
                await asyncio.gather(*(caller(win) for _ in range(SERVICE_CALLERS)))
        finally:
            await daemon.stop()

    asyncio.run(main())
    join_children()
    if tracer is not None:
        tracer.unpatch()
    if opts.setup_only:
        return outcome
    outcome.peak_rss_mb = peak_rss_mb()

    counters = obs_metrics.registry().snapshot().get("counters", {})
    outcome.counters = {
        "submitted": daemon.counts["submitted"],
        "coalesced": daemon.counts["coalesced"],
        "journal_records": daemon.journal.writes,
        "retries": counters.get("service.retries", 0),
        "worker_restarts": daemon.pool.restarts,
    }
    tiers = [op["tier"] for op in outcome.ops]
    outcome.shares = {t: tiers.count(t) / len(tiers) for t in ("cold", "near", "repeat")}

    # Reference: every unique spec run directly through execute_job in
    # plain worker processes -- no daemon, journal, coalescing or pool
    # supervision involved.
    reference = direct_digests(payloads)
    for op in outcome.ops:
        if op["ok"]:
            outcome.fail(op, checks.digest_mismatches({op["key"]: op["digest"]}, reference))
    return outcome


def _direct_job(item):
    from repro.service import execute_job

    key, payload = item
    try:
        return key, execute_job(payload)["digest"]
    except RuntimeError as exc:  # an unroutable design: the job has no digest
        return key, f"direct execution failed: {exc}"


def direct_digests(payloads: Dict[str, Dict[str, Any]]) -> Dict[str, str]:
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        return dict(pool.map(_direct_job, payloads.items()))


# ---------------------------------------------------------------------------
# respecialize
# ---------------------------------------------------------------------------


def param_universe(rng, spec) -> List[Dict[str, int]]:
    """RESPEC_PARAM_SETS seeded PE settings (coefficient, op, selects, limit)."""
    sel = 1 << spec.sel_width
    return [
        {
            "coeff": int(rng.integers(0, 1 << spec.fmt.width)),
            "op": int(rng.integers(0, 4)),
            "sel_a": int(rng.integers(0, sel)),
            "sel_b": int(rng.integers(0, sel)),
            "count_limit": int(rng.integers(0, 1 << spec.counter_width)),
        }
        for _ in range(RESPEC_PARAM_SETS)
    ]


def run_respecialize(opts, tracer: Optional[Tracer]) -> Outcome:
    from repro.core.flows import run_pe_flow
    from repro.core.pe import build_pe_design
    from repro.core.specialization import SpecializedConfigurationGenerator
    from repro.reconfig.context import ContextLibrary
    from repro.reconfig.scheduler import ReconfigScheduler
    from repro.reconfig.trace import popularity_weights

    spec = bench_pe_spec()
    flow = run_pe_flow(build_pe_design(spec).circuit, parameterized=True,
                       channel_width=TABLE1_WIDTH, seed=TABLE1_FLOW_SEED)
    scg = SpecializedConfigurationGenerator(flow.network, flow.par)
    layout = flow.par.device.config_layout
    library = ContextLibrary(layout)
    # Context memory for one full device: a few specialized contexts.
    scheduler = ReconfigScheduler(library, budget_frames=layout.total_frames)
    rng = np.random.default_rng(opts.seed)
    universe = param_universe(rng, spec)
    weights = popularity_weights(RESPEC_PARAM_SETS, skew=RESPEC_SKEW)
    if tracer is not None:
        tracer.patch(flow.network, "specialize_words", "techmap.specialize_words")
        tracer.patch(scg, "specialize", "core.scg.specialize")
        tracer.patch(library, "add_bitstream", "reconfig.context.add")
        tracer.patch(
            scheduler, "switch_to", "reconfig.scheduler.switch",
            _counts(resident=lambda o: o.resident, frames_written=lambda o: o.frames_written,
                    modeled_ms=lambda o: o.time_ms),
        )
    outcome = Outcome(time.perf_counter())
    if opts.setup_only:
        return outcome

    # Per update only the check's verdict is kept: the frame image of each
    # parameter set's first rendering is the reference its repeats and every
    # switch to it must reproduce, checked between operations.
    first: Dict[int, Tuple[Any, Dict[int, int]]] = {}
    repeats = 0
    draws = iter(())
    with Window("respecialize", tracer, outcome) as win:
        while win.elapsed() < opts.seconds or not outcome.ops:
            idx = next(draws, None)
            if idx is None:
                draws = iter(rng.choice(RESPEC_PARAM_SETS, size=256, p=weights).tolist())
                idx = next(draws)
            name = f"params-{idx}"
            t0 = time.perf_counter()
            out = scg.specialize(universe[idx])
            new = name not in library
            if new:
                library.add_bitstream(name, out.bitstream)
            scheduler.switch_to(name)
            op = {"latency_ms": (time.perf_counter() - t0) * 1000.0, "ok": True, "idx": idx}
            outcome.ops.append(op)
            with win.aside():
                image = out.bitstream.frame_image()
                if new:
                    first[idx] = (out.specialized, image)
                else:
                    repeats += 1
                    outcome.fail(op, checks.image_mismatches(image, first[idx][1]))
                outcome.fail(op, checks.image_mismatches(scheduler.active_image, first[idx][1]))
    if tracer is not None:
        tracer.unpatch()
    outcome.peak_rss_mb = peak_rss_mb()

    first_op = {}
    for op in outcome.ops:
        first_op.setdefault(op["idx"], op)
    for idx, (specialized, _image) in first.items():
        stimuli = [
            ([int(rng.integers(0, 1 << spec.fmt.width)) for _ in range(spec.num_inputs)],
             int(rng.integers(0, 1 << spec.counter_width)) if k % 2 else universe[idx]["count_limit"])
            for k in range(RESPEC_STIMULI)
        ]
        outcome.fail(first_op[idx], checks.pe_model_mismatches(
            specialized, spec.fmt, universe[idx], stimuli, spec.counter_width))
    outcome.shares = {"repeat": repeats / len(outcome.ops)}
    return outcome


WORKLOADS = {
    "table1": run_table1,
    "service_mixed": run_service_mixed,
    "respecialize": run_respecialize,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True, help="directory for the service journal")
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)

    import repro.native

    repro.native.status()  # loads the compiled kernels: part of set-up
    tracer = Tracer() if opts.trace else None
    outcome = WORKLOADS[opts.workload](opts, tracer)
    Path(opts.out).write_text(json.dumps(outcome.as_dict(tracer)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
