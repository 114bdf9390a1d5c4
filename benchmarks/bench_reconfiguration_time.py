"""E3 -- reconfiguration time: per-PE estimate and multi-context serving.

The paper estimates 251 ms to micro-reconfigure one PE (526 TLUTs + 568 TCONs
through HWICAP) and argues the cost is acceptable because the denoise and
texture filter coefficients change only once per batch (e.g. per 1000 images).
This benchmark reproduces the estimate from the cost model, measures the
actual SCG specialization (PPC Boolean-function evaluation) on a mapped PE,
and reports the amortization the paper quotes.

Since PR 8 it also measures the claim *at scale*: a library of specialized
PE contexts (one per coefficient set) is multiplexed on the grid by the
:mod:`repro.reconfig` scheduler -- frame-level diff switches, an LRU of
resident partial configurations under a context-memory budget -- against a
skewed synthetic request trace, reporting contexts/sec, amortized switch
cost, hit rate vs. residency budget, and the full-vs-diff frame counts.
Every switch is checked bit-identical to a full reconfiguration (the same
invariant ``check_quality.py`` gates on the hotpath bench).
"""

from __future__ import annotations

import pytest

from _bench_config import BENCH_FP_FORMAT, write_report
from repro.core.flows import run_pe_flow
from repro.core.pe import PEOp, ProcessingElementSpec, build_pe_design
from repro.core.reconfiguration import HWICAP, MICAP, ReconfigurationCostModel
from repro.core.specialization import SpecializedConfigurationGenerator
from repro.reconfig import (
    ContextLibrary,
    ReconfigScheduler,
    popularity_weights,
    replay,
    synthetic_trace,
)

PAPER_TLUTS = 526
PAPER_TCONS = 568
PAPER_ESTIMATE_MS = 251.0

NUM_CONTEXTS = 16
TRACE_LENGTH = 600
TRACE_SKEW = 1.2
TRACE_REPEAT = 0.25


@pytest.fixture(scope="module")
def scg():
    """A mapped + placed-and-routed PE wrapped by the SCG (reduced format)."""
    spec = ProcessingElementSpec(fmt=BENCH_FP_FORMAT, num_inputs=2, counter_width=8)
    result = run_pe_flow(
        build_pe_design(spec).circuit,
        parameterized=True,
        do_par=True,
        channel_width=12,
        placement_effort=0.3,
        router_iterations=15,
        seed=0,
    )
    return spec, SpecializedConfigurationGenerator(result.network, result.par)


def test_paper_reconfiguration_estimate(benchmark):
    """Reproduce the 251 ms per-PE estimate from the cost model."""
    model = ReconfigurationCostModel(HWICAP)
    estimate = benchmark(model.estimate_time_ms, PAPER_TLUTS, PAPER_TCONS)
    micap = ReconfigurationCostModel(MICAP).estimate_time_ms(PAPER_TLUTS, PAPER_TCONS)
    amortized = model.amortized_overhead(estimate, items_per_configuration=1000,
                                         time_per_item_ms=5.0)

    lines = [
        "E3 -- Reconfiguration time estimate (Section V)",
        "",
        f"paper estimate:                 {PAPER_ESTIMATE_MS:7.1f} ms per PE "
        f"({PAPER_TLUTS} TLUTs + {PAPER_TCONS} TCONs, HWICAP)",
        f"measured model (HWICAP):        {estimate:7.1f} ms per PE",
        f"measured model (MiCAP):         {micap:7.1f} ms per PE",
        "",
        "amortization over 1000 images (paper's example):",
        f"  per-image overhead:           {amortized['per_item_overhead_ms']:7.3f} ms",
        f"  overhead fraction:            {amortized['overhead_fraction']:7.2%}",
    ]
    write_report("reconfiguration_time", lines)

    assert estimate == pytest.approx(PAPER_ESTIMATE_MS, rel=0.25)
    assert micap < estimate
    assert amortized["per_item_overhead_ms"] < 1.0


def test_scg_specialization_cost(benchmark, scg):
    """Measure the software half of a reconfiguration: PPC evaluation by the SCG."""
    spec, generator = scg
    fmt = spec.fmt
    coeffs = [0.5, -1.25, 0.125, 3.0]
    state = {"i": 0}

    def one_specialization():
        state["i"] += 1
        coeff = coeffs[state["i"] % len(coeffs)]
        return generator.specialize(
            {"coeff": fmt.encode(coeff), "sel_a": 0, "sel_b": 1,
             "op": PEOp.MAC, "count_limit": 16}
        )

    outcome = benchmark(one_specialization)
    summary = generator.summary()
    model = ReconfigurationCostModel(HWICAP)
    hw_time = model.time_from_frames_ms(outcome.num_frames, summary["boolean_functions"])

    lines = [
        "E3b -- SCG specialization on the mapped (reduced-format) PE",
        "",
        f"tunable elements: {summary['tluts']} TLUTs + {summary['tcons']} TCONs "
        f"({summary['boolean_functions']} PPC Boolean functions, {summary['ppc_bits']} PPC bits)",
        f"TCONs driving only primary outputs (not rendered): {summary['unrendered_tcons']}",
        f"frames touched by a coefficient change: {outcome.num_frames}",
        f"modelled HWICAP micro-reconfiguration time: {hw_time:.2f} ms",
    ]
    write_report("reconfiguration_scg", lines)
    assert outcome.num_frames > 0


@pytest.fixture(scope="module")
def context_library(scg):
    """One specialized-PE context per coefficient set, on the shared grid."""
    spec, generator = scg
    fmt = spec.fmt
    layout = generator._layout
    assert layout is not None
    library = ContextLibrary(layout)
    weights = popularity_weights(NUM_CONTEXTS, skew=TRACE_SKEW)
    for i in range(NUM_CONTEXTS):
        coeff = (-1) ** i * (0.125 + 0.25 * i)
        outcome = generator.specialize(
            {"coeff": fmt.encode(coeff), "sel_a": i % 2, "sel_b": (i + 1) % 2,
             "op": PEOp.MAC, "count_limit": 8 + i}
        )
        library.add_bitstream(f"coeff{i}", outcome.bitstream,
                              criticality=float(weights[i]))
    return library


def test_multi_context_scheduler(benchmark, context_library):
    """E3c -- serving many PE contexts on one grid via frame-diff switches."""
    library = context_library
    names = library.names()
    trace = synthetic_trace(names, TRACE_LENGTH, seed=0,
                            skew=TRACE_SKEW, repeat=TRACE_REPEAT)
    total = library.total_frames()

    # hit rate / switch cost vs. context-memory residency budget, with every
    # switch checked bit-identical to a full reconfiguration of the target
    sweeps = []
    for fraction in (0.1, 0.3, 1.0):
        budget = max(1, int(total * fraction))
        scheduler = ReconfigScheduler(library, budget_frames=budget)
        for name in trace:
            scheduler.switch_to(name)
            assert scheduler.active_image == library[name].image, (
                "diff-applied configuration diverged from full reconfiguration"
            )
        sweeps.append((fraction, scheduler.stats()))

    # timed replay at the middle budget (the serving configuration)
    budget = max(1, int(total * 0.3))

    def serve():
        return replay(ReconfigScheduler(library, budget_frames=budget), trace)

    report = benchmark(serve)

    lines = [
        "E3c -- multi-context reconfiguration scheduler "
        f"({NUM_CONTEXTS} specialized-PE contexts, {TRACE_LENGTH}-request trace, "
        f"skew {TRACE_SKEW}, repeat {TRACE_REPEAT}, MiCAP frame costs)",
        "",
        f"library: {total} resident-frame footprint, "
        f"mean consecutive delta {library.mean_delta_frames():.1f} frames",
        "",
        f"{'budget':>8} {'hit rate':>9} {'ctx/sec':>9} {'ms/switch':>10} "
        f"{'diff frames':>12} {'full frames':>12} {'saved':>7}",
    ]
    for fraction, stats in sweeps:
        switch_ms = stats["time_ms"] / stats["switches"]
        ctx_per_sec = stats["switches"] / (stats["time_ms"] / 1000.0)
        lines.append(
            f"{fraction:7.0%} {stats['hit_rate']:9.2%} {ctx_per_sec:9.0f} "
            f"{switch_ms:10.3f} {stats['frames_written']:12.0f} "
            f"{stats['frames_full']:12.0f} {stats['frame_savings']:7.2%}"
        )
    lines += [
        "",
        f"timed replay at 30% budget: {report.contexts_per_sec:.0f} contexts/sec, "
        f"{report.amortized_switch_ms:.3f} ms amortized switch cost, "
        f"hit rate {report.hit_rate:.2%}, frame savings {report.frame_savings:.2%}",
    ]
    write_report("reconfiguration_scheduler", lines)

    # the residency budget must buy hit rate monotonically, and diffs must
    # never write more frames than the full-reconfiguration baseline
    hit_rates = [stats["hit_rate"] for _, stats in sweeps]
    assert hit_rates == sorted(hit_rates)
    for _, stats in sweeps:
        assert stats["frames_written"] <= stats["frames_full"]
    assert report.frame_savings > 0.0
    assert report.contexts_per_sec > 0.0
