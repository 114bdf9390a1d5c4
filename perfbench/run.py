"""The repository's benchmark: one command, three workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, from a traced run whose wall
time is compared with an untraced run of the same seed.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 1, "failed": 0,
     "metrics": {"setup_s": {"value": 0.61, "unit": "s"}, ...}}

Each workload runs in its own process (``workloads.py``), so
``peak_rss_mb`` belongs to that workload.  Before it, the native kernels'
build cache is warmed in a separate process: users pay that compile once
per machine.  ``setup_s`` is the median over several processes of the time
from process start to the first timed operation.  Everything the runs
write goes under ``.perfbench_cache/`` in the checkout.  See
``perfbench/README.md`` for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from checks import tail_percentile  # noqa: E402
from layers import layer_metrics, self_time_table  # noqa: E402

#: Operations in one run of the benchmark's run length (15 s) at the seed
#: commit, rounded down (README.md).  They fix each workload's tail
#: percentile, so it does not move between runs.
TAIL_SAMPLES = {"table1": 1, "service_mixed": 59, "respecialize": 304}
#: The highest percentile with at least 10 samples beyond it at those
#: counts.  A table1 run holds one operation, so its tail is that operation.
TAIL_PERCENTILE = {w: tail_percentile(n) or 100.0 for w, n in TAIL_SAMPLES.items()}
#: Processes timed for ``setup_s`` (the measured run plus set-up-only ones).
SETUP_SAMPLES = {"table1": 9, "service_mixed": 9, "respecialize": 3}
CHILD_TIMEOUT_S = 170.0
WARM_TIMEOUT_S = 600.0
CACHE_DIR = ".perfbench_cache"

_WARM = "import json, repro.native as n; print(json.dumps(n.status()))"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> Dict[str, str]:
    cache = root / CACHE_DIR
    (cache / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    for name in ("REPRO_PAR_CACHE", "REPRO_TRACE", "REPRO_FAULT_PLAN", "REPRO_NATIVE"):
        env.pop(name, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = str(cache / "native")
    env["TMPDIR"] = str(cache / "tmp")
    return env


def warm_native(root: Path, env: Dict[str, str]) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "-c", _WARM], cwd=root, env=env, capture_output=True, text=True,
        timeout=WARM_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing the library failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(root: Path, env: Dict[str, str], scratch: Path, opts, trace: int,
              setup_only: bool = False, tag: str = "") -> Dict[str, Any]:
    """Run one workload process; returns its result plus ``spawn`` time."""
    out = scratch / f"result-{trace}{tag}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", opts.workload,
        "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", str(trace),
        "--out", str(out), "--scratch", str(scratch),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{opts.workload} did not finish within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{opts.workload} exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["first_op"] - spawn
    return result


def end_to_end(main: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ops_per_s": len(main["latencies_ms"]) / main["window_s"],
    }


def latency(opts, untraced: Dict[str, Any]) -> Dict[str, float]:
    """Operation latency of the untraced run.  Reported without a bound: on
    a 2-vCPU host whose core speed shifts between runs, these percentiles
    move by more than any bound the benchmark may set (README.md)."""
    lat = untraced["latencies_ms"]
    return {
        "op_p50_ms": float(np.percentile(lat, 50.0)),
        "op_tail_ms": float(np.percentile(lat, TAIL_PERCENTILE[opts.workload])),
    }


def report_run(opts, result: Dict[str, Any], label: str) -> None:
    lat = result["latencies_ms"]
    print(f"{opts.workload} ({label}): {result['attempted']} ops in {result['window_s']:.2f} s, "
          f"{result['failed']} failed")
    if result["shares"]:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in sorted(result["shares"].items()))
        print(f"  measured shares: {shares}")
    if len(lat) > 1:
        tail = TAIL_PERCENTILE[opts.workload]
        print(f"  op latency ms: min {min(lat):.1f}  p50 {np.percentile(lat, 50):.1f}  "
              f"p{tail:g} {np.percentile(lat, tail):.1f}  max {max(lat):.1f}")
    for name, value in sorted(result["quality"].items()):
        print(f"  {name}: {value:g}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)


def print_layers(result: Dict[str, Any]) -> None:
    rows, wall = self_time_table(result)
    print(f"\n{'span':<32}{'calls':>7}{'total s':>11}{'self s':>10}{'self %':>8}")
    for name, calls, total, own in rows:
        print(f"{name:<32}{calls:>7}{total:>11.3f}{own:>10.3f}{100 * own / wall:>7.1f}%")
    summed = sum(r[3] for r in rows)
    print(f"{'sum of self times':<50}{summed:>10.3f}   traced wall {wall:.3f} s")


def print_metrics(metrics: Dict[str, float], catalog: List[Dict[str, Any]]) -> None:
    print(f"\n{'metric':<40}{'value':>16}  unit      better")
    for entry in catalog:
        better = entry.get("better", "-")
        print(f"{entry['name']:<40}{metrics[entry['name']]:>16.6g}  {entry['unit']:<9} {better}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{root} is not a checkout of the repository (no src/repro or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {opts.workload!r}", file=sys.stderr)
        return 2

    env = child_env(root)
    scratch = root / CACHE_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        native = warm_native(root, env)
        if not (native.get("astar") and native.get("annealer")):
            print(f"note: native kernels unavailable, Python kernels time instead: {native}",
                  file=sys.stderr)
        untraced = run_child(root, env, scratch, opts, trace=0)
        report_run(opts, untraced, "untraced")
        runs = [untraced]
        if opts.trace:
            traced = run_child(root, env, scratch, opts, trace=1)
            report_run(opts, traced, "traced")
            runs.append(traced)
            print_layers(traced)
            metrics = {**layer_metrics(traced, untraced), **latency(opts, untraced)}
            catalog = spec["per_layer"]
        else:
            setups = [untraced["setup_s"]] + [
                run_child(root, env, scratch, opts, trace=0, setup_only=True, tag=f"-setup{i}")["setup_s"]
                for i in range(SETUP_SAMPLES[opts.workload] - 1)
            ]
            metrics = end_to_end(untraced, setups)
            catalog = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    unknown = set(metrics) - {entry["name"] for entry in catalog}
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    values = {entry["name"]: float(metrics.get(entry["name"], 0.0)) for entry in catalog}
    print_metrics(values, catalog)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    line = {
        "correct": failed == 0 and not any(r["problems"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in catalog},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
