"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/bench_selftest.py -q

The last two tests start the benchmark command as a subprocess (about a
minute in total).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer, attribute  # noqa: E402


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 50.0), (40, 75.0), (50, 80.0), (99, 80.0), (100, 90.0),
     (400, 97.5), (999, 97.5), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert checks.tail_percentile(samples) == expected
    if expected is not None:
        assert round(samples * (100 - expected) / 100, 6) >= 10


# -- route legality ----------------------------------------------------------


def _chain_design(routes):
    """Two CLBs joined by the RR chain 0 -> 1 -> 2 -> 3 -> 4 -> 5."""
    dst = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    rr = SimpleNamespace(
        num_nodes=6,
        node_capacity=np.ones(6, dtype=np.int16),
        edge_ptr=np.array([0, 1, 2, 3, 4, 5, 5], dtype=np.int64),
        edge_dst=dst,
        clb_source={(1, 1): 0, (2, 1): 6},
        clb_sink={(1, 1): 7, (2, 1): 5},
        io_source={},
        io_sink={},
    )
    blocks = [SimpleNamespace(id=0, kind="clb"), SimpleNamespace(id=1, kind="clb")]
    nets = [SimpleNamespace(id=i, name=f"n{i}", driver=0, sinks=[1]) for i in range(len(routes))]
    placement = SimpleNamespace(block_site={
        0: SimpleNamespace(x=1, y=1, subtile=0), 1: SimpleNamespace(x=2, y=1, subtile=0)})
    netlist = SimpleNamespace(blocks=blocks, nets=nets)
    routed = {i: SimpleNamespace(nodes=nodes) for i, nodes in enumerate(routes)}
    return rr, netlist, placement, routed


def test_legal_route_passes():
    assert checks.route_violations(*_chain_design([[0, 1, 2, 3, 4, 5]])) == []


def test_overused_node_is_flagged():
    problems = checks.route_violations(*_chain_design([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]))
    assert any("RR node 2 used by 2 nets, capacity 1" in p for p in problems)


def test_disconnected_sink_is_flagged():
    problems = checks.route_violations(*_chain_design([[0, 1, 3, 4, 5]]))
    assert problems == ["net 0 (n0): 1 sink(s) not reached"]


# -- reference comparisons ---------------------------------------------------


def test_digest_mismatch_is_flagged():
    reference = {"job-a": "1" * 64, "job-b": "2" * 64}
    assert checks.digest_mismatches({"job-a": "1" * 64}, reference) == []
    assert len(checks.digest_mismatches({"job-b": "3" * 64}, reference)) == 1
    assert len(checks.digest_mismatches({"job-c": "1" * 64}, reference)) == 1


def test_frame_image_mismatch_is_flagged():
    target = {3: 0b101, 9: 0b1}
    assert checks.image_mismatches(dict(target), target) == []
    assert len(checks.image_mismatches({**target, 9: 0b11}, target)) == 1
    assert len(checks.image_mismatches({3: 0b101}, target)) == 1


def test_pe_model_check_flags_a_wrong_output():
    from repro.core.pe import PEOp
    from repro.flopoco.format import FPFormat

    fmt = FPFormat(we=3, wf=4)
    params = {"coeff": 5, "op": PEOp.BYPASS, "sel_a": 1, "sel_b": 0, "count_limit": 2}

    class Echo:  # outputs in0 instead of the selected in1
        def evaluate(self, bits):
            out = {f"out[{b}]": bits[f"in0[{b}]"] for b in range(fmt.width)}
            out["done"] = int(sum(bits[f"count[{b}]"] << b for b in range(4)) == 2)
            return out

    assert checks.pe_model_mismatches(Echo(), fmt, params, [([7, 7], 2)], 4) == []
    assert len(checks.pe_model_mismatches(Echo(), fmt, params, [([7, 9], 1)], 4)) == 1


# -- spans -------------------------------------------------------------------


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "request": None, "pid": 0}


def test_self_times_add_up_to_wall_time_with_concurrent_requests():
    spans = [
        _span("r", "root", 0.0, 10.0),
        _span("a", "exec", 1.0, 5.0, "r"),
        _span("a1", "place", 2.0, 4.0, "a"),
        _span("b", "exec", 3.0, 9.0),          # no parent: hangs off the root
        _span("b1", "route", 3.0, 6.0, "b"),
        _span("x", "late", 8.0, 12.0, "r"),    # clipped at the root's end
    ]
    own = attribute(spans, "r")
    assert sum(own.values()) == pytest.approx(10.0)
    # 3..4: place and route share the instant; 4..5: exec(a) and route.
    assert own["place"] == pytest.approx(1.0 + 0.5)
    assert own["route"] == pytest.approx(0.5 + 0.5 + 1.0)
    assert own["root"] == pytest.approx(1.0)


def test_tracer_wraps_sync_and_async_calls_and_restores_them():
    class Owner:
        def add(self, a, b):
            return a + b

        async def later(self, x):
            return x * 2

    owner = Owner()
    tracer = Tracer()
    tracer.patch(owner, "add", "add", lambda span, r, args, kw: span.update(counts={"r": r}))
    tracer.patch(owner, "later", "later")
    with tracer.span("root") as root:
        assert owner.add(2, 3) == 5
        assert asyncio.run(owner.later(4)) == 8
    tracer.unpatch()
    assert "add" not in vars(owner) and "later" not in vars(owner)
    names = {s["name"]: s for s in tracer.spans}
    assert names["add"]["parent"] == root["id"] and names["add"]["counts"] == {"r": 5}
    assert names["later"]["parent"] == root["id"]


def test_layer_metrics_read_zero_for_layers_the_run_never_calls():
    result = {"spans": [_span("r", "respecialize", 0.0, 2.0),
                        _span("s", "reconfig.scheduler.switch", 0.5, 1.0, "r")],
              "root": "r", "attempted": 1, "window_s": 2.0, "counters": {}, "quality": {}}
    m = layer_metrics(result, {"window_s": 2.0, "attempted": 1})
    assert m["reconfig.scheduler.switch_ms"] == pytest.approx(500.0)
    assert m["par.placement.place_s"] == 0.0
    assert m["unattributed_ratio"] == pytest.approx(0.75)


# -- the command -------------------------------------------------------------


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "service_mixed", "--seed", "3", "--seconds", "2",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {e["name"]: e["unit"] for e in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in table.splitlines())


def test_command_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "table1", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
