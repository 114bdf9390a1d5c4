"""Observability layer: spans, metrics, telemetry, trajectory neutrality.

The contract under test (see ``src/repro/obs/`` and OBSERVABILITY.md):

* a *disabled* ``span()`` call is cheap enough for per-iteration use in the
  hot loops (bounded ns/call, same global-load + ``None``-compare trick as
  ``repro.util.resilience.inject``);
* spans nest correctly per (process, thread), including across forked
  process-pool workers sharing one trace file;
* both output formats parse: JSON-lines and sealed Chrome ``trace_event``
  arrays (loadable in chrome://tracing / Perfetto), and the text reporter
  renders them;
* instrumentation is **trajectory-neutral**: routes and placements are
  bit-identical with tracing on and off, across seeds;
* every hot seam snapshots its per-run numbers into ``telemetry``
  (RoutingResult / PlacementResult / PaRResult) and the process-wide
  metrics registry.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.netlist.hdl import Design
from repro.obs import metrics as obs_metrics
from repro.obs.report import load_records, render_report, sparkline, write_chrome
from repro.obs.trace import clear, emit_event, emit_series, span, traced, tracing
from repro.par.flow import place_and_route
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.routing import route
from repro.synth.optimize import optimize
from repro.techmap import map_conventional


#: The annealer place() and place_and_route() run, as its telemetry records it.
DEFAULT_PLACE_KERNEL = "batched"


def adder_netlist(width=4):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return from_mapped_network(map_conventional(opt))


def sized_arch(nl, channel_width=10):
    num_logic = nl.num_logic_blocks() + nl.num_ff_blocks()
    return auto_size(num_logic, nl.num_io_blocks(), channel_width=channel_width)


@pytest.fixture(autouse=True)
def _no_ambient_tracer(monkeypatch):
    """Tests control the tracer explicitly; never inherit REPRO_TRACE."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    clear()
    yield
    clear()


class TestSpanMachinery:
    def test_disabled_span_is_cheap(self):
        # The zero-overhead-when-disabled contract: a disabled span() call
        # is a function call + global load + None compare.  The bound is
        # deliberately generous (CI machines are noisy); the benchmark
        # records the real figure in kernels.obs.
        n = 50_000
        with span("warmup"):
            pass
        clear()  # disabled from here on
        t0 = time.perf_counter_ns()
        for _ in range(n):
            with span("x"):
                pass
        per_call = (time.perf_counter_ns() - t0) / n
        assert per_call < 10_000, f"disabled span cost {per_call:.0f} ns/call"

    def test_jsonl_spans_nest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path)):
            with span("outer", tag=1):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
            emit_event("ev", {"k": "v"})
            emit_series("curve", [3, 2, 1], kind="test")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert len(by_name["inner"]) == 2
        assert len(by_name["outer"]) == 1
        outer = by_name["outer"][0]
        assert outer["depth"] == 0 and outer["args"] == {"tag": 1}
        assert all(s["depth"] == 1 for s in by_name["inner"])
        # children close before the parent, so they are recorded first
        assert records.index(by_name["inner"][0]) < records.index(outer)
        # inner spans lie within the parent's [ts, ts+dur] window
        for s in by_name["inner"]:
            assert outer["ts"] <= s["ts"]
            assert s["ts"] + s["dur"] <= outer["ts"] + outer["dur"] + 1
        events = [r for r in records if r["type"] == "event"]
        series = [r for r in records if r["type"] == "series"]
        assert events[0]["name"] == "ev" and events[0]["args"] == {"k": "v"}
        assert series[0]["values"] == [3, 2, 1]

    def test_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        with tracing(str(path)):
            with span("a"):
                with span("b"):
                    pass
            emit_series("curve", [1.0, 0.5])
        data = json.loads(path.read_text())
        assert isinstance(data, list)
        phases = {e["ph"] for e in data}
        assert "X" in phases and "M" in phases
        names = {e["name"] for e in data}
        assert {"a", "b", "curve"} <= names

    def test_traced_decorator_binds_per_call(self, tmp_path):
        @traced("deco.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled: plain passthrough
        path = tmp_path / "t.jsonl"
        with tracing(str(path)):
            assert fn(2) == 3
        names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
        assert "deco.fn" in names

    def test_report_renders_and_converts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tracing(str(path)):
            with span("phase"):
                with span("step"):
                    pass
            emit_series("curve", [9, 4, 1])
            obs_metrics.add("test.counter", 7)
        records = load_records(str(path))
        text = render_report(records)
        assert "phase" in text and "curve" in text and "test.counter" in text
        chrome = tmp_path / "out.json"
        write_chrome(records, str(chrome))
        data = json.loads(chrome.read_text())
        assert {"phase", "step"} <= {e["name"] for e in data}
        # the chrome round-trip parses back into equivalent record types
        back = load_records(str(chrome))
        assert {r["type"] for r in back} >= {"span", "series", "counter"}

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert len(sparkline([1, 2, 3])) == 3
        assert len(sparkline(list(range(1000)), width=40)) == 40
        assert sparkline([5, 5, 5]) == "▁▁▁"


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = obs_metrics.MetricsRegistry()
        reg.add("c")
        reg.add("c", 4)
        reg.gauge("g", 2.5)
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        reg.merge({"c": 5, "other": 1})
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 10
        assert snap["counters"]["other"] == 1
        assert snap["gauges"]["g"] == 2.5
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["min"] == 1.0 and h["max"] == 3.0
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_global_registry_snapshot_lands_in_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs_metrics.add("obs.test.unique", 3)
        with tracing(str(path)):
            with span("s"):
                pass
        records = [json.loads(line) for line in path.read_text().splitlines()]
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters.get("obs.test.unique", 0) >= 3


class TestAmbientTracer:
    """A ``REPRO_TRACE`` tracer is closed when the interpreter exits."""

    SCRIPT = (
        "from repro.obs import metrics\n"
        "from repro.obs.trace import span\n"
        "metrics.add('obs.test.atexit', 5)\n"
        "with span('ambient'):\n"
        "    pass\n"
    )

    def run_traced(self, path):
        env = dict(os.environ, REPRO_TRACE=str(path))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, check=True,
                       timeout=120)

    def test_chrome_trace_sealed_with_counters(self, tmp_path):
        path = tmp_path / "ambient.json"
        self.run_traced(path)
        data = json.loads(path.read_text())  # sealed: strictly valid JSON
        counters = {e["name"]: e["args"]["value"] for e in data if e["ph"] == "C"}
        assert counters["obs.test.atexit"] == 5
        assert "ambient" in {e["name"] for e in data if e["ph"] == "X"}
        assert data[-1]["ph"] == "M"

    def test_jsonl_trace_dumps_counters(self, tmp_path):
        path = tmp_path / "ambient.jsonl"
        self.run_traced(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
        assert counters["obs.test.atexit"] == 5


class TestPoolWorkers:
    #: Service jobs small enough that four of them stay CI-sized.
    TINY_JOB = dict(
        we=3, wf=4, num_inputs=2, counter_width=4,
        channel_width=12, placement_effort=0.3, router_iterations=20,
    )

    def test_sweep_spans_across_workers(self, tmp_path):
        """Forked service workers write their spans into the parent's trace."""
        import asyncio

        from repro.service import JobSpec, execute_job
        from repro.service.pool import SupervisedWorkerPool

        jobs = [JobSpec(**self.TINY_JOB, seed=seed).to_payload() for seed in range(4)]

        async def run_all(pool):
            return await asyncio.gather(
                *(pool.run_job(f"job-{i}", payload) for i, payload in enumerate(jobs))
            )

        path = tmp_path / "pool.jsonl"
        pool = SupervisedWorkerPool(workers=2)
        try:
            with tracing(str(path)):
                results = asyncio.run(run_all(pool))
        finally:
            pool.shutdown()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        exec_spans = [
            r for r in records if r["type"] == "span" and r["name"] == "service.exec"
        ]
        assert len(exec_spans) == 4
        # every span tree is well-formed in its own (pid, tid) lane: the
        # service.exec span is that worker's top-level span (depth 0)
        assert all(s["depth"] == 0 for s in exec_spans)
        assert {s["pid"] for s in exec_spans} == {r["worker_pid"] for r in results}
        if os.name == "posix":
            # forked workers contribute records under their own pids
            assert len({s["pid"] for s in exec_spans}) >= 2
            assert os.getpid() not in {s["pid"] for s in exec_spans}
        # the traced pool's results equal a tracing-off in-process run
        for got, payload in zip(results, jobs):
            assert got["digest"] == execute_job(payload)["digest"]


class TestTrajectoryNeutrality:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_place_bit_identical_with_tracing(self, tmp_path, seed):
        nl = adder_netlist(4)
        arch = sized_arch(nl)
        off = place(nl, arch, seed=seed, effort=0.4)
        with tracing(str(tmp_path / f"p{seed}.jsonl")):
            on = place(nl, arch, seed=seed, effort=0.4)
        assert on.cost == off.cost
        assert on.placement.block_site == off.placement.block_site
        assert on.moves_accepted == off.moves_accepted

    @pytest.mark.parametrize("seed", [0, 1])
    def test_route_bit_identical_with_tracing(self, tmp_path, seed):
        nl = adder_netlist(4)
        arch = sized_arch(nl)
        device = build_device(arch)
        placement = place(nl, arch, seed=seed, effort=0.4).placement
        off = route(nl, placement, device, max_iterations=12)
        with tracing(str(tmp_path / f"r{seed}.jsonl")):
            on = route(nl, placement, device, max_iterations=12)
        assert on.success == off.success
        assert on.wirelength == off.wirelength
        assert on.routes.keys() == off.routes.keys()
        for nid in off.routes:
            assert on.routes[nid].nodes == off.routes[nid].nodes


class TestTelemetry:
    def test_route_telemetry_shape(self):
        nl = adder_netlist(4)
        arch = sized_arch(nl)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.4).placement
        result = route(nl, placement, device, max_iterations=12)
        t = result.telemetry
        assert t is not None and t["kernel"] == result.kernel
        n = len(t["overuse_per_iteration"])
        assert n >= 1
        assert len(t["rerouted_nets_per_iteration"]) == n
        assert len(t["iteration_wall_ms"]) == n
        assert t["nodes_expanded"] > 0
        if result.success:
            assert t["overuse_per_iteration"][-1] == 0

    def test_place_telemetry_shape(self):
        nl = adder_netlist(4)
        arch = sized_arch(nl)
        result = place(nl, arch, seed=0, effort=0.4)
        t = result.telemetry
        assert t is not None and t["kernel"] == DEFAULT_PLACE_KERNEL
        steps = result.temperature_steps
        assert len(t["temperature"]) == steps
        assert len(t["cost"]) == steps
        assert len(t["acceptance"]) == steps
        # annealing converges: the cost curve ends at the final cost and
        # the temperature axis is monotonically non-increasing
        assert t["cost"][-1] == result.cost
        assert all(a >= b for a, b in zip(t["temperature"], t["temperature"][1:]))
        assert all(0.0 <= a <= 1.0 for a in t["acceptance"])

    def test_par_result_telemetry_and_summary(self, tmp_path):
        from repro.par.cache import PaRCache

        nl_design = Design("adder")
        a = nl_design.input_bus("a", 4)
        b = nl_design.input_bus("b", 4)
        s, co = nl_design.adder(a, b)
        nl_design.output_bus("s", s)
        nl_design.output_bit("cout", co)
        opt, _ = optimize(nl_design.circuit)
        network = map_conventional(opt)

        cache = PaRCache(tmp_path / "cache")
        par = place_and_route(
            network, placement_effort=0.3, router_iterations=12, cache=cache
        )
        t = par.telemetry
        assert t is not None
        assert t["route"]["kernel"] == par.routing.kernel
        assert t["place"]["kernel"] == DEFAULT_PLACE_KERNEL
        assert t["cache"]["misses"] >= 1 and t["cache"]["hits"] == 0
        summary = par.summary()
        assert summary["cache_misses"] >= 1
        assert summary["cache_hit_rate"] == 0.0

        # second run: the route re-hydrates from cache and says so
        par2 = place_and_route(
            network, placement_effort=0.3, router_iterations=12, cache=cache
        )
        assert par2.routing.telemetry.get("from_cache") is True
        assert par2.summary()["cache_hits"] >= 1
        assert par2.telemetry["cache"]["hit_rate"] > 0.0

    def test_registry_counters_flow(self):
        nl = adder_netlist(3)
        arch = sized_arch(nl)
        reg = obs_metrics.registry()
        before = reg.snapshot()["counters"]
        place(nl, arch, seed=0, effort=0.3)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        route(nl, placement, device, max_iterations=10)
        after = reg.snapshot()["counters"]

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        assert delta("place.calls") == 2
        assert delta("route.calls") == 1
        assert delta("route.nodes_expanded") > 0
