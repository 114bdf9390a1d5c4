"""Chaos suite: the PAR stack under injected faults.

Every test here installs an explicit :class:`FaultPlan` (or suppresses
injection with ``fault_plan(None)``), so the suite is deterministic and
green both in a clean tier-1 run and in the CI chaos job that additionally
sets an ambient ``REPRO_FAULT_PLAN``.  The recurring assertions:

* under injected cache corruption and kernel timeouts the flow still
  returns a *valid routed result*, with the recovery path
  recorded in ``result.events``;
* recoverable-fault results are **bit-identical** to the fault-free run
  (cache rot changes how much work is done, never which result comes
  out), and so is a route retried after a fault whenever the retry
  converges within the original budget;
* with injection disabled nothing changes at all -- no events, no route
  differences.

See RESILIENCE.md for the fault-point names and the event taxonomy.
"""

import json
import os
from pathlib import Path

import pytest
from oracles import routing_differences

from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.device import build_device
from repro.netlist.hdl import Design
from repro.par import (
    ChannelWidthError,
    PaRCache,
    PhysicalNetlist,
    cached_route,
    minimum_channel_width,
    place_and_route,
    route_resilient,
)
from repro.par.flow import timing_driven_placement
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.routing import route, routing_to_payload
from repro.synth.optimize import optimize
from repro.techmap import map_conventional, map_parameterized
from repro.util import (
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    count_events,
    fault_plan,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def adder_network(width=4):
    """Parameterized ripple-carry adder pushed through the TCON mapper."""
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.param_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_parameterized(opt)


def chain_netlist(n_blocks=6):
    """Synthetic physical netlist: a chain of logic blocks between two IOs."""
    nl = PhysicalNetlist("chain")
    src = nl.add_block("pi", "io")
    prev = src
    for i in range(n_blocks):
        blk = nl.add_block(f"l{i}", "clb")
        nl.add_net(f"n{i}", prev, [blk])
        prev = blk
    out = nl.add_block("po", "io")
    nl.add_net("out", prev, [out])
    nl.validate()
    return nl


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Suppress any ambient REPRO_FAULT_PLAN: every test opts in explicitly.

    The CI chaos job exports a plan for the whole pytest process; without
    this fixture the ambient rules would double-fire inside tests that
    install their own plans.
    """
    with fault_plan(None):
        yield


@pytest.fixture(scope="module")
def negotiating():
    """A placed adder whose route needs several PathFinder iterations."""
    d = Design("adder")
    a = d.input_bus("a", 4)
    b = d.input_bus("b", 4)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    netlist = from_mapped_network(map_conventional(optimize(d.circuit)[0]))
    arch = auto_size(netlist.num_logic_blocks(), netlist.num_io_blocks(), channel_width=2)
    device = build_device(arch)
    placement = place(netlist, arch, seed=0, effort=0.4).placement
    k = route(netlist, placement, device).iterations
    assert k >= 6  # so that k - 3 < k <= 2 * (k - 3): a budget only the retry meets
    return netlist, placement, device, k


@pytest.fixture
def placed_chain():
    netlist = chain_netlist(8)
    arch = auto_size(
        netlist.num_logic_blocks() + netlist.num_ff_blocks(),
        netlist.num_io_blocks(),
        channel_width=8,
    )
    device = build_device(arch)
    placement = place(netlist, arch, seed=0).placement
    return netlist, placement, arch, device


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_unbounded_never_expires(self):
        d = Deadline(None)
        assert not d.expired()
        d.check("anywhere")  # must not raise
        assert d.remaining() == float("inf")

    def test_expiry_with_fake_clock(self):
        t = [0.0]
        d = Deadline(5.0, clock=lambda: t[0])
        assert d.remaining() == 5.0
        t[0] = 4.9
        d.check()
        t[0] = 5.1
        assert d.expired()
        with pytest.raises(DeadlineExceeded, match="5.000s exceeded in stage"):
            d.check("stage")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        p = RetryPolicy(attempts=4, backoff_s=0.1, seed=42)
        assert list(p.backoffs()) == list(p.backoffs())


class TestFaultPlan:
    def test_spec_round_trip(self):
        p = FaultPlan.from_spec(
            "cache.read=corrupt:2; service.exec=crash:1:@worker;"
            "cache.write=io:p0.5:s7; route.kernel=timeout:*"
        )
        r = p.rules["cache.read"]
        assert (r.kind, r.times, r.scope) == ("corrupt", 2, "any")
        assert p.rules["service.exec"].scope == "worker"
        assert p.rules["cache.write"].prob == 0.5
        assert p.rules["cache.write"].seed == 7
        assert p.rules["route.kernel"].times is None

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("nokind")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("site=kind:@nowhere")

    def test_fault_sites_are_the_inject_sites(self, monkeypatch):
        """FAULT_SITES lists exactly the sites ``src/repro`` injects at, and
        a plan from the environment naming any other site fails loudly."""
        import ast
        import subprocess
        import sys

        import repro
        from repro.util.resilience import FAULT_SITES

        sites = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name == "inject":
                    site = node.args[0]
                    assert isinstance(site, ast.Constant), f"{path}: non-literal site"
                    sites.add(site.value)
        assert sites == FAULT_SITES

        monkeypatch.setenv("REPRO_FAULT_PLAN", "cache.read=corrupt:1; cw.probe=crash:1")
        with pytest.raises(ValueError, match="cw.probe"):
            FaultPlan.from_env()
        monkeypatch.setenv("REPRO_FAULT_PLAN", "cache.read=corrupt:1")
        assert set(FaultPlan.from_env().rules) == {"cache.read"}

        # A mistyped ambient plan raises at every fault point, not only the first.
        code = (
            "from repro.util import inject\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        inject('cache.read')\n"
            "    except ValueError as exc:\n"
            "        print('rejected', 'cache.raed' in str(exc))\n"
        )
        env = dict(os.environ, REPRO_FAULT_PLAN="cache.raed=corrupt:1")
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
            check=True,
        )
        assert out.stdout.split("\n")[:2] == ["rejected True"] * 2

    def test_times_budget(self):
        p = FaultPlan.from_spec("s=boom:2")
        with fault_plan(p):
            from repro.util import inject

            assert [inject("s") for _ in range(4)] == ["boom", "boom", None, None]
        assert [(site, kind) for site, kind, _ in p.fired] == [("s", "boom")] * 2

    def test_disabled_site_is_noop(self):
        from repro.util import inject

        with fault_plan(FaultPlan.from_spec("other=boom:*")):
            assert inject("this") is None
        assert inject("this") is None  # no plan at all

    def test_prob_rule_is_seeded(self):
        def draws():
            p = FaultPlan.from_spec("s=boom:p0.5:s3")
            with fault_plan(p):
                from repro.util import inject

                return [inject("s") for _ in range(20)]

        first, second = draws(), draws()
        assert first == second
        assert "boom" in first and None in first


# ---------------------------------------------------------------------------
# Cache failure paths
# ---------------------------------------------------------------------------


class TestCacheResilience:
    def test_injected_read_corruption_counts_and_recovers(self, tmp_path):
        cache = PaRCache(tmp_path / "c")
        cache.put("k", {"v": 1})
        events = []
        with fault_plan(FaultPlan.from_spec("cache.read=corrupt:1")):
            assert cache.get("k", events=events) is None  # injected rot
            assert cache.get("k", events=events) == {"v": 1}  # budget spent
        assert cache.stats()["read_errors"] == 1
        assert count_events(events, "cache-read-error") == 1

    def test_injected_write_fault_drops_and_counts(self, tmp_path):
        cache = PaRCache(tmp_path / "c")
        events = []
        with fault_plan(FaultPlan.from_spec("cache.write=io:1")):
            with pytest.warns(RuntimeWarning, match="dropped a write"):
                assert cache.put("k", {"v": 1}, events=events) is False
            assert cache.put("k", {"v": 2}, events=events) is True
        assert cache.get("k") == {"v": 2}
        assert cache.stats()["dropped_writes"] == 1
        assert count_events(events, "cache-write-dropped") == 1

    def test_missing_entry_is_plain_miss_not_error(self, tmp_path):
        cache = PaRCache(tmp_path / "c")
        events = []
        assert cache.get("absent", events=events) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "read_errors": 0, "dropped_writes": 0,
        }
        assert events == []

    def test_warns_once_per_directory(self, tmp_path):
        import warnings

        PaRCache._warned_dirs.discard(str(tmp_path / "w"))
        cache = PaRCache(tmp_path / "w")
        with fault_plan(FaultPlan.from_spec("cache.write=io:2")):
            with pytest.warns(RuntimeWarning):
                cache.put("a", {})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cache.put("b", {})  # second drop: counted, not warned
        assert cache.stats()["dropped_writes"] == 2


class TestCachedRouteResilience:
    def test_corrupt_route_entry_bit_identical_recovery(self, placed_chain, tmp_path):
        """Cache rot must change the work done, never the result."""
        netlist, placement, arch, device = placed_chain
        cache = PaRCache(tmp_path / "c")
        baseline = cached_route(netlist, placement, device, cache=cache)
        assert baseline.success

        # Rot every cached entry on disk.
        for path in cache.directory.glob("*.json"):
            path.write_text("{definitely not json")
        events = []
        recovered = cached_route(
            netlist, placement, device, cache=cache, events=events
        )
        assert recovered.success
        assert recovered.wirelength == baseline.wirelength
        assert recovered.iterations == baseline.iterations
        assert {n: r.nodes for n, r in recovered.routes.items()} == {
            n: r.nodes for n, r in baseline.routes.items()
        }
        assert count_events(events, "cache-read-error") == 1
        # The recompute overwrote the rotted entry with a good one.
        rehydrated = cached_route(netlist, placement, device, cache=cache)
        assert rehydrated.wirelength == baseline.wirelength

    def test_bad_forest_payload_falls_back_to_fresh_route(
        self, placed_chain, tmp_path
    ):
        netlist, placement, arch, device = placed_chain
        cache = PaRCache(tmp_path / "c")
        baseline = cached_route(netlist, placement, device, cache=cache)
        # Corrupt the forest *inside* valid JSON: json loads fine, the
        # payload validation must catch it.
        [path] = cache.directory.glob("*.json")
        value = json.loads(path.read_text())
        value["forest"]["node"] = [-5] * len(value["forest"]["node"])
        path.write_text(json.dumps(value))
        events = []
        recovered = cached_route(
            netlist, placement, device, cache=cache, events=events
        )
        assert recovered.wirelength == baseline.wirelength
        assert count_events(events, "cache-fallback") == 1

    def test_injected_hydrate_fault(self, placed_chain, tmp_path):
        netlist, placement, arch, device = placed_chain
        cache = PaRCache(tmp_path / "c")
        baseline = cached_route(netlist, placement, device, cache=cache)
        events = []
        with fault_plan(FaultPlan.from_spec("cache.hydrate=corrupt:1")):
            recovered = cached_route(
                netlist, placement, device, cache=cache, events=events
            )
        assert recovered.wirelength == baseline.wirelength
        assert count_events(events, "cache-fallback") == 1

    def test_degraded_result_never_poisons_cache(self, placed_chain, tmp_path):
        """A route retried after a fault is stored only as the fault-free route."""
        netlist, placement, arch, device = placed_chain
        cache = PaRCache(tmp_path / "c")
        with fault_plan(FaultPlan.from_spec("route.kernel=timeout:1")):
            events = []
            retried = cached_route(
                netlist, placement, device, cache=cache, events=events
            )
            assert retried.success
            assert count_events(events, "route-retry") == 1
        # The retry converged within the first budget, so it was stored --
        # and the fault-free rerun hydrates the fault-free route from it.
        events2 = []
        clean = cached_route(netlist, placement, device, cache=cache, events=events2)
        assert clean.telemetry == {"from_cache": True}
        assert events2 == []
        assert not routing_differences(clean, route(netlist, placement, device))

    def test_retry_converging_past_the_budget_is_not_stored(self, negotiating, tmp_path):
        netlist, placement, device, k = negotiating
        budget = k - 3  # the first attempt ends congested, the retry converges
        cache = PaRCache(tmp_path / "c")
        events = []
        result = cached_route(
            netlist, placement, device, cache=cache, max_iterations=budget, events=events
        )
        assert result.success and result.iterations == k
        assert [e["event"] for e in events] == ["kernel-nonconverged", "route-retry"]
        assert not list(cache.directory.glob("*.json"))
        # Under the budget it did converge in, the same route is stored.
        cached_route(netlist, placement, device, cache=cache, max_iterations=k)
        assert len(list(cache.directory.glob("*.json"))) == 1

    def test_legacy_payload_with_kernel_field_hydrates(self, placed_chain, tmp_path):
        """Entries written while results named their kernel stay valid hits."""
        netlist, placement, arch, device = placed_chain
        fresh = route(netlist, placement, device)
        cache = PaRCache(tmp_path / "c")
        key = PaRCache.route_key(netlist, placement, device.arch, device.arch.channel_width, 25)
        cache.put(key, {**routing_to_payload(fresh), "kernel": "astar"})
        hit = cached_route(netlist, placement, device, cache=cache)
        assert hit.telemetry == {"from_cache": True}
        assert not routing_differences(hit, fresh)


# ---------------------------------------------------------------------------
# Per-attempt deadlines and the retry at twice the budget
# ---------------------------------------------------------------------------


class TestRouteResilient:
    def test_fault_free_is_bit_identical_to_route(self, placed_chain):
        netlist, placement, arch, device = placed_chain
        events = []
        a = route(netlist, placement, device)
        b = route_resilient(netlist, placement, device, events=events)
        assert events == []
        assert not routing_differences(a, b)

    def test_timeout_retries_at_twice_the_budget(self, placed_chain):
        netlist, placement, arch, device = placed_chain
        with fault_plan(FaultPlan.from_spec("route.kernel=timeout:1")):
            events = []
            result = route_resilient(
                netlist, placement, device, max_iterations=10, events=events
            )
        assert [e["event"] for e in events] == ["kernel-deadline", "route-retry"]
        assert events[1]["max_iterations"] == 20
        # The budget is only the loop bound: the retry is the plain route.
        assert not routing_differences(result, route(netlist, placement, device))

    def test_kernel_error_degrades(self, placed_chain):
        netlist, placement, arch, device = placed_chain
        with fault_plan(FaultPlan.from_spec("route.kernel=error:1")):
            events = []
            result = route_resilient(netlist, placement, device, events=events)
        assert result.success
        assert count_events(events, "kernel-error") == 1
        assert count_events(events, "route-retry") == 1
        assert not routing_differences(result, route(netlist, placement, device))

    def test_nonconverged_route_is_retried(self, negotiating):
        netlist, placement, device, k = negotiating
        events = []
        result = route_resilient(
            netlist, placement, device, max_iterations=k - 3, events=events
        )
        assert result.success and result.iterations == k
        assert [e["event"] for e in events] == ["kernel-nonconverged", "route-retry"]
        assert not routing_differences(result, route(netlist, placement, device))

    def test_no_convergence_returns_the_first_attempt(self, negotiating):
        netlist, placement, device, k = negotiating
        events = []
        result = route_resilient(netlist, placement, device, max_iterations=2, events=events)
        assert not result.success and result.iterations == 2
        assert count_events(events, "kernel-nonconverged") == 2
        plain = route(netlist, placement, device, max_iterations=2)
        assert not routing_differences(result, plain)

    def test_real_deadline_timeout_degrades(self, placed_chain):
        """A genuine (not injected) 0-second budget expires in both attempts:
        each attempt gets a *fresh* deadline, so each records its own timeout
        before the error propagates."""
        netlist, placement, arch, device = placed_chain
        events = []
        with pytest.raises(DeadlineExceeded):
            route_resilient(netlist, placement, device, deadline_s=0.0, events=events)
        assert count_events(events, "kernel-deadline") == 2
        assert count_events(events, "route-retry") == 1

    @pytest.mark.parametrize("native", ["1", "0"])
    def test_deadline_fires_between_nets_of_the_first_iteration(
        self, placed_chain, monkeypatch, native
    ):
        """The router polls its deadline before every net, so a budget that
        runs out after ``k`` nets of the first iteration stops the route at
        net ``k`` -- on the compiled net loop and on the Python twin."""
        monkeypatch.setenv("REPRO_NATIVE", native)
        netlist, placement, arch, device = placed_chain
        k = 3
        ticks = iter(range(1000))
        # One tick per clock read: the constructor, the iteration-1 poll,
        # then one poll per net; the budget lapses at the poll of net k.
        deadline = Deadline(k + 2, clock=lambda: next(ticks))
        with pytest.raises(DeadlineExceeded, match=rf"astar net {netlist.nets[k].id}$"):
            route(netlist, placement, device, deadline=deadline)

    def test_exhausted_chain_raises_last_error(self, placed_chain):
        netlist, placement, arch, device = placed_chain
        with fault_plan(FaultPlan.from_spec("route.kernel=error:*")):
            events = []
            with pytest.raises(FaultInjected):
                route_resilient(netlist, placement, device, events=events)
        assert count_events(events, "kernel-error") == 2

    def test_timing_objective_kept_on_retry(self, monkeypatch):
        # A timing flow whose route times out once keeps its timing
        # placement, and the retry routes it exactly as route() does.
        monkeypatch.delenv("REPRO_PAR_CACHE", raising=False)
        with fault_plan(FaultPlan.from_spec("route.kernel=timeout:1")):
            par = place_and_route(
                adder_network(), channel_width=8, placement_effort=0.3, objective="timing"
            )
        assert par.objective == "timing" and par.degraded
        placed = timing_driven_placement(par.netlist, par.device.arch, effort=0.3).placement
        assert par.placement.placement.block_site == placed.block_site
        assert count_events(par.events, "route-retry") == 1
        plain = route(par.netlist, par.placement.placement, par.device)
        assert not routing_differences(par.routing, plain)


# ---------------------------------------------------------------------------
# Min-channel-width search failure
# ---------------------------------------------------------------------------


class TestPoolRecovery:
    def test_min_cw_failure_carries_probe_history(self, monkeypatch):
        """When the search gives up, the error says which widths it probed."""
        import repro.par.metrics as metrics

        def always_congested(*args, **kwargs):
            raise RuntimeError("unroutable")

        monkeypatch.setattr(metrics, "route", always_congested)
        nl = chain_netlist(4)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        with pytest.raises(ChannelWidthError, match="does not route") as ei:
            minimum_channel_width(nl, placement, arch, low=1, high=4)
        probes = ei.value.probes
        assert probes, "probe history must not be empty"
        assert all(not p["converged"] for p in probes.values())
        assert max(probes) == 512  # widened all the way to the give-up bound
        # It is still a RuntimeError for callers written before the subclass.
        assert isinstance(ei.value, RuntimeError)


# ---------------------------------------------------------------------------
# Whole-flow chaos
# ---------------------------------------------------------------------------


class TestPlaceAndRouteChaos:
    def test_flow_survives_combined_faults(self, tmp_path):
        """Cache rot + kernel timeout in one flow run."""
        network = adder_network(3)
        baseline = place_and_route(
            network, channel_width=10, find_min_channel_width=True
        )
        assert baseline.routing.success
        assert baseline.events == []
        assert baseline.summary()["recovery_events"] == 0

        plan = FaultPlan.from_spec(
            "cache.read=corrupt:1; route.kernel=timeout:1"
        )
        cache = PaRCache(tmp_path / "c")
        with fault_plan(plan):
            chaotic = place_and_route(
                network,
                channel_width=10,
                find_min_channel_width=True,
                cache=cache,
            )
        # Valid routed result despite every injected failure.
        assert chaotic.routing.success
        assert chaotic.routing.forest is not None
        chaotic.routing.forest.validate()
        assert chaotic.min_channel_width.min_channel_width == (
            baseline.min_channel_width.min_channel_width
        )
        # The recovery paths are visible in the events.
        kinds = [e["event"] for e in chaotic.events]
        assert "route-retry" in kinds
        assert "cache-read-error" in kinds
        summary = chaotic.summary()
        assert summary["recovery_events"] == len(chaotic.events)
        assert summary["route_retries"] == 1
        assert chaotic.degraded

    def test_recoverable_faults_keep_flow_bit_identical(self, tmp_path):
        """Faults absorbed *without* a route retry must leave
        the flow's result bit-identical to the fault-free run."""
        network = adder_network(2)
        baseline = place_and_route(network, channel_width=10)
        plan = FaultPlan.from_spec("cache.read=corrupt:1; cache.write=io:1")
        cache = PaRCache(tmp_path / "c")
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="dropped a write"):
            chaotic = place_and_route(network, channel_width=10, cache=cache)
        assert chaotic.routing.success
        assert not chaotic.degraded
        assert chaotic.wirelength == baseline.wirelength
        assert {n: r.nodes for n, r in chaotic.routing.routes.items()} == {
            n: r.nodes for n, r in baseline.routing.routes.items()
        }
        assert chaotic.summary()["critical_path_ns"] == (
            baseline.summary()["critical_path_ns"]
        )

    def test_route_deadline_parameter_threads_through(self):
        network = adder_network(2)
        result = place_and_route(
            network, channel_width=10, route_deadline_s=120.0
        )
        assert result.routing.success
        assert result.events == []


class TestAmbientEnvPlan:
    def test_env_plan_installs_in_subprocess(self):
        """REPRO_FAULT_PLAN is picked up lazily on the first inject()."""
        import subprocess
        import sys

        code = (
            "from repro.util import inject, active_plan\n"
            "assert inject('cache.hydrate') == 'boom'\n"
            "assert inject('cache.hydrate') is None\n"
            "print('fired', len(active_plan().fired))\n"
        )
        env = dict(os.environ, REPRO_FAULT_PLAN="cache.hydrate=boom:1")
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
            check=True,
        )
        assert out.stdout.strip() == "fired 1"
