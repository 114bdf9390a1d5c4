"""Tests for placement, routing and the TPaR flow."""

import ast
import dataclasses
import inspect
import os
import pathlib
import statistics
import types

import numpy as np
import pytest
import oracles
from helpers import channel_occupancy
from oracles import (
    minimum_channel_width_unpruned,
    place_reference,
    probe_reference,
    route_reference,
    routing_differences,
)
from test_golden_digests import DESIGNS, MIN_CW, _adder_network, _auto_arch

from repro.core.flows import PEFlowResult, compare_pe_flows, run_pe_flow
from repro.core.toolflow import run_vcgra_toolflow
from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.device import Device, build_device
from repro.fpga.routing_graph import RRGraph
from repro.netlist.hdl import Design
import repro.native.astar as native_astar
import repro.par.flow as par_flow
import repro.par.metrics as par_metrics
from repro.par.cache import PaRCache
from repro.par.flow import cached_route, place_and_route, timing_driven_placement
from repro.par.forest import FOREST_ARRAYS
from repro.par.metrics import minimum_channel_width
from repro.par.netlist import PhysicalNetlist, from_mapped_network
from repro.par.placement import _RBUF, TimingCost, _integer_draws, hpwl, place, random_placement
from repro.par.forest import build_route_forest
from repro.par.routing import RoutingResult, predict_failure, route, route_resilient
from repro.par.timing import report_from_analysis
from repro.service.spec import result_digest
from repro.synth.constprop import specialize
from repro.synth.optimize import optimize
from repro.techmap import map_conventional, map_parameterized
from repro.timing import analyze, routed_edge_delays


def adder_network(width=4, param=False):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.param_bus("b", width) if param else d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_parameterized(opt) if param else map_conventional(opt)


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


def node_list_occupancy(result, device):
    """``channel_occupancy`` counted from the per-net node lists."""
    rr = device.rr_graph
    occ = np.zeros(rr.num_nodes, dtype=np.int64)
    for net_route in result.routes.values():
        for n in net_route.nodes:
            occ[n] += 1
    wires = occ[rr.wire_mask()]
    return {"peak": int(wires.max()), "used": int(np.count_nonzero(wires)),
            "total": int(wires.size)}


class TestPhysicalNetlist:
    def test_conventional_lowering(self):
        net = adder_network(4, param=False)
        nl = from_mapped_network(net)
        assert nl.num_logic_blocks() == net.num_luts()
        assert nl.num_io_blocks() == len(net.input_node_ids()) + len(net.outputs)
        assert nl.num_ff_blocks() == 0
        nl.validate()

    def test_parameterized_lowering_has_ff_free_settings(self):
        net = adder_network(4, param=True)
        nl = from_mapped_network(net)
        # Parameters never become blocks in the fully parameterized flow.
        assert nl.num_ff_blocks() == 0
        assert nl.num_logic_blocks() == net.num_luts()

    def test_conventional_params_become_ff_blocks(self):
        d = Design()
        a = d.input_bus("a", 3)
        k = d.param_bus("k", 3)
        d.output_bus("s", d.adder(a, k)[0])
        net = map_conventional(optimize(d.circuit)[0])
        nl = from_mapped_network(net)
        assert nl.num_ff_blocks() == 3

    def test_tcons_are_absorbed_into_nets(self):
        d = Design()
        a = d.input_bus("a", 4)
        k = d.param_bus("k", 4)
        d.output_bus("p", d.multiplier(a, k))
        net = map_parameterized(optimize(d.circuit)[0])
        nl = from_mapped_network(net)
        assert nl.num_tcons_absorbed == net.num_tcons()

    def test_nets_have_sinks(self):
        nl = from_mapped_network(adder_network(5))
        for net in nl.nets:
            assert net.sinks


class TestPlacement:
    def test_random_placement_is_feasible(self):
        nl = chain_netlist(8)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        pl = random_placement(nl, arch, seed=1)
        sites = [s.as_tuple() for s in pl.block_site.values()]
        assert len(sites) == len(set(sites))  # no overlaps
        for b in nl.blocks:
            kind = pl.block_site[b.id].kind
            assert (kind == "clb") == b.needs_logic_site

    def test_placement_rejects_oversubscription(self):
        nl = chain_netlist(30)
        arch = FPGAArchitecture(width=3, height=3, channel_width=4)
        with pytest.raises(ValueError):
            random_placement(nl, arch)

    def test_annealing_improves_cost(self):
        nl = chain_netlist(12)
        arch = FPGAArchitecture(width=5, height=5, channel_width=4)
        result = place(nl, arch, seed=3, effort=0.5)
        assert result.cost <= result.initial_cost
        assert result.cost == pytest.approx(hpwl(nl, result.placement), rel=1e-9)

    def test_chain_placement_quality(self):
        # A 12-block chain placed on a 5x5 array should come close to the
        # minimum possible wirelength (one unit per connection).
        nl = chain_netlist(12)
        arch = FPGAArchitecture(width=5, height=5, channel_width=4)
        result = place(nl, arch, seed=0)
        assert result.cost <= 3.0 * len(nl.nets)


class TestRouting:
    def test_route_small_chain(self):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        device = build_device(arch)
        placement = place(nl, arch, seed=2, effort=0.5).placement
        result = route(nl, placement, device)
        assert result.success
        assert result.wirelength > 0
        assert set(result.routes) == {n.id for n in nl.nets}
        occ = channel_occupancy(result, device)
        assert occ["peak"] <= arch.channel_width
        assert occ == node_list_occupancy(result, device)

    def test_route_respects_capacity(self):
        net = adder_network(4)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.5).placement
        result = route(nl, placement, device)
        assert result.success
        assert result.overused_nodes == 0

    def test_congestion_fails_gracefully_on_tiny_channel(self):
        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=1)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        result = route(nl, placement, device, max_iterations=3)
        # With W=1 either the router reports congestion or it squeezes through;
        # it must never report success while nodes are overused.
        assert result.success == (result.overused_nodes == 0)


class TestMinimumChannelWidth:
    def test_min_cw_of_small_design(self):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        result = minimum_channel_width(nl, placement, arch, low=1, high=8)
        assert 1 <= result.min_channel_width <= 8
        assert result.attempts[result.min_channel_width] is True

    def test_min_cw_respects_bounds_and_records_attempts(self):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        result = minimum_channel_width(nl, placement, arch, low=2, high=8)
        assert 2 <= result.min_channel_width <= 8
        # Every probe lies in the (possibly widened) search interval and the
        # minimum is consistent with the recorded outcomes.
        assert all(w >= 2 for w in result.attempts)
        below = [w for w, ok in result.attempts.items()
                 if ok and w < result.min_channel_width]
        assert not below
        assert result.wirelength_at_min > 0

    def test_min_cw_rejects_bad_bounds(self, monkeypatch):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        # low > high used to return a width that is not minimal
        # ("min CW = 6 (W=3:ok, W=6:ok)").
        for low, high in ((6, 3), (0, 8), (-1, 4)):
            with pytest.raises(ValueError, match="low <= high"):
                minimum_channel_width(nl, placement, arch, low=low, high=high)
        # The flow rejects the bounds before any placement work.
        import repro.par.flow as flow

        def no_placement(*args, **kwargs):
            raise AssertionError("place() ran before the min-CW bounds were checked")

        monkeypatch.setattr(flow, "place", no_placement)
        for bounds in ((6, 3), (0, 8)):
            with pytest.raises(ValueError, match="low <= high"):
                place_and_route(adder_network(4), channel_width=8, placement_effort=0.3,
                                find_min_channel_width=True, min_cw_bounds=bounds)

    @pytest.mark.parametrize("seed", range(5))
    def test_min_cw_matches_unpruned_oracle(self, seed):
        """The predictor changes no found width and no probed width's outcome."""
        aborted = 0
        for name, nl, placement, arch, (low, high) in min_cw_fixtures(seed):
            result = minimum_channel_width(nl, placement, arch, low=low, high=high)
            width, attempts = minimum_channel_width_unpruned(
                nl, placement, arch, low=low, high=high
            )
            assert (result.min_channel_width, result.attempts) == (width, attempts), name
            for probe in result.probes.values():
                assert set(probe) == {"converged", "iterations", "aborted"}
                if probe["aborted"]:
                    assert not probe["converged"] and probe["iterations"] < 12
                    aborted += 1
        assert aborted, "no probe was stopped: the comparison covers no abort"

    def test_min_cw_probe_records_survive_the_cache(self, tmp_path, monkeypatch):
        _, nl, placement, arch, (low, high) = next(
            f for f in min_cw_fixtures(0) if f[0] == "adder16"
        )
        first = minimum_channel_width(
            nl, placement, arch, low=low, high=high, cache=PaRCache(tmp_path)
        )
        assert any(p["aborted"] for p in first.probes.values())

        import repro.par.metrics as metrics

        monkeypatch.setattr(metrics, "route", None)  # any probe would crash
        again = minimum_channel_width(
            nl, placement, arch, low=low, high=high, cache=PaRCache(tmp_path)
        )
        assert again.probes == first.probes

    @pytest.mark.skipif(
        os.environ.get("REPRO_FULL", "0") in ("", "0", "false", "False"),
        reason="bench-PE sweep runs at paper scale only (REPRO_FULL=1)",
    )
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("parameterized", [False, True])
    def test_bench_pe_min_cw_matches_unpruned_oracle(self, seed, parameterized):
        """The bench PE (5/10 format, W=14) of the ``table1`` workload."""
        from repro.core.pe import ProcessingElementSpec, build_pe_design
        from repro.flopoco.format import FPFormat

        circuit = build_pe_design(ProcessingElementSpec(fmt=FPFormat(5, 10))).circuit
        flow = run_pe_flow(circuit, parameterized=parameterized, channel_width=14, seed=seed)
        par = flow.par
        nl, placement, arch = par.netlist, par.placement.placement, par.device.arch
        result = minimum_channel_width(nl, placement, arch)
        assert (result.min_channel_width, result.attempts) == (
            minimum_channel_width_unpruned(nl, placement, arch)
        )

    def test_min_cw_failure_path_raises(self, monkeypatch):
        # When routing fails at every width, the search must widen up to the
        # hard cap and then raise instead of looping forever.
        import repro.par.metrics as metrics

        def always_congested(*args, **kwargs):
            raise RuntimeError("unroutable")

        monkeypatch.setattr(metrics, "route", always_congested)
        nl = chain_netlist(4)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        with pytest.raises(RuntimeError, match="does not route"):
            minimum_channel_width(nl, placement, arch, low=1, high=4)

    def test_min_cw_reuses_cached_routes(self, tmp_path, monkeypatch):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        cache = PaRCache(tmp_path / "routes")
        first = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache)

        # Second run must be served entirely from the cache: routing breaks.
        import repro.par.metrics as metrics

        def explode(*args, **kwargs):
            raise AssertionError("route() called despite warm cache")

        monkeypatch.setattr(metrics, "route", explode)
        cache2 = PaRCache(tmp_path / "routes")
        again = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache2)
        assert again.min_channel_width == first.min_channel_width
        assert cache2.hits > 0


def min_cw_fixtures(seed):
    """``(name, netlist, placement, arch, (low, high))`` of every min-CW check.

    The chain is the min-CW fixture of the tests above; the 16-bit adder
    is narrow enough at W = 1 and 2 that the routing-failure predictor
    stops probes, so the oracle comparison covers aborted probes too.
    """
    chain = chain_netlist(6)
    chain_arch = FPGAArchitecture(width=4, height=4, channel_width=8)
    chain_pl = place(chain, chain_arch, seed=seed, effort=0.5).placement
    adder = from_mapped_network(adder_network(16))
    adder_arch = auto_size(adder.num_logic_blocks(), adder.num_io_blocks(), channel_width=8)
    adder_pl = place(adder, adder_arch, seed=seed, effort=0.4).placement
    for low in (1, 2):
        yield "chain6", chain, chain_pl, chain_arch, (low, 8)
        yield "adder16", adder, adder_pl, adder_arch, (low, 8)


class TestSharedProbeGraph:
    """The min-CW probes route on one graph per search, built at the search's
    upper bound, and give the records of a device built at each width."""

    @staticmethod
    def _golden(name):
        """The seeded placement ``test_golden_digests.mincw_digest`` searches."""
        nl = from_mapped_network(_adder_network(*DESIGNS[MIN_CW[name]]))
        arch = _auto_arch(nl, channel_width=3)
        return nl, place(nl, arch, seed=2, effort=0.4).placement, arch

    @staticmethod
    def _record(monkeypatch):
        """Record every probe route by width, and every graph the search builds."""
        routed, built = {}, []
        probe_route, build = par_metrics.route, par_metrics.build_device

        def recording_route(netlist, placement, device, **kwargs):
            try:
                result = probe_route(netlist, placement, device, **kwargs)
            except RuntimeError:
                routed[device.arch.channel_width] = (False, 0, None, False, None)
                raise
            routed[device.arch.channel_width] = (
                result.success, result.wirelength, result.iterations, result.aborted,
                result.telemetry["nodes_expanded"],
            )
            return result

        def recording_build(arch):
            built.append(arch.channel_width)
            return build(arch)

        monkeypatch.setattr(par_metrics, "route", recording_route)
        monkeypatch.setattr(par_metrics, "build_device", recording_build)
        return routed, built

    @pytest.mark.parametrize("backend", ["native", "python"])
    @pytest.mark.parametrize("bounds", [(2, 32), (1, 1)], ids=["default", "widening"])
    @pytest.mark.parametrize("name", sorted(MIN_CW))
    def test_probes_match_per_width_builds(self, name, bounds, backend, monkeypatch):
        if backend == "python":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        nl, placement, arch = self._golden(name)
        routed, built = self._record(monkeypatch)
        low, high = bounds
        result = minimum_channel_width(nl, placement, arch, low=low, high=high)
        assert result.probes == {
            w: {"converged": ok, "iterations": iterations, "aborted": aborted}
            for w, (ok, _, iterations, aborted, _) in routed.items()
        }
        assert routed == {w: probe_reference(nl, placement, arch, w) for w in routed}
        # One graph per upper bound the search tries, fewer than its probes.
        tried = [high]
        while not result.probes[tried[-1]]["converged"]:
            tried.append(2 * tried[-1])
        assert built == tried and len(built) < len(result.probes)
        assert len(tried) == (1 if bounds == (2, 32) else 3)

    @pytest.mark.parametrize("backend", ["native", "python"])
    def test_raising_probe_matches_per_width_build(self, backend, monkeypatch):
        """A probe whose router raises ``RuntimeError`` is a failed width with
        no iteration count, on the shared graph as on its own build.

        No placed design here has an unreachable sink (a fully populated
        graph is connected), so the router is made to raise below W = 4 on
        both sides.
        """
        if backend == "python":
            monkeypatch.setenv("REPRO_NATIVE", "0")

        def raising(route):
            def narrow_raises(netlist, placement, device, **kwargs):
                if device.arch.channel_width < 4:
                    raise RuntimeError("net 0 could not reach its sink")
                return route(netlist, placement, device, **kwargs)
            return narrow_raises

        monkeypatch.setattr(oracles, "route", raising(oracles.route))
        monkeypatch.setattr(par_metrics, "route", raising(par_metrics.route))
        nl, placement, arch = self._golden("mincw_adder16")
        routed, _ = self._record(monkeypatch)
        result = minimum_channel_width(nl, placement, arch)
        assert result.probes[2] == {"converged": False, "iterations": None, "aborted": False}
        assert routed == {w: probe_reference(nl, placement, arch, w) for w in routed}

    def test_warm_cache_search_builds_no_graph(self, tmp_path, monkeypatch):
        nl, placement, arch = self._golden("mincw_adder10_param")
        first = minimum_channel_width(nl, placement, arch, cache=PaRCache(tmp_path))
        routed, built = self._record(monkeypatch)
        again = minimum_channel_width(nl, placement, arch, cache=PaRCache(tmp_path))
        assert again.probes == first.probes
        assert routed == {} and built == []


class TestRoutingPredictor:
    """The min-CW probes' routing-failure predictor (``predict_failure``)."""

    #: Overuse per iteration of bench-PE probes that fail at a 12-iteration
    #: budget (flow seed 0): both W=2 probes diverge, both W=5 probes stall.
    HOPELESS = {
        "conv_w2": ([3172, 3329, 3429, 3556, 3595, 3615, 3650, 3660, 3667, 3694, 3711, 3700], 3),
        "param_w2": ([2078, 2142, 2299, 2299, 2350, 2374, 2415, 2418, 2460, 2495, 2473, 2477], 3),
        "conv_w5": ([925, 528, 398, 296, 247, 212, 183, 165, 170, 147, 135, 132], 7),
        "param_w5": ([510, 288, 192, 167, 155, 135, 123, 117, 112, 109, 107, 91], 7),
    }
    #: Near misses the predictor must let run: bench-PE conventional W=7 and
    #: parameterized W=6 (fail at 12), parameterized W=7 (routes at 9), and
    #: the W=2 probe of the ``mincw_adder10_param`` golden fixture.
    NEAR_MISSES = {
        "conv_w7": [295, 85, 22, 12, 9, 6, 2, 2, 2, 2, 1, 1],
        "param_w6": [278, 104, 70, 34, 23, 16, 12, 11, 6, 5, 2, 1],
        "param_w7": [157, 32, 12, 4, 3, 2, 3, 1, 0],
        "golden_adder10_param_w2": [5, 3, 3, 2, 1, 1, 1, 1, 1, 2, 4, 4],
    }

    @staticmethod
    def first_stop(trace, budget=12):
        """The first iteration after which the predictor stops, or None."""
        return next(
            (k for k in range(1, len(trace) + 1) if predict_failure(trace[:k], budget)), None
        )

    @pytest.mark.parametrize("name", sorted(HOPELESS))
    def test_stops_hopeless_probes_early(self, name):
        trace, latest = self.HOPELESS[name]
        stop = self.first_stop(trace)
        assert stop is not None and stop <= latest, (name, stop)

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_never_stops_near_misses(self, name):
        assert self.first_stop(self.NEAR_MISSES[name]) is None

    def test_never_stops_at_budget_or_low_overuse(self):
        assert not predict_failure([100, 200, 300], 3)  # nothing left to save
        assert not predict_failure([20, 20, 20], 12)
        assert predict_failure([21, 21, 21], 12)
        assert not predict_failure([500, 600], 12)  # too short to fit

    def test_router_stops_only_when_asked(self):
        nl = from_mapped_network(adder_network(16))
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=1)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.4).placement
        full = route(nl, placement, device, max_iterations=12)
        stopped = route(nl, placement, device, max_iterations=12, abort_hopeless=True)
        assert not full.success and not full.aborted and full.iterations == 12
        assert not stopped.success and stopped.aborted and stopped.iterations < 12
        # Stopping early never changes the iterations that did run.
        trace = full.telemetry["overuse_per_iteration"]
        assert stopped.telemetry["overuse_per_iteration"] == trace[:stopped.iterations]
        assert self.first_stop(trace) == stopped.iterations


class TestDirectedRoutingKernel:
    def test_astar_matches_reference_quality(self):
        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=6)
        device = build_device(arch)
        # The placement this band was set on: a router check, so its input
        # stays fixed when the default annealer changes.
        placement = place_reference(nl, arch, seed=2, effort=0.4).placement
        ref = route_reference(nl, placement, device)
        astar = route(nl, placement, device)
        assert astar.success == ref.success
        assert astar.overused_nodes == 0
        # The directed kernel is re-baselined, not bit-checked: its
        # wirelength must stay within 5% of the reference route.
        assert astar.wirelength <= 1.05 * ref.wirelength
        assert set(astar.routes) == {n.id for n in nl.nets}
        occ = channel_occupancy(astar, device)
        assert occ["peak"] <= arch.channel_width
        assert occ == node_list_occupancy(astar, device)

    def test_astar_matches_reference_quality_across_seeds(self):
        # The single pinned placement above can land on either side of a
        # per-instance band; over ten default placements the mean
        # astar/reference wirelength ratio is the robust quality claim.
        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=6)
        device = build_device(arch)
        ratios = []
        for seed in range(10):
            placement = place(nl, arch, seed=seed, effort=0.4).placement
            ref = route_reference(nl, placement, device)
            astar = route(nl, placement, device)
            assert ref.success and astar.success, seed
            assert astar.overused_nodes == 0, seed
            ratios.append(astar.wirelength / ref.wirelength)
        mean = statistics.mean(ratios)
        assert mean <= 1.05, f"astar wirelength {mean:.3f}x of reference on average"

    def test_astar_routes_are_connected_trees(self):
        # Every net's route must contain its source and all sink nodes, and
        # every non-source node must be reachable from a used node (the
        # backtrace merges paths into one tree).
        nl = chain_netlist(8)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        device = build_device(arch)
        placement = place(nl, arch, seed=2, effort=0.5).placement
        result = route(nl, placement, device)
        assert result.success
        rr = device.rr_graph
        adj = {n: set(rr.edge_dst[rr.edge_ptr[n]:rr.edge_ptr[n + 1]].tolist())
               for r in result.routes.values() for n in r.nodes}
        for r in result.routes.values():
            nodes = set(r.nodes)
            reached = {r.nodes[0]}
            frontier = [r.nodes[0]]
            while frontier:
                n = frontier.pop()
                for m in adj[n] & nodes:
                    if m not in reached:
                        reached.add(m)
                        frontier.append(m)
            assert reached == nodes

    def test_astar_is_default_kernel(self):
        """The flow's main route is the plain astar route of its placement."""
        par = place_and_route(adder_network(3), channel_width=8, placement_effort=0.3)
        plain = route(par.netlist, par.placement.placement, par.device)
        assert par.events == []
        assert not routing_differences(par.routing, plain)

    @pytest.mark.parametrize("objective", ["wirelength", "timing"])
    def test_route_is_budget_independent(self, objective):
        """A route converging at k <= B is the same route under B and 2B.

        The cache stores a retried (2B) route under B's key on exactly this
        property, so it must hold forest array for array -- on the
        placement of either objective's placer.
        """
        nl = from_mapped_network(adder_network(4))
        # The timing placement is not routable at W=2 within the default
        # budget; at W=3 it still negotiates over several iterations.
        width = 3 if objective == "timing" else 2
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=width)
        device = build_device(arch)
        placer = timing_driven_placement if objective == "timing" else place
        placement = placer(nl, arch, seed=0, effort=0.4).placement
        budget = route(nl, placement, device).iterations
        assert budget > 1  # the design negotiates, so the bound is exercised
        at_b = route(nl, placement, device, max_iterations=budget)
        at_2b = route(nl, placement, device, max_iterations=2 * budget)
        assert at_b.success and at_2b.success
        assert not routing_differences(at_b, at_2b)

    def test_unknown_kernel_rejected(self):
        nl = chain_netlist(4)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        # The router and the placer each have one kernel and no selector:
        # no kernel name, the retired ones included, is silently accepted.
        for kernel in ("astar", "fast", "wavefront", "auto", "reference"):
            with pytest.raises(TypeError):
                route(nl, placement, device, kernel=kernel)
            with pytest.raises(TypeError):
                route_resilient(nl, placement, device, kernel=kernel)
        for kernel in ("incremental", "reference", "batched"):
            with pytest.raises(TypeError):
                place(nl, arch, kernel=kernel)


class TestShippedSurface:
    #: Parameters with a single value left, removed from the API.
    REMOVED = {
        place: ("kernel", "inner_num"),
        PaRCache.route_key: ("kernel", "objective"),
        place_and_route: (
            "placement_kernel", "route_kernel", "min_cw_route_kernel",
            "timing_placer", "timing_passes", "timing_tradeoff", "workers",
        ),
        timing_driven_placement: (
            "mode", "passes", "inner_num", "tradeoff", "exponent", "retime_every",
        ),
        TimingCost: ("retime_every", "tradeoff"),
        from_mapped_network: ("tcon_selection",),
        run_vcgra_toolflow: ("pe_critical_path_ns",),
        specialize: ("keep_params_as_inputs",),
        cached_route: ("kernel", "degrade", "objective", "criticality_exponent"),
        route_resilient: ("kernel", "degrade", "objective"),
        minimum_channel_width: ("route_kernel", "workers"),
        route: (
            "kernel", "pres_fac_init", "pres_fac_mult", "hist_fac", "astar_fac",
            "bbox_margin", "max_criticality", "objective", "criticality_exponent",
        ),
        run_pe_flow: ("workers",),
        compare_pe_flows: ("workers",),
        routed_edge_delays: ("routes", "fallback"),
        build_route_forest: ("cache",),
        PaRCache: ("strict",),
        FPGAArchitecture: ("fc_in", "fc_out"),
    }
    #: Test oracles that live in tests/oracles.py, never in the package.
    ORACLES = {"_route_reference", "_place_reference", "simulate_patterns_reference",
               "AUTO_KERNEL", "routed_edge_delays_reference", "_walk_connections",
               "net_criticality_from_placement", "_fold_edge_crit_to_nets",
               "param_bit_values_reference", "_fragment_from_conns"}
    #: Retired route-tree fallbacks: every routing result carries a forest.
    FALLBACKS = {"_walk_bfs", "_fragment_from_tree", "routed_wirecount_edge_delays",
                 "analyze_timing"}
    #: Retired routing kernel and its degradation chain: one astar router.
    KERNELS = {"_route_fast", "DEGRADATION_CHAIN"}
    #: Retired second copy of the route trees: the forest is the only one.
    COPIES = {"to_net_routes", "_net_route_of", "_WHOLE_FOREST_KEY"}
    #: Retired second forest-to-timing join, its forest accumulations, the
    #: strict cache mode and the STA views and summaries nothing read.
    JOINS = {
        "_forest_edge_data", "_edge_delay_from_forest", "sink_rr_of_blocks",
        "connection_delays", "connection_delay_elements", "structural_net_criticality",
        "CacheIOError", "timing_at_min",
    }
    #: Retired second copy of the RR graph for the router: both router
    #: backends read the graph's own arrays.
    VIEWS = {"RouterSearchView", "search_view", "release_search_view", "entries_of",
             "entry_pin"}
    #: Retired module-level names: the scale-out seams (placement sweep,
    #: cache-tier protocol), second copies and exports nothing called.
    RETIRED = {
        "repro.par": ("placement_sweep", "best_placement"),
        "repro.par.flow": ("placement_sweep", "best_placement"),
        "repro.par.cache": ("CacheBackend", "LocalDirBackend", "MemoryBackend"),
        "repro.par.routing": (
            "_route_fast", "DEGRADATION_CHAIN", "_base_cost_array", "MAX_CRITICALITY",
        ),
        "repro.par.forest": ("join_sorted",),
        "repro.par.placement": ("_place_batched",),
        "repro.fpga.routing_graph": ("RouterSearchView", "_track_subset"),
        "repro.fpga": ("device_for_netlist",),
        "repro.fpga.device": ("device_for_netlist",),
        "repro.timing": ("net_criticality_from_placement", "CriticalityTracker"),
        "repro.timing.sta": (
            "net_criticality_from_placement", "_fold_edge_crit_to_nets", "CriticalityTracker",
        ),
        "repro.obs": ("emit_counter",),
        "repro.obs.trace": ("emit_counter",),
    }
    #: Retired names only tests reached (``tests/test_reach.py`` keeps them
    #: out); the helpers among them moved to ``tests/helpers.py``.
    TEST_ONLY = {
        "repro.netlist": (
            "const_tt", "is_wire_function", "GATE_COST", "gate_truth_table",
            "simulate_single", "exhaustive_patterns",
        ),
        "repro.netlist.boolean": ("const_tt", "is_wire_function"),
        "repro.netlist.library": ("GATE_COST", "gate_truth_table"),
        "repro.netlist.simulate": ("simulate_single", "exhaustive_patterns"),
        "repro.flopoco": (
            "encode_array", "decode_array", "fp_neg",
            "fp_adder_circuit", "fp_mac_circuit", "fp_multiplier_circuit",
        ),
        "repro.flopoco.arithmetic": ("encode_array", "decode_array", "fp_neg"),
        "repro.flopoco.circuits": ("fp_adder_circuit", "fp_mac_circuit", "fp_multiplier_circuit"),
        "repro.core": ("VirtualConnectionBlock",),
        "repro.core.grid": ("VirtualConnectionBlock",),
        "repro.core.pe": ("PE_SETTINGS_FIELDS",),
        "repro.par": ("channel_occupancy",),
        "repro.par.metrics": ("channel_occupancy",),
        "repro.netlist.boolean.TruthTable": ("count_ones", "is_const"),
        "repro.netlist": ("CircuitStats",),
        "repro.netlist.circuit": ("CircuitStats",),
        "repro.netlist.circuit.Circuit": ("fanouts", "levels", "stats"),
        "repro.netlist.hdl.Design": (
            "input_bit", "v_and", "replicate", "increment", "equals_const", "reduce_and",
        ),
        "repro.flopoco.format.FPFormat": ("ulp",),
        "repro.techmap.mapping.MappedNetwork": ("lut_node_ids", "tcon_node_ids"),
        "repro.reconfig.scheduler.ReconfigScheduler": ("resident_names", "reset"),
        "repro.core.grid.VCGRAArchitecture": ("connection_blocks", "downstream_of"),
        "repro.core.settings.PESettings": ("as_param_words",),
        "repro.core.toolflow.ToolflowReport": (
            "estimated_cycle_ns", "estimated_latency_ns", "pipeline_depth", "pe_critical_path_ns",
        ),
        "repro.apps.images.SyntheticFundus": ("green_channel",),
        "repro.vsim.simulator.SimulationTrace": ("output",),
        "repro.vsim.simulator.VCGRASimulator": ("dot_product", "reset"),
        "repro.vsim.mac.MACUnit": ("reset",),
        "repro.fpga.bitstream.Bitstream": ("clone",),
        "repro.par.placement.Placement": ("clone",),
        "repro.par.routing.RoutingResult": ("describe",),
        "repro.par.metrics.MinChannelWidthResult": ("describe",),
        "repro.core.reconfiguration.ReconfigurationCostModel": ("describe",),
        "repro.techmap.mapping.MappingStats": ("as_dict",),
        "repro.par.timing.TimingReport": ("as_dict",),
        "repro.timing.sta.CriticalPathElement": ("as_dict",),
        "repro.reconfig.trace.ReplayReport": ("as_dict",),
        "repro.core.accounting.GridResourceRow": ("as_dict",),
        "repro.synth.synthesis.SynthesisResult": (
            "summary", "num_tunable_gates", "num_static_gates",
        ),
        "repro.core.flows.PEFlowResult": ("total_seconds",),
        "repro.util.resilience.RetryPolicy": ("call",),
    }
    #: Retired fpga-layer members only tests reached, and the connection-block
    #: fractions (connection blocks are always fully populated).
    MEMBERS = {
        FPGAArchitecture: ("describe", "fc_in", "fc_out", "num_clb_sites", "num_io_sites"),
        Device: ("describe", "num_clb_sites", "num_io_sites"),
        RRGraph: ("num_wire_nodes", "is_wire", "fanouts"),
    }

    def test_removed_selectors_and_oracles_are_gone(self):
        removed = 0
        for fn, names in self.REMOVED.items():
            params = inspect.signature(fn).parameters
            for name in names:
                assert name not in params, f"{fn.__qualname__}({name}=) is back"
                removed += 1
        assert removed == 48
        assert "routes" not in {f.name for f in dataclasses.fields(RoutingResult)}

        import importlib.util

        for module, names in self.RETIRED.items():
            for name in names:
                assert not hasattr(importlib.import_module(module), name), (module, name)
        for cls, names in self.MEMBERS.items():
            for name in names:
                assert not hasattr(cls, name), (cls.__name__, name)
        for owner, names in self.TEST_ONLY.items():
            try:
                obj = importlib.import_module(owner)
            except ImportError:
                module, _, cls = owner.rpartition(".")
                obj = getattr(importlib.import_module(module), cls)
            for name in names:
                assert not hasattr(obj, name), (owner, name)
        assert importlib.util.find_spec("repro.netlist.export") is None
        assert "elapsed_seconds" not in {f.name for f in dataclasses.fields(PEFlowResult)}
        assert not hasattr(PaRCache, "place_key")

        import repro

        root = pathlib.Path(repro.__file__).parent
        defined, pools = [], set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                imported = isinstance(node, ast.ImportFrom) and any(
                    alias.name == "ProcessPoolExecutor" for alias in node.names
                )
                if imported or getattr(node, "attr", None) == "ProcessPoolExecutor":
                    pools.add(path.relative_to(root).as_posix())
                if getattr(node, "attr", None) in self.VIEWS:
                    defined.append(f"{path.name}:.{node.attr}")
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names = [node.target.id]
                else:
                    continue
                retired = (
                    self.ORACLES | self.FALLBACKS | self.KERNELS | self.COPIES | self.JOINS
                    | self.VIEWS
                )
                defined += [f"{path.name}:{n}" for n in names if n in retired]
        assert not defined, f"oracles, fallbacks or route copies shipped in src/repro: {defined}"
        assert "entry_pin" not in native_astar.SOURCE
        assert pools == {"service/pool.py"}, f"process pools outside the service: {pools}"


class TestCacheObjectiveNamespace:
    def test_timing_flow_route_key_is_the_wirelength_key(self, tmp_path):
        """A timing flow caches its route under the key any flow routing
        its placement uses: a plain cached_route of it is a hit."""
        cache = PaRCache(tmp_path / "routes")
        par = place_and_route(
            adder_network(3), channel_width=8, placement_effort=0.3, objective="timing",
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 1)
        again = cached_route(par.netlist, par.placement.placement, par.device, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert not routing_differences(again, par.routing)

    def test_min_cw_warm_cache_serves_result(self, tmp_path, monkeypatch):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        cache = PaRCache(tmp_path / "routes")
        first = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache)
        assert first.wirelength_at_min > 0

        import repro.par.metrics as metrics

        def explode(*args, **kwargs):
            raise AssertionError("route() called despite warm cache")

        monkeypatch.setattr(metrics, "route", explode)
        cache2 = PaRCache(tmp_path / "routes")
        again = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache2)
        assert again.min_channel_width == first.min_channel_width
        assert again.wirelength_at_min == first.wirelength_at_min
        assert again.probes == first.probes
        assert cache2.hits > 0

    def test_min_cw_probes_and_flow_route_keep_separate_entries(self, tmp_path):
        """A probe at the flow's own width and iteration budget must not share
        its cache entry: the metrics-only probe value is no route payload, so
        reading it back as one recorded a ``cache-fallback`` on a fault-free
        warm run."""
        net = adder_network(16)
        kwargs = dict(channel_width=2, router_iterations=12, find_min_channel_width=True,
                      placement_effort=0.3, seed=0)
        cold = place_and_route(net, **kwargs)
        assert 2 in cold.min_channel_width.probes
        for _ in range(3):
            warm = place_and_route(net, cache=PaRCache(tmp_path / "routes"), **kwargs)
            assert [e["event"] for e in warm.events] == [e["event"] for e in cold.events]
            assert "cache-fallback" not in {e["event"] for e in warm.events}
            assert warm.min_channel_width.probes == cold.min_channel_width.probes
            assert warm.routing.wirelength == cold.routing.wirelength


class TestBatchedPlacementKernel:
    def test_integer_draws_equal_numpy_integers(self):
        """The annealer's integer refill is numpy's ``integers(0, 2**63)``
        value for value, and leaves the same generator state, across refills
        interleaved with uniform ones as the annealer interleaves them."""
        for seed in range(20):
            ours = np.random.Generator(np.random.PCG64(seed))
            numpy_ = np.random.Generator(np.random.PCG64(seed))
            for _ in range(5):
                drawn = _integer_draws(ours)
                assert drawn.dtype == np.int64
                assert np.array_equal(
                    drawn, numpy_.integers(0, 2**63, size=_RBUF, dtype=np.int64)
                )
                assert np.array_equal(ours.random(_RBUF), numpy_.random(_RBUF))
            assert ours.bit_generator.state == numpy_.bit_generator.state

    def test_batched_quality_within_band_across_seeds(self):
        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=6)
        seeds = range(5)
        ref = [place_reference(nl, arch, seed=s, effort=0.5).cost for s in seeds]
        bat = [place(nl, arch, seed=s, effort=0.5).cost for s in seeds]
        ratio = statistics.mean(bat) / statistics.mean(ref)
        assert ratio <= 1.02, f"batched mean HPWL {ratio:.3f}x of reference"

    def test_batched_cost_is_exact_int_hpwl(self):
        nl = chain_netlist(10)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        for placer in (place_reference, place):
            result = placer(nl, arch, seed=1, effort=0.5)
            assert isinstance(result.cost, int), placer
            assert isinstance(result.initial_cost, int), placer
            assert result.cost == hpwl(nl, result.placement), placer
        assert isinstance(hpwl(nl, result.placement), int)

    def test_batched_is_seed_reproducible(self):
        nl = chain_netlist(8)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        a = place(nl, arch, seed=7, effort=0.5)
        b = place(nl, arch, seed=7, effort=0.5)
        assert a.cost == b.cost
        assert a.moves_accepted == b.moves_accepted
        for bid, site in a.placement.block_site.items():
            assert b.placement.block_site[bid].as_tuple() == site.as_tuple()


class TestDeviceMemo:
    """``place_and_route`` shares one device per architecture (per-process LRU)."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        par_flow._devices.clear()
        yield
        par_flow._devices.clear()

    @staticmethod
    def _flow(net):
        return place_and_route(net, channel_width=8, placement_effort=0.4)

    def test_flows_on_one_architecture_share_one_device(self):
        net = adder_network(4)
        a = self._flow(net)
        b = self._flow(net)
        assert a.device is b.device
        assert result_digest(a) == result_digest(b)
        # The shared graph is still read-only after both routes.
        rr = b.device.rr_graph
        for name in ("node_type", "node_x", "node_y", "node_track",
                     "node_capacity", "edge_ptr", "edge_dst", "search_end"):
            assert not getattr(rr, name).flags.writeable, name

    def test_shared_device_routes_like_a_fresh_one(self):
        net = adder_network(4)
        self._flow(net)
        shared = self._flow(net)
        par_flow._devices.clear()
        fresh = self._flow(net)
        assert fresh.device is not shared.device
        assert result_digest(fresh) == result_digest(shared)
        for name in FOREST_ARRAYS:
            assert np.array_equal(
                getattr(fresh.routing.forest, name), getattr(shared.routing.forest, name)
            ), name

    def test_lru_evicts_the_oldest_architecture(self):
        archs = [FPGAArchitecture(width=2, height=2, channel_width=w)
                 for w in range(1, par_flow.DEVICE_MEMO_SIZE + 2)]
        first = par_flow._shared_device(archs[0])
        for arch in archs[1:-1]:
            par_flow._shared_device(arch)
        assert par_flow._shared_device(archs[0]) is first  # now most recent
        par_flow._shared_device(archs[-1])  # evicts archs[1], the oldest
        assert list(par_flow._devices) == [*archs[2:-1], archs[0], archs[-1]]
        assert par_flow._shared_device(archs[0]) is first

    def test_min_cw_probe_devices_stay_out_of_the_memo(self):
        result = place_and_route(
            adder_network(4), channel_width=8, placement_effort=0.4,
            find_min_channel_width=True, min_cw_bounds=(2, 10),
        )
        assert len(result.min_channel_width.attempts) > 1
        assert list(par_flow._devices) == [result.device.arch]


class TestTimingAndFlow:
    def test_place_and_route_flow_conventional(self):
        net = adder_network(4)
        result = place_and_route(net, channel_width=8, placement_effort=0.4)
        assert result.routing.success
        summary = result.summary()
        assert summary["luts"] == net.num_luts()
        assert summary["wirelength"] > 0
        assert summary["logic_depth"] == net.depth()
        assert result.timing.critical_path_ns > 0

    def test_place_and_route_flow_parameterized(self):
        net = adder_network(4, param=True)
        result = place_and_route(net, channel_width=8, placement_effort=0.4)
        assert result.routing.success
        assert result.network.num_tluts() > 0

    def test_parameterized_wirelength_not_larger(self):
        # The fully parameterized flow places fewer blocks and routes fewer
        # nets, so its wirelength should not exceed the conventional flow's.
        conv = place_and_route(adder_network(6, param=False), channel_width=8,
                               placement_effort=0.4, seed=1)
        par = place_and_route(adder_network(6, param=True), channel_width=8,
                              placement_effort=0.4, seed=1)
        assert par.wirelength <= conv.wirelength

    def test_timing_without_routing(self):
        net = adder_network(4)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks())
        device = build_device(arch)
        report = report_from_analysis(analyze(nl, None, device), net, None, device)
        assert report.logic_depth == net.depth()
        assert report.critical_path_ns > 0

    def test_net_wirelength_stats_count_sinkless_nets(self):
        """Per-net wire statistics over a routed design with a sink-less net.

        ``validate()`` rejects such a net, but ``add_net`` builds one and the
        router gives it an empty tree: it counts as a net with zero wires.
        The values are pinned from the per-net node-list count.
        """
        nl = PhysicalNetlist("chain")
        prev = nl.add_block("pi", "io")
        for i in range(6):
            blk = nl.add_block(f"l{i}", "clb")
            nl.add_net(f"n{i}", prev, [blk])
            prev = blk
        out = nl.add_block("po", "io")
        nl.add_net("out", prev, [out])
        nl.add_net("dangling", 3, [])
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        device = build_device(arch)
        routing = route(nl, placement, device)
        assert routing.success and routing.wirelength == 12
        assert routing.routes[nl.nets[-1].id].nodes[1:] == []
        analysis = analyze(nl, routing, device, placement=placement)
        network = types.SimpleNamespace(depth=lambda: 0)
        report = report_from_analysis(analysis, network, routing, device)
        assert report.mean_net_wirelength == 1.5  # 12 wires over 8 nets
        assert report.max_net_wirelength == 3

    def test_timing_on_routed_result(self):
        net = adder_network(5)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.4).placement
        routing = route(nl, placement, device)
        assert routing.success
        analysis = analyze(nl, routing, device, placement=placement)
        report = report_from_analysis(analysis, net, routing, device)
        assert report.logic_depth == net.depth()
        assert report.critical_path_ns > 0
        # Routed wire statistics must reflect the actual route trees.
        assert report.mean_net_wirelength > 0
        assert report.max_net_wirelength >= report.mean_net_wirelength
        is_wire = device.rr_graph.wire_mask()
        total_wires = sum(int(is_wire[r.nodes].sum()) for r in routing.routes.values())
        assert report.mean_net_wirelength == pytest.approx(
            total_wires / len(routing.routes)
        )
