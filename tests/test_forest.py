"""Tests for the flat route forest, flat STA hot path, and route caching.

The contract under test: every routing result, on every kernel and
converged or not, carries a flat :class:`repro.par.forest.RouteForest`
that is a lossless, bit-identical replacement for the per-net dict walks
in ``tests/oracles.py`` -- same wirelength, same routed delays, same
criticality vectors -- and that round-trips through the on-disk cache so
hits re-hydrate routes instead of re-routing.
"""

import json

import numpy as np
import pytest
from oracles import (
    candidates_timing_placement,
    net_criticality_from_placement,
    route_reference,
    routed_edge_delays_reference,
)

from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.device import build_device
from repro.fpga.routing_graph import RRNodeType
from repro.netlist.hdl import Design
from repro.par.cache import PaRCache
from repro.par.flow import cached_route, timing_driven_placement
from repro.par.forest import RouteForest
from repro.par.netlist import PhysicalNetlist
from repro.par.placement import TimingCost, hpwl, place
from repro.par.routing import (
    route,
    routing_from_payload,
    routing_to_payload,
)
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.timing.delays import routed_edge_delays
from repro.timing.graph import build_timing_graph
from repro.timing.sta import _scan, analyze

KERNELS = ["astar", "reference"]


def adder_network(width=6):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_conventional(opt)


@pytest.fixture(scope="module")
def routed_pe():
    """One placed design routed by the router and the oracle (routes once)."""
    net = adder_network(6)
    from repro.par.netlist import from_mapped_network

    nl = from_mapped_network(net)
    arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
    device = build_device(arch)
    placement = place(nl, arch, seed=2, effort=0.4).placement
    results = {}
    for kernel in KERNELS:
        if kernel == "reference":
            r = route_reference(nl, placement, device)
        else:
            r = route(nl, placement, device)
        assert r.success, kernel
        results[kernel] = r
    return nl, arch, device, placement, results


def wire_mask(device):
    t = device.rr_graph.node_type
    return (t == RRNodeType.CHANX) | (t == RRNodeType.CHANY)


class TestForestRoundTrip:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wirelength_matches(self, routed_pe, kernel):
        _nl, _arch, device, _placement, results = routed_pe
        r = results[kernel]
        assert r.forest.wirelength(wire_mask(device)) == r.wirelength

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_routed_delays_bit_identical(self, routed_pe, kernel):
        """Flat extraction == the oracle's connection dict walk, to the last bit."""
        nl, arch, device, placement, results = routed_pe
        r = results[kernel]
        graph = build_timing_graph(nl, arch.lut_delay_ns)
        d_dict, w_dict, p_dict = routed_edge_delays_reference(graph, r.routes, placement, device)
        d_flat, w_flat, p_flat = routed_edge_delays(graph, r.forest, placement, device)
        assert np.array_equal(d_dict, d_flat)
        assert np.array_equal(w_dict, w_flat)
        assert np.array_equal(p_dict, p_flat)

    def test_analysis_identical_with_and_without_forest(self, routed_pe):
        """analyze() reports the critical path of the oracle's dict walk."""
        nl, arch, device, placement, results = routed_pe
        for kernel in KERNELS:
            r = results[kernel]
            a_flat = analyze(nl, r, device, placement=placement)
            graph = build_timing_graph(nl, arch.lut_delay_ns)
            d_dict, _w, _p = routed_edge_delays_reference(graph, r.routes, placement, device)
            *_, crit, dmax, _depth = _scan(graph, d_dict)
            assert a_flat.critical_path_ns == dmax, kernel
            assert np.array_equal(a_flat.edge_delay, d_dict), kernel
            assert np.array_equal(a_flat.edge_criticality, crit), kernel

    def test_fast_critical_path_is_exact(self):
        """A grown route is timed along its own tree, not a BFS shortcut.

        Routed with the ``route_reference`` oracle, whose trajectory the
        retired ``fast`` kernel reproduced exactly, so the regression input
        below is unchanged.

        Regression: timing a node-list tree by BFS over the RR graph found
        edges the route never used and under-reported this adder's critical
        path (8.6 ns instead of 9.0 ns).
        """
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(adder_network(10))
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.4).placement
        r = route_reference(nl, placement, device)
        assert r.success
        analysis = analyze(nl, r, device, placement=placement)
        assert analysis.critical_path_ns == pytest.approx(9.0)
        graph = build_timing_graph(nl, arch.lut_delay_ns)
        d_dict, _w, _p = routed_edge_delays_reference(graph, r.routes, placement, device)
        assert analysis.critical_path_ns == _scan(graph, d_dict)[5]

    def test_payload_round_trip_through_json(self, routed_pe):
        _nl, _arch, device, _placement, results = routed_pe
        r = results["astar"]
        payload = routing_to_payload(r)
        assert payload is not None
        back = routing_from_payload(json.loads(json.dumps(payload)))
        assert back is not None
        assert back.wirelength == r.wirelength
        assert back.success == r.success
        assert back.iterations == r.iterations
        assert back.forest.wirelength(wire_mask(device)) == r.wirelength
        for nid, nr in r.routes.items():
            assert set(back.routes[nid].nodes) == set(nr.nodes)

    def test_corrupt_payload_reads_as_miss(self, routed_pe):
        _nl, _arch, _device, _placement, results = routed_pe
        payload = routing_to_payload(results["astar"])
        bad = json.loads(json.dumps(payload))
        bad["forest"]["node"] = bad["forest"]["node"][:3]  # truncated
        assert routing_from_payload(bad) is None
        assert routing_from_payload({"success": True}) is None  # pre-forest entry

    def test_validate_rejects_inconsistent_arrays(self):
        with pytest.raises(ValueError):
            RouteForest.from_payload(
                {
                    "num_rr_nodes": 10,
                    "node": [1, 2],
                    "parent": [-1],  # wrong length
                    "depth": [1, 2],
                    "net_id": [0],
                    "net_source": [0],
                    "net_node_ptr": [0, 2],
                    "net_ptr": [0, 1],
                    "conn_net": [0],
                    "conn_sink": [2],
                    "conn_sink_pos": [1],
                    "conn_ptr": [0, 2],
                }
            )


class TestConvergedForest:
    def test_multi_iteration_route_returns_its_final_trees(self):
        """A route that negotiates over several iterations carries its
        converged trees: no RR node is used by more nets than it holds."""
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(adder_network(16))
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=3)
        device = build_device(arch)
        placement = place(nl, arch, seed=2, effort=0.4).placement
        r = route(nl, placement, device)
        assert r.success and r.iterations > 1
        rr = device.rr_graph
        f = r.forest
        users = np.zeros(rr.num_nodes, dtype=np.int64)
        for k in range(f.num_nets):
            nodes = np.unique(f.node[f.net_node_ptr[k]:f.net_node_ptr[k + 1]])
            users[nodes[rr.node_type[nodes] != RRNodeType.SINK]] += 1
        assert (users <= rr.node_capacity).all()


class TestCacheRehydration:
    def test_cached_route_rehydrates_routes(self, routed_pe, tmp_path):
        nl, _arch, device, placement, results = routed_pe
        cache = PaRCache(tmp_path / "routes")
        first = cached_route(nl, placement, device, cache=cache)
        assert cache.hits == 0 and cache.misses == 1
        second = cached_route(nl, placement, device, cache=cache)
        assert cache.hits == 1
        assert second.wirelength == first.wirelength
        assert second.success == first.success
        assert second.iterations == first.iterations
        for nid, nr in first.routes.items():
            assert set(second.routes[nid].nodes) == set(nr.nodes)
        # The re-hydrated result times identically.
        a1 = analyze(nl, first, device, placement=placement)
        a2 = analyze(nl, second, device, placement=placement)
        assert a1.critical_path_ns == a2.critical_path_ns

    def test_cached_route_corrupt_value_reroutes(self, routed_pe, tmp_path):
        nl, _arch, device, placement, _results = routed_pe
        cache = PaRCache(tmp_path / "routes")
        first = cached_route(nl, placement, device, cache=cache)
        # Clobber every cached value; the next call must fall back to a
        # fresh route, not crash.
        for path in (tmp_path / "routes").glob("*.json"):
            path.write_text(json.dumps({"success": True, "wirelength": 1}))
        again = cached_route(nl, placement, device, cache=cache)
        assert again.wirelength == first.wirelength

    def test_min_cw_values_stay_metrics_only(self, tmp_path):
        """Probe values carry no forest: their keys (probe iteration
        budget) never coincide with a flow's route key, so a
        serialized forest there would be written and read by nobody --
        re-hydration is cached_route's job."""
        from repro.par.metrics import minimum_channel_width

        nl = PhysicalNetlist("chain")
        src = nl.add_block("pi", "io")
        prev = src
        for i in range(6):
            blk = nl.add_block(f"l{i}", "clb")
            nl.add_net(f"n{i}", prev, [blk])
            prev = blk
        out = nl.add_block("po", "io")
        nl.add_net("out", prev, [out])
        nl.validate()
        arch = FPGAArchitecture(width=4, height=4, channel_width=8)
        placement = place(nl, arch, seed=1, effort=0.5).placement
        cache = PaRCache(tmp_path / "routes")
        result = minimum_channel_width(nl, placement, arch, low=1, high=8, cache=cache)
        values = [
            json.loads(path.read_text())
            for path in (tmp_path / "routes").glob("*.json")
        ]
        assert values
        assert all("forest" not in v for v in values)
        assert any(v.get("success") for v in values)
        assert all("timing" not in v for v in values)
        assert result.min_channel_width >= 1

    def test_failed_routes_carry_forest(self, congested):
        """A non-converged result still carries the forest of its trees."""
        nl, placement, device = congested
        for router in (route, route_reference):
            result = router(nl, placement, device, max_iterations=2)
            assert not result.success, router.__name__
            assert result.forest.wirelength(wire_mask(device)) == result.wirelength

    def test_cached_route_never_stores_nonconverged(self, congested, tmp_path):
        nl, placement, device = congested
        cache = PaRCache(tmp_path / "routes")
        events = []
        result = cached_route(
            nl, placement, device, cache=cache, max_iterations=2, events=events
        )
        # Both attempts end congested; the first attempt's result comes back.
        assert not result.success and result.iterations == 2
        assert [e["event"] for e in events] == [
            "kernel-nonconverged", "route-retry", "kernel-nonconverged"
        ]
        assert not list((tmp_path / "routes").glob("*.json"))


@pytest.fixture(scope="module")
def congested():
    """A placed design that cannot converge in two router iterations."""
    nl = PhysicalNetlist("ring")
    a = nl.add_block("pi", "io")
    blocks = [nl.add_block(f"l{i}", "clb") for i in range(4)]
    for i, b in enumerate(blocks):
        nl.add_net(f"n{i}", a, [b])
        nl.add_net(f"m{i}", b, [blocks[(i + 1) % 4]])
    nl.validate()
    arch = FPGAArchitecture(width=2, height=2, channel_width=1)
    placement = place(nl, arch, seed=0, effort=0.3).placement
    return nl, placement, build_device(arch)


class TestIncrementalPlacer:
    def test_places_all_blocks_and_reports_plain_hpwl(self):
        net = adder_network(5)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        result = timing_driven_placement(nl, arch, seed=0, effort=0.3)
        assert set(result.placement.block_site) == {b.id for b in nl.blocks}
        assert result.cost == hpwl(nl, result.placement)
        assert result.objective_cost is not None

    def test_is_seed_reproducible(self):
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        a = timing_driven_placement(nl, arch, seed=3, effort=0.3)
        b = timing_driven_placement(nl, arch, seed=3, effort=0.3)
        assert a.cost == b.cost
        assert all(
            a.placement.block_site[k].as_tuple() == s.as_tuple()
            for k, s in b.placement.block_site.items()
        )

    def test_unknown_mode_rejected(self):
        # One placer mode is left, so mode= is not a parameter any more;
        # the candidate recipe lives in tests/oracles.py.
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        for mode in ("nope", "candidates", "incremental"):
            with pytest.raises(TypeError, match="mode"):
                timing_driven_placement(nl, arch, mode=mode)

    def test_timing_cost_requires_batched_kernel(self):
        net = adder_network(4)
        from repro.par.netlist import from_mapped_network

        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        tc = TimingCost([0], [1], lambda x, y: [0.5])
        # The batched annealer is the only one: no kernel can be selected.
        with pytest.raises(TypeError, match="kernel"):
            place(nl, arch, kernel="reference", timing=tc)
        with pytest.raises(ValueError, match="exclusive"):
            place(nl, arch, timing=tc, net_weights=[1.0] * len(nl.nets))

    def test_timing_cost_validates_conn_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            TimingCost([0, 1], [1], lambda x, y: [])

    def test_beats_or_matches_candidates_on_estimated_cp(self):
        """The headline claim at unit-test scale: the incremental placer's
        estimated critical path is no worse than the candidate recipe's."""
        from repro.par.netlist import from_mapped_network

        net = adder_network(6)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        graph = build_timing_graph(nl, arch.lut_delay_ns)

        def est(result):
            return net_criticality_from_placement(
                graph, result.placement, arch, exponent=2.0
            )[0]

        inc = timing_driven_placement(nl, arch, seed=1, effort=0.4)
        cand = candidates_timing_placement(nl, arch, seed=1, effort=0.4)
        assert est(inc) <= est(cand) * 1.001
