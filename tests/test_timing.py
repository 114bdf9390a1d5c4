"""Tests for the timing subsystem: STA engine, criticality-driven PAR."""

import numpy as np
import pytest
from oracles import route_reference

from repro.core.pe import ProcessingElementSpec, build_pe_design
from repro.flopoco.format import FPFormat
from repro.fpga.architecture import FPGAArchitecture, auto_size
from repro.fpga.device import build_device
from repro.fpga.routing_graph import RRNodeType, rr_delay_ns
from repro.netlist.hdl import Design
from repro.par.flow import place_and_route, timing_driven_placement
from repro.par.netlist import PhysicalNetlist, from_mapped_network
from repro.par.placement import hpwl, place
from repro.par.routing import route
from repro.par.timing import report_from_analysis
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.timing import (
    analyze,
    build_timing_graph,
    scan_edge_criticality,
    structural_edge_delays,
)


def adder_network(width=4):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_conventional(opt)


def routed_design(width=6, channel_width=8, seed=2, router=route):
    net = adder_network(width)
    nl = from_mapped_network(net)
    arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=channel_width)
    device = build_device(arch)
    placement = place(nl, arch, seed=seed, effort=0.4).placement
    routing = router(nl, placement, device)
    assert routing.success
    return net, nl, arch, device, placement, routing


def chain_netlist(n_blocks=6):
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


class TestDelayModel:
    def test_rr_delay_model_per_type(self):
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        d = rr_delay_ns(arch)
        assert d[RRNodeType.CHANX] == d[RRNodeType.CHANY] == arch.wire_hop_delay_ns
        assert d[RRNodeType.OPIN] == d[RRNodeType.IPIN] == arch.pin_delay_ns
        assert d[RRNodeType.SOURCE] == d[RRNodeType.SINK] == 0.0

    def test_graph_exports_flat_delay_array(self):
        arch = FPGAArchitecture(width=3, height=3, channel_width=4)
        rr = build_device(arch).rr_graph
        assert rr.node_delay_ns.shape == (rr.num_nodes,)
        for t, d in rr_delay_ns(arch).items():
            assert np.all(rr.node_delay_ns[rr.node_type == t] == d), t

    def test_with_channel_width_keeps_delay_fields(self):
        arch = FPGAArchitecture(
            width=3, height=3, channel_width=4, switch_delay_ns=0.07, pin_delay_ns=0.02
        )
        wider = arch.with_channel_width(9)
        assert wider.channel_width == 9
        assert wider.switch_delay_ns == 0.07
        assert wider.pin_delay_ns == 0.02


class TestTimingGraph:
    def test_chain_levelization(self):
        nl = chain_netlist(5)
        graph = build_timing_graph(nl, lut_delay_ns=0.4)
        # pi(0) -> l0..l4 -> po: levels strictly increase along the chain.
        assert graph.node_level[0] == 0
        for i in range(5):
            assert graph.node_level[1 + i] == i + 1
        assert graph.num_edges == len(nl.nets)

    def test_cycle_detection(self):
        nl = PhysicalNetlist("loop")
        a = nl.add_block("a", "clb")
        b = nl.add_block("b", "clb")
        nl.add_net("ab", a, [b])
        nl.add_net("ba", b, [a])
        with pytest.raises(ValueError, match="cycle"):
            build_timing_graph(nl, lut_delay_ns=0.4)


class TestSTAInvariants:
    def test_slack_and_criticality_invariants(self):
        net, nl, arch, device, placement, routing = routed_design()
        analysis = analyze(nl, routing, device, placement=placement)
        crit = analysis.edge_criticality
        assert crit.min() >= 0.0 and crit.max() <= 1.0
        # Required times are anchored at the critical-path delay, so no
        # connection can have negative slack, and the worst endpoint slack
        # is exactly zero (the critical path itself).
        assert analysis.edge_slack.min() >= -1e-9
        assert analysis.summary()["worst_slack_ns"] == pytest.approx(0.0, abs=1e-9)
        assert crit.max() == pytest.approx(1.0)
        assert analysis.critical_path_ns > 0

    def test_breakdown_sums_to_critical_path(self):
        net, nl, arch, device, placement, routing = routed_design()
        analysis = analyze(nl, routing, device, placement=placement)
        assert analysis.critical_path
        assert {e.kind for e in analysis.critical_path} <= {
            "lut", "wire", "switch", "pin"
        }
        total = sum(e.delay_ns for e in analysis.critical_path)
        assert total == pytest.approx(analysis.critical_path_ns, rel=1e-9)
        luts = sum(e.count for e in analysis.critical_path if e.kind == "lut")
        assert luts == analysis.logic_depth

    def test_fast_breakdown_sums_to_critical_path(self):
        # Trees grown by the unpruned reference router (the trajectory the
        # retired ``fast`` kernel reproduced) are timed from the same forest
        # format as the router's, so the breakdown reconciles on either.
        net, nl, arch, device, placement, routing = routed_design(router=route_reference)
        analysis = analyze(nl, routing, device, placement=placement)
        assert analysis.critical_path
        total = sum(e.delay_ns for e in analysis.critical_path)
        assert total == pytest.approx(analysis.critical_path_ns, rel=1e-9)

    def test_routed_analysis_without_placement_raises(self):
        # Routed delays need the block -> SINK mapping only a placement
        # provides; there is no approximate fallback.
        net, nl, arch, device, placement, routing = routed_design()
        with pytest.raises(ValueError, match="placement"):
            analyze(nl, routing, device)

    def test_connection_criticality_keys(self):
        net, nl, arch, device, placement, routing = routed_design()
        analysis = analyze(nl, routing, device, placement=placement)
        g = analysis.graph
        conn = set(zip(g.edge_net.tolist(), g.edge_dst.tolist()))
        expected = {(n.id, s) for n in nl.nets for s in n.sinks}
        assert conn == expected
        crit = analysis.edge_criticality
        assert crit.shape == (g.num_edges,)
        assert ((crit >= 0.0) & (crit <= 1.0)).all()


class TestLegacyParity:
    def test_engine_reproduces_logic_depth_on_routed_pe(self):
        # The acceptance bar: on a routed (conventional) PE design the
        # engine's levelized depth equals the mapped network's LUT depth,
        # and the legacy wrapper reports engine numbers.
        spec = ProcessingElementSpec(fmt=FPFormat(3, 4), num_inputs=2, counter_width=2)
        circuit, _ = optimize(build_pe_design(spec).circuit)
        network = map_conventional(circuit)
        result = place_and_route(network, channel_width=8, placement_effort=0.25, seed=0)
        assert result.routing.success
        assert result.sta.logic_depth == network.depth()
        assert result.timing.logic_depth == network.depth()
        assert result.timing.critical_path_ns == pytest.approx(
            result.sta.critical_path_ns
        )

    def test_legacy_wrapper_matches_engine(self):
        net, nl, arch, device, placement, routing = routed_design()
        analysis = analyze(nl, routing, device, placement=placement)
        report = report_from_analysis(analysis, net, routing, device)
        assert report.logic_depth == net.depth() == analysis.logic_depth
        assert report.critical_path_ns == pytest.approx(analysis.critical_path_ns)
        is_wire = device.rr_graph.wire_mask()
        total_wires = sum(int(is_wire[r.nodes].sum()) for r in routing.routes.values())
        assert report.mean_net_wirelength == pytest.approx(
            total_wires / len(routing.routes)
        )


class TestTimingObjective:
    def test_timing_objective_reduces_delay_at_equal_width(self):
        # The headline quality claim at unit scale: the timing objective
        # must beat the wirelength objective's routed critical path at the
        # same channel width, while staying inside the 1.02x wirelength
        # band of the reference route on its own placement.
        net = adder_network(6)
        wl = place_and_route(net, channel_width=8, placement_effort=0.4, seed=1)
        timing = place_and_route(
            net, channel_width=8, placement_effort=0.4, seed=1, objective="timing"
        )
        assert wl.routing.success and timing.routing.success
        assert timing.objective == "timing"
        ratio = timing.timing.critical_path_ns / wl.timing.critical_path_ns
        assert ratio <= 0.99, f"timing objective did not improve delay ({ratio:.3f}x)"
        ref = route_reference(timing.netlist, timing.placement.placement, timing.device)
        assert timing.wirelength <= 1.02 * ref.wirelength

    def test_timing_objective_router_only_never_fails(self):
        # Same placement, both objectives: the timing-driven router must
        # still converge and stay within the wirelength band.
        net, nl, arch, device, placement, routing = routed_design()
        timed = route(nl, placement, device, objective="timing")
        assert timed.success
        assert timed.wirelength <= 1.05 * routing.wirelength
        a_wl = analyze(nl, routing, device, placement=placement)
        a_t = analyze(nl, timed, device, placement=placement)
        assert a_t.critical_path_ns <= 1.05 * a_wl.critical_path_ns

    def test_timing_objective_rejected_for_scalar_baselines(self):
        nl = chain_netlist(4)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        device = build_device(arch)
        placement = place(nl, arch, seed=0, effort=0.3).placement
        # The reference router prices congestion only: no objective at all.
        with pytest.raises(TypeError, match="objective"):
            route_reference(nl, placement, device, objective="timing")
        with pytest.raises(ValueError, match="objective"):
            route(nl, placement, device, objective="area")


class TestTimingPlacement:
    def test_net_weights_require_batched_kernel(self):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        # The batched annealer is the only one: no kernel can be selected.
        with pytest.raises(TypeError, match="kernel"):
            place(nl, arch, kernel="reference", net_weights=[1.0] * len(nl.nets))

    def test_weighted_placement_reports_unweighted_hpwl(self):
        nl = chain_netlist(10)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        weights = [1.0 + 2.0 * (i % 3) for i in range(len(nl.nets))]
        result = place(nl, arch, seed=1, effort=0.5, net_weights=weights)
        assert isinstance(result.cost, int)
        assert result.cost == hpwl(nl, result.placement)
        assert result.objective_cost is not None
        assert result.objective_cost >= result.cost

    def test_weight_length_mismatch_rejected(self):
        nl = chain_netlist(6)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        with pytest.raises(ValueError, match="entries"):
            place(nl, arch, net_weights=[1.0])

    def test_structural_criticality_marks_deep_chain(self):
        nl = chain_netlist(8)
        arch = FPGAArchitecture(width=4, height=4, channel_width=4)
        graph = build_timing_graph(nl, arch.lut_delay_ns)
        _dmax, crit = scan_edge_criticality(graph, structural_edge_delays(graph, arch))
        assert set(graph.edge_net.tolist()) == {n.id for n in nl.nets}
        # Every net of a pure chain lies on the single (critical) path.
        assert min(crit) == pytest.approx(1.0)

    def test_timing_driven_placement_places_all_blocks(self):
        net = adder_network(5)
        nl = from_mapped_network(net)
        arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=8)
        result = timing_driven_placement(nl, arch, seed=0, effort=0.3)
        assert set(result.placement.block_site) == {b.id for b in nl.blocks}
        assert result.cost == hpwl(nl, result.placement)


class TestFlowPlumbing:
    def test_summary_carries_timing_axis(self):
        net = adder_network(4)
        result = place_and_route(net, channel_width=8, placement_effort=0.4)
        summary = result.summary()
        assert summary["objective"] == "wirelength"
        assert summary["worst_slack_ns"] == pytest.approx(0.0, abs=1e-9)
        assert result.sta is not None
        assert result.sta.critical_path_ns == summary["critical_path_ns"]
