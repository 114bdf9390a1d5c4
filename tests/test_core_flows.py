"""Tests for the evaluation flows, specialization (TC/PPC/SCG), reconfiguration
cost model and the high-level VCGRA tool flow."""

import random

import pytest

from repro.core.flows import compare_pe_flows, run_pe_flow
from repro.core.grid import VCGRAArchitecture
from repro.core.pe import PEOp, ProcessingElementSpec, build_pe_design
from repro.core.reconfiguration import HWICAP, MICAP, ReconfigurationCostModel
from repro.core.specialization import SpecializedConfigurationGenerator
from repro.core.toolflow import (
    ApplicationGraph,
    PEOperation,
    VCGRAToolflowError,
    run_vcgra_toolflow,
)
from repro.flopoco.arithmetic import fp_mac
from repro.flopoco.format import FPFormat
from repro.fpga.bitstream import Bitstream
from repro.par.flow import place_and_route
from repro.synth.optimize import optimize
from repro.techmap import map_parameterized
from repro.techmap.mapping import NodeKind

TINY = FPFormat(we=4, wf=4)
SMALL = FPFormat(we=4, wf=6)


@pytest.fixture(scope="module")
def tiny_pe_comparison():
    """Both flows on a tiny PE, including PaR (kept small so tests stay fast)."""
    spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
    return compare_pe_flows(
        spec=spec,
        do_par=True,
        channel_width=10,
        placement_effort=0.3,
        router_iterations=12,
        seed=1,
    )


class TestPEFlows:
    def test_mapping_only_flow(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        res = run_pe_flow(circuit, parameterized=True, do_par=False)
        assert res.par is None
        assert res.network.num_tcons() > 0
        assert "technology_mapping" in res.elapsed_seconds

    def test_comparison_shape_matches_paper(self, tiny_pe_comparison):
        cmp = tiny_pe_comparison
        conv = cmp.conventional.network
        par = cmp.parameterized.network
        # Headline result of Table I: the fully parameterized PE uses fewer
        # LUTs, has TCONs, and its depth does not increase.
        assert par.num_luts() < conv.num_luts()
        assert par.num_tcons() > 0
        assert conv.num_tcons() == 0
        assert par.depth() <= conv.depth()
        assert cmp.lut_reduction() > 0.05
        assert cmp.intra_network_lut_overhead() > 0

    def test_comparison_wirelength(self, tiny_pe_comparison):
        cmp = tiny_pe_comparison
        wl = cmp.wirelength_reduction()
        assert wl is not None
        # fewer blocks and nets must not increase wirelength
        assert wl > -0.05

    def test_table_rows_have_expected_keys(self, tiny_pe_comparison):
        table = tiny_pe_comparison.table()
        for row in table.values():
            for key in ("luts", "tluts", "tcons", "logic_depth", "wirelength"):
                assert key in row

    def test_functional_equivalence_of_both_flows(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        conv = run_pe_flow(circuit, parameterized=False, do_par=False).network
        par = run_pe_flow(circuit, parameterized=True, do_par=False).network
        fmt = spec.fmt
        sample, acc, coeff = fmt.encode(1.5), fmt.encode(-2.0), fmt.encode(0.75)
        params = {"coeff": coeff, "sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 3}
        stim = {"in0": [sample], "in1": [acc], "count": [3]}
        out_c = conv.evaluate_words(stim, params)
        out_p = par.evaluate_words(stim, params)
        assert out_c == out_p
        expected = fp_mac(fmt, acc, sample, coeff)
        assert out_p["out"][0] == expected
        assert out_p["done"][0] == 1


def _reference_node_sites(par):
    """Placed tile of every mapped node that occupies a logic site."""
    sites = {}
    for block in par.netlist.blocks:
        if block.mapped_node is not None and block.needs_logic_site:
            site = par.placement.placement.block_site[block.id]
            sites[block.mapped_node] = (site.x, site.y)
    return sites


def _reference_tcon_site(network, node_sites, tcon):
    """Brute force: scan every node for the TCON's first placed LUT/TLUT
    consumer, else recurse into its TCON consumers in node-id order."""
    for nid, consumer in enumerate(network.nodes):
        if (consumer.kind in (NodeKind.LUT, NodeKind.TLUT)
                and tcon in consumer.inputs and nid in node_sites):
            return node_sites[nid]
    for nid, consumer in enumerate(network.nodes):
        if consumer.kind == NodeKind.TCON and tcon in consumer.inputs:
            site = _reference_tcon_site(network, node_sites, nid)
            if site is not None:
                return site
    return None


def _reference_tcon_sites(network, node_sites):
    """Tile of every TCON that has one, by :func:`_reference_tcon_site`."""
    sites = {}
    for tcon in network.tcon_node_ids():
        site = _reference_tcon_site(network, node_sites, tcon)
        if site is not None:
            sites[tcon] = site
    return sites


def _downstream(network, tcon):
    """Kinds reachable from a TCON through TCON chains: ``"lut"``, ``"output"``."""
    reached = set()
    if tcon in network.outputs.values():
        reached.add("output")
    for nid, consumer in enumerate(network.nodes):
        if tcon not in consumer.inputs:
            continue
        if consumer.kind in (NodeKind.LUT, NodeKind.TLUT):
            reached.add("lut")
        elif consumer.kind == NodeKind.TCON:
            reached |= _downstream(network, nid)
    return reached


def _reference_render(network, par, specialized, previous):
    """The SCG's rendering, recomputed from scratch: bitstream + touched frames."""
    layout = par.device.config_layout
    node_sites = _reference_node_sites(par)
    bitstream = Bitstream(layout)
    for nid, node in enumerate(network.nodes):
        if node.kind == NodeKind.TLUT and nid in node_sites:
            x, y = node_sites[nid]
            bitstream.set_lut_config(x, y, specialized.lut_configs[nid].bits)
    slots = {}
    for tcon, site in sorted(_reference_tcon_sites(network, node_sites).items()):
        kind, var = specialized.tcon_routes[tcon]
        sel = var + 1 if kind == "var" else 0
        slot = slots.get(site, 0)
        slots[site] = slot + 1
        shift = min(2 * slot, max(0, layout.routing_bits - 4))
        value = bitstream.routing_configs.get(site, 0) | (sel << shift)
        bitstream.set_routing_config(site[0], site[1], value)
    if previous is None:
        frames = layout.frames_for_tiles(bitstream.configured_tiles())
    else:
        frames = bitstream.diff_frames(previous)
    return bitstream, frames


class TestSpecializationGenerator:
    @pytest.fixture(scope="class")
    def generator(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=2, counter_width=4)
        circuit = build_pe_design(spec).circuit
        opt, _ = optimize(circuit)
        network = map_parameterized(opt)
        par = place_and_route(network, channel_width=10, placement_effort=0.3,
                              router_iterations=10, seed=0)
        return spec, SpecializedConfigurationGenerator(network, par)

    def test_summary_counts(self, generator):
        _, scg = generator
        s = scg.summary()
        assert s["tluts"] == scg.network.num_tluts()
        assert s["tcons"] == scg.network.num_tcons()
        assert s["boolean_functions"] > 0
        assert s["ppc_bits"] > 0

    def test_specialization_produces_bitstream_and_frames(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        out = scg.specialize({"coeff": fmt.encode(0.5), "sel_a": 0, "sel_b": 1,
                              "op": PEOp.MAC, "count_limit": 2})
        assert out.bitstream is not None
        assert out.num_frames > 0
        assert out.evaluation_seconds >= 0

    def test_coefficient_change_touches_bounded_frame_set(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        base = {"sel_a": 0, "sel_b": 1, "op": PEOp.MAC, "count_limit": 2}
        scg.specialize({"coeff": fmt.encode(0.5), **base})
        changed = scg.specialize({"coeff": fmt.encode(-1.75), **base})
        # a coefficient change must rewrite something, but only frames holding
        # tunable elements -- never more than the full tunable footprint
        full_footprint = scg._layout.frames_for_tiles(
            changed.bitstream.configured_tiles()
        )
        assert 1 <= changed.num_frames <= len(full_footprint)

    def test_identical_parameters_touch_no_frames(self, generator):
        spec, scg = generator
        fmt = spec.fmt
        params = {"coeff": fmt.encode(1.5), "sel_a": 0, "sel_b": 1,
                  "op": PEOp.MAC, "count_limit": 1}
        scg.specialize(params)
        again = scg.specialize(params)
        assert again.num_frames == 0

    def test_fixture_shares_a_tile_between_tcons(self, generator):
        _, scg = generator
        sites = _reference_tcon_sites(scg.network, _reference_node_sites(scg.par))
        per_tile = {}
        for site in sites.values():
            per_tile[site] = per_tile.get(site, 0) + 1
        assert max(per_tile.values()) >= 2

    def test_matches_reference_over_seeded_settings(self, generator):
        _assert_matches_reference(*generator)


class TestSCGTconChains:
    """With three PE inputs, the input selects map to chains of TCONs."""

    @pytest.fixture(scope="class")
    def generator(self):
        spec = ProcessingElementSpec(fmt=TINY, num_inputs=3, counter_width=4)
        opt, _ = optimize(build_pe_design(spec).circuit)
        network = map_parameterized(opt)
        par = place_and_route(network, channel_width=10, placement_effort=0.3,
                              router_iterations=10, seed=0)
        return spec, SpecializedConfigurationGenerator(network, par)

    def test_fixture_has_tcons_feeding_only_tcons(self, generator):
        _, scg = generator
        network = scg.network
        chained = [
            t for t in network.tcon_node_ids()
            if "lut" in _downstream(network, t) and not any(
                n.kind in (NodeKind.LUT, NodeKind.TLUT) and t in n.inputs
                for n in network.nodes
            )
        ]
        assert chained

    def test_every_tcon_with_a_lut_downstream_is_rendered(self, generator):
        _, scg = generator
        network = scg.network
        planned = {nid for nid, _site, _shift in scg._tcon_plan}
        downstream = {t: _downstream(network, t) for t in network.tcon_node_ids()}
        assert planned == {t for t, kinds in downstream.items() if "lut" in kinds}
        unrendered = [t for t, kinds in downstream.items() if "lut" not in kinds]
        assert all(downstream[t] == {"output"} for t in unrendered)
        assert scg.summary()["unrendered_tcons"] == len(unrendered)

    def test_matches_reference_over_seeded_settings(self, generator):
        _assert_matches_reference(*generator)


def _assert_matches_reference(spec, shared):
    """A fresh SCG renders seeded settings exactly as the reference does."""
    scg = SpecializedConfigurationGenerator(shared.network, shared.par)
    rng = random.Random(1234)
    settings = [
        {
            "coeff": rng.randrange(1 << spec.fmt.width),
            "op": rng.choice(PEOp.ALL),
            "sel_a": rng.randrange(1 << spec.sel_width),
            "sel_b": rng.randrange(1 << spec.sel_width),
            "count_limit": rng.randrange(1 << spec.counter_width),
        }
        for _ in range(10)
    ]
    # Repeat one setting so a zero-frame diff is covered too.
    settings.append(dict(settings[-1]))
    previous = None
    for params in settings:
        out = scg.specialize(params)
        ref, frames = _reference_render(scg.network, scg.par, out.specialized, previous)
        assert out.bitstream.frame_image() == ref.frame_image()
        assert out.frames_touched == frames
        previous = ref
    assert out.num_frames == 0


class TestReconfigurationModel:
    def test_paper_estimate_reproduced(self):
        model = ReconfigurationCostModel(HWICAP)
        # Paper: 526 TLUTs + 568 TCONs -> approximately 251 ms per PE.
        t = model.estimate_time_ms(526, 568)
        assert 200 <= t <= 300

    def test_micap_is_faster(self):
        slow = ReconfigurationCostModel(HWICAP).estimate_time_ms(526, 568)
        fast = ReconfigurationCostModel(MICAP).estimate_time_ms(526, 568)
        assert fast < slow

    def test_time_scales_with_elements(self):
        model = ReconfigurationCostModel()
        assert model.estimate_time_ms(100, 100) < model.estimate_time_ms(500, 500)

    def test_frame_based_time(self):
        model = ReconfigurationCostModel(HWICAP)
        assert model.time_from_frames_ms(0) == 0
        assert model.time_from_frames_ms(100) == pytest.approx(
            100 * HWICAP.frame_rmw_us / 1000.0
        )

    def test_amortization_example(self):
        model = ReconfigurationCostModel(HWICAP)
        t = model.estimate_time_ms(526, 568)
        amortized = model.amortized_overhead(t, items_per_configuration=1000,
                                             time_per_item_ms=5.0)
        assert amortized["per_item_overhead_ms"] == pytest.approx(t / 1000)
        assert 0 < amortized["overhead_fraction"] < 1

    def test_amortization_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ReconfigurationCostModel().amortized_overhead(10.0, 0, 1.0)


def simple_filter_app(taps=3):
    """A small MAC chain: out = sum_i coeff_i * x  (systolic accumulation)."""
    app = ApplicationGraph("fir", external_inputs=["x", "zero"])
    prev = "zero"
    for i in range(taps):
        app.add_operation(
            PEOperation(
                name=f"mac{i}",
                op=PEOp.MAC,
                coefficient=0.5 + i,
                count_limit=1,
                sample_input="x",
                acc_input=prev,
            )
        )
        prev = f"mac{i}"
    app.add_output("y", prev)
    return app


class TestVCGRAToolflow:
    def test_small_filter_maps_onto_grid(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        report = run_vcgra_toolflow(simple_filter_app(4), arch)
        assert report.pes_used == 4
        assert report.settings.num_enabled() == 4
        assert report.total_seconds < 1.0
        # chained MACs must sit in consecutive rows
        rows = [report.placement[f"mac{i}"][0] for i in range(4)]
        assert rows == sorted(rows)

    def test_settings_hold_encoded_coefficients(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        report = run_vcgra_toolflow(simple_filter_app(2), arch)
        pos = report.placement["mac0"]
        settings = report.settings.pe_settings[pos]
        assert settings.coefficient == SMALL.encode(0.5)
        assert settings.op == PEOp.MAC

    def test_broadcast_input_binds_every_consumer(self):
        # Regression: one external stream feeding multiple PEs used to keep
        # only the last binding, silently starving the other consumers.
        arch = VCGRAArchitecture(rows=2, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        app = ApplicationGraph("broadcast", external_inputs=["x"])
        for i in range(3):
            app.add_operation(PEOperation(name=f"m{i}", op=PEOp.MUL,
                                          coefficient=float(i + 1),
                                          sample_input="x"))
        app.add_output("y0", "m0")
        app.add_output("y1", "m1")
        app.add_output("y2", "m2")
        report = run_vcgra_toolflow(app, arch)
        bindings = report.settings.input_bindings["x"]
        assert len(bindings) == 3
        assert {report.placement[f"m{i}"] for i in range(3)} == {
            pos for pos, _port in bindings
        }
        # The simulator must drive all three consumers from the one stream.
        from repro.vsim.simulator import VCGRASimulator

        sim = VCGRASimulator(arch, report.settings)
        trace = sim.run({"x": [2.0]})
        assert trace.outputs["y0"][0] == pytest.approx(2.0, rel=1e-3)
        assert trace.outputs["y1"][0] == pytest.approx(4.0, rel=1e-3)
        assert trace.outputs["y2"][0] == pytest.approx(6.0, rel=1e-3)

    def test_too_deep_application_rejected(self):
        arch = VCGRAArchitecture(rows=2, cols=2,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        with pytest.raises(VCGRAToolflowError):
            run_vcgra_toolflow(simple_filter_app(5), arch)

    def test_too_wide_level_rejected(self):
        arch = VCGRAArchitecture(rows=2, cols=2,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        app = ApplicationGraph("wide", external_inputs=["x"])
        for i in range(3):
            app.add_operation(PEOperation(name=f"m{i}", op=PEOp.MUL,
                                          coefficient=1.0, sample_input="x"))
        app.add_output("y", "m0")
        with pytest.raises(VCGRAToolflowError):
            run_vcgra_toolflow(app, arch)

    def test_unknown_input_rejected(self):
        app = ApplicationGraph("bad", external_inputs=["x"])
        app.add_operation(PEOperation(name="m", op=PEOp.MAC,
                                      sample_input="x", acc_input="ghost"))
        app.add_output("y", "m")
        with pytest.raises(VCGRAToolflowError):
            app.validate()

    def test_cycle_rejected(self):
        app = ApplicationGraph("loop", external_inputs=["x"])
        app.add_operation(PEOperation(name="a", sample_input="x", acc_input="b"))
        app.add_operation(PEOperation(name="b", sample_input="a"))
        app.add_output("y", "b")
        with pytest.raises(VCGRAToolflowError):
            app.validate()

    def test_duplicate_names_rejected(self):
        app = ApplicationGraph("dup", external_inputs=["x"])
        app.add_operation(PEOperation(name="a", sample_input="x"))
        with pytest.raises(ValueError):
            app.add_operation(PEOperation(name="a", sample_input="x"))

    def test_register_image_diff_between_applications(self):
        arch = VCGRAArchitecture(rows=4, cols=4,
                                 pe_spec=ProcessingElementSpec(fmt=SMALL))
        r1 = run_vcgra_toolflow(simple_filter_app(3), arch)
        app2 = simple_filter_app(3)
        app2.operations["mac1"].coefficient = 9.0
        r2 = run_vcgra_toolflow(app2, arch)
        diff = r1.settings.diff(r2.settings)
        assert len(diff) == 1
