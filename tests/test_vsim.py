"""Tests for the VCGRA functional simulator (MAC units + grid execution)."""

import numpy as np
import pytest

from repro.core.grid import VCGRAArchitecture
from repro.core.pe import PEOp, ProcessingElementSpec
from repro.core.settings import PESettings, VCGRASettings
from repro.core.toolflow import ApplicationGraph, PEOperation, run_vcgra_toolflow
from repro.flopoco.format import FPFormat
from repro.vsim.mac import MACUnit
from repro.vsim.simulator import VCGRASimulator

FMT = FPFormat(we=6, wf=14)


def make_arch(rows=4, cols=4):
    return VCGRAArchitecture(rows=rows, cols=cols, pe_spec=ProcessingElementSpec(fmt=FMT))


class TestMACUnit:
    def test_stateless_mac(self):
        s = PESettings(coefficient=FMT.encode(2.0), op=PEOp.MAC, count_limit=1, enabled=True)
        unit = MACUnit(FMT, s)
        out, done = unit.step(FMT.encode(3.0), FMT.encode(1.0))
        assert FMT.decode(out) == pytest.approx(7.0, rel=1e-3)
        assert done

    def test_mul_and_bypass(self):
        s = PESettings(coefficient=FMT.encode(-0.5), op=PEOp.MUL, enabled=True)
        unit = MACUnit(FMT, s)
        out, _ = unit.step(FMT.encode(8.0), FMT.encode(99.0))
        assert FMT.decode(out) == pytest.approx(-4.0, rel=1e-3)

        s2 = PESettings(op=PEOp.BYPASS, enabled=True)
        assert FMT.decode(MACUnit(FMT, s2).step(FMT.encode(5.5), 0)[0]) == pytest.approx(5.5)
        s3 = PESettings(op=PEOp.BYPASS_B, enabled=True)
        assert FMT.decode(MACUnit(FMT, s3).step(0, FMT.encode(-2.25))[0]) == pytest.approx(-2.25)

    def test_iterative_accumulation(self):
        s = PESettings(coefficient=FMT.encode(1.0), op=PEOp.MAC, count_limit=4, enabled=True)
        unit = MACUnit(FMT, s)
        results = []
        for v in (1.0, 2.0, 3.0, 4.0):
            out, done = unit.step(FMT.encode(v), 0)
            results.append((FMT.decode(out), done))
        assert results[-1][0] == pytest.approx(10.0, rel=1e-3)
        assert results[-1][1] is True
        assert all(not done for _, done in results[:-1])
        # counter resets after done
        out, done = unit.step(FMT.encode(5.0), 0)
        assert FMT.decode(out) == pytest.approx(5.0, rel=1e-3)
        assert not done


class TestSimulatorChains:
    def build_chain(self, coeffs):
        """One MAC chain: out = sum_i coeffs[i] * x_i (spatial dot product)."""
        arch = make_arch(rows=len(coeffs), cols=1)
        app = ApplicationGraph("chain", external_inputs=[f"x{i}" for i in range(len(coeffs))] + ["zero"])
        prev = "zero"
        for i, c in enumerate(coeffs):
            app.add_operation(PEOperation(
                name=f"mac{i}", op=PEOp.MAC, coefficient=c, count_limit=1,
                sample_input=f"x{i}", acc_input=prev))
            prev = f"mac{i}"
        app.add_output("y", prev)
        report = run_vcgra_toolflow(app, arch)
        return VCGRASimulator(arch, report.settings)

    def test_dot_product(self):
        coeffs = [0.5, -1.0, 2.0]
        sim = self.build_chain(coeffs)
        samples = {"x0": [3.0], "x1": [1.5], "x2": [0.25], "zero": [0.0]}
        trace = sim.run(samples)
        expected = 0.5 * 3.0 - 1.0 * 1.5 + 2.0 * 0.25
        assert trace.outputs["y"][0] == pytest.approx(expected, rel=1e-3)

    def test_streaming_multiple_samples(self):
        coeffs = [1.0, 1.0]
        sim = self.build_chain(coeffs)
        trace = sim.run({"x0": [1.0, 2.0, 3.0], "x1": [10.0, 20.0, 30.0], "zero": [0.0] * 3})
        assert trace.steps == 3
        assert trace.outputs["y"] == pytest.approx([11.0, 22.0, 33.0], rel=1e-3)

    def test_pe_output_history_recorded(self):
        sim = self.build_chain([2.0, 3.0])
        trace = sim.run({"x0": [1.0], "x1": [1.0], "zero": [0.0]})
        assert len(trace.pe_outputs) == 2
        for values in trace.pe_outputs.values():
            assert len(values) == 1

    def test_accuracy_close_to_float(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=4).tolist()
        xs = rng.normal(size=4).tolist()
        sim = self.build_chain(coeffs)
        trace = sim.run({f"x{i}": [xs[i]] for i in range(4)} | {"zero": [0.0]})
        expected = float(np.dot(coeffs, xs))
        assert trace.outputs["y"][0] == pytest.approx(expected, abs=1e-3)


class TestSimulatorConfiguration:
    def test_unbound_ports_read_zero(self):
        arch = make_arch(rows=1, cols=1)
        settings = VCGRASettings(arch=arch)
        pe = settings.pe((0, 0))
        pe.enabled = True
        pe.op = PEOp.MAC
        pe.coefficient = FMT.encode(3.0)
        settings.output_bindings["y"] = (0, 0)
        sim = VCGRASimulator(arch, settings)
        trace = sim.run({}, num_steps=1)
        assert trace.outputs["y"][0] == pytest.approx(0.0)

    def test_run_requires_steps_or_streams(self):
        arch = make_arch(rows=1, cols=1)
        settings = VCGRASettings(arch=arch)
        sim = VCGRASimulator(arch, settings)
        with pytest.raises(ValueError):
            sim.run({})
