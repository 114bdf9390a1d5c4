"""Synthesis front-end driver.

In the paper's flow the VHDL description of the Processing Element is
synthesized with Quartus II and then optimized with ABC before technology
mapping.  Our structural HDL builder already elaborates directly to gates,
so "synthesis" here is the packaging step: validate the elaborated netlist,
run the ABC-style optimizer and report statistics.  The result object is the
hand-off point to the technology mappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..netlist.circuit import Circuit
from ..netlist.hdl import Design
from .constprop import classify_nodes
from .optimize import OptimizeReport, optimize

__all__ = ["SynthesisResult", "synthesize"]


@dataclass
class SynthesisResult:
    """Output of the synthesis front-end."""

    circuit: Circuit
    report: OptimizeReport
    #: gate ids inside / outside parameter cones (see ``classify_nodes``)
    node_classes: Dict[str, list]

    @property
    def num_gates(self) -> int:
        return self.circuit.num_gates()

    @property
    def depth(self) -> int:
        return self.circuit.depth()


def synthesize(design, optimize_logic: bool = True) -> SynthesisResult:
    """Run the synthesis front-end on a :class:`Design` or raw :class:`Circuit`.

    Parameters
    ----------
    design:
        Either a :class:`~repro.netlist.hdl.Design` (its circuit is used) or
        a :class:`~repro.netlist.circuit.Circuit` directly.
    optimize_logic:
        Run the ABC-style optimizer (structural hashing, constant folding,
        sweeping).  Disable only for white-box tests of later stages.
    """
    circuit = design.circuit if isinstance(design, Design) else design
    circuit.validate()
    if optimize_logic:
        optimized, report = optimize(circuit)
    else:
        optimized = circuit.clone()
        report = OptimizeReport(
            nodes_before=len(circuit),
            nodes_after=len(circuit),
            gates_before=circuit.num_gates(),
            gates_after=circuit.num_gates(),
        )
    optimized.validate()
    return SynthesisResult(
        circuit=optimized,
        report=report,
        node_classes=classify_nodes(optimized),
    )
