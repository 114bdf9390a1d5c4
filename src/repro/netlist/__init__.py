"""Gate-level netlist substrate: Boolean functions, circuits, HDL builder, simulation."""

from .boolean import (
    TruthTable,
    const_tt,
    var_tt,
    cofactor,
    restrict,
    is_wire_function,
    wire_source,
)
from .circuit import Circuit, CircuitStats, Op
from .engine import CompiledCircuit, compile_circuit
from .hdl import Bus, Design
from .library import GATE_EVAL, GATE_COST, eval_gate, gate_truth_table
from .simulate import (
    simulate_patterns,
    simulate_single,
    simulate_words,
    random_patterns,
    exhaustive_patterns,
)

__all__ = [
    "TruthTable",
    "const_tt",
    "var_tt",
    "cofactor",
    "restrict",
    "is_wire_function",
    "wire_source",
    "Circuit",
    "CircuitStats",
    "Op",
    "Bus",
    "Design",
    "GATE_EVAL",
    "GATE_COST",
    "eval_gate",
    "gate_truth_table",
    "CompiledCircuit",
    "compile_circuit",
    "simulate_patterns",
    "simulate_single",
    "simulate_words",
    "random_patterns",
    "exhaustive_patterns",
]
