"""Gate-level netlist substrate: Boolean functions, circuits, HDL builder, simulation."""

from .boolean import TruthTable, var_tt, cofactor, restrict, wire_source
from .circuit import Circuit, CircuitStats, Op
from .engine import CompiledCircuit, compile_circuit
from .hdl import Bus, Design
from .library import GATE_EVAL, eval_gate
from .simulate import simulate_patterns, simulate_words, random_patterns

__all__ = [
    "TruthTable",
    "var_tt",
    "cofactor",
    "restrict",
    "wire_source",
    "Circuit",
    "CircuitStats",
    "Op",
    "Bus",
    "Design",
    "GATE_EVAL",
    "eval_gate",
    "CompiledCircuit",
    "compile_circuit",
    "simulate_patterns",
    "simulate_words",
    "random_patterns",
]
