"""High-level VCGRA tool flow (the right-hand side of Figure 2).

The application designer describes the computation as a dataflow graph of
PE-level operations (MAC, MUL, BYPASS ...).  Because the basic programmable
element is a whole PE rather than a LUT, the flow -- synthesis, technology
mapping onto PEs, placement onto the virtual grid and routing through the
virtual switch blocks -- is orders of magnitude faster than the gate-level
FPGA flow; it produces the VCGRA *settings values* that configure the overlay.

The flow here mirrors the paper's description:

1. **Synthesis**: parse/validate the dataflow description, levelize it.
2. **Technology mapping**: check every operation fits a PE's capabilities and
   derive its settings fields (coefficient, function select, count limit).
3. **Placement**: assign operations to grid PEs level by level, minimizing the
   column offset between producers and consumers.
4. **Routing**: allocate VSB routes for every producer/consumer edge and bind
   external inputs/outputs to entry/exit PEs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..flopoco.format import FPFormat
from .grid import GridPosition, VCGRAArchitecture
from .pe import PEOp
from .settings import VCGRASettings, VSBSettings

__all__ = [
    "PEOperation",
    "ApplicationGraph",
    "ToolflowReport",
    "VCGRAToolflowError",
    "run_vcgra_toolflow",
]


class VCGRAToolflowError(RuntimeError):
    """Raised when an application cannot be mapped onto the VCGRA grid."""


@dataclass
class PEOperation:
    """One node of the application dataflow graph (maps onto one PE).

    ``sample_input`` / ``acc_input`` name either an external input stream or
    another operation; ``acc_input`` may be ``None`` for MUL/BYPASS
    operations.
    """

    name: str
    op: int = PEOp.MAC
    coefficient: float = 1.0
    count_limit: int = 1
    sample_input: Optional[str] = None
    acc_input: Optional[str] = None

    def input_names(self) -> List[str]:
        return [n for n in (self.sample_input, self.acc_input) if n is not None]


@dataclass
class ApplicationGraph:
    """A dataflow application to implement on the VCGRA."""

    name: str
    external_inputs: List[str] = field(default_factory=list)
    operations: Dict[str, PEOperation] = field(default_factory=dict)
    outputs: Dict[str, str] = field(default_factory=dict)  #: output name -> operation name

    def add_operation(self, operation: PEOperation) -> PEOperation:
        if operation.name in self.operations or operation.name in self.external_inputs:
            raise ValueError(f"duplicate node name {operation.name!r}")
        self.operations[operation.name] = operation
        return operation

    def add_output(self, name: str, source_op: str) -> None:
        self.outputs[name] = source_op

    # -- analysis ------------------------------------------------------------------

    def levelize(self) -> Dict[str, int]:
        """ASAP level of every operation (external inputs are level -1)."""
        levels: Dict[str, int] = {}

        def level_of(name: str, stack: Tuple[str, ...] = ()) -> int:
            if name in self.external_inputs:
                return -1
            if name in levels:
                return levels[name]
            if name in stack:
                raise VCGRAToolflowError(f"combinational cycle through {name!r}")
            op = self.operations.get(name)
            if op is None:
                raise VCGRAToolflowError(f"operation {name!r} references unknown node")
            lvl = 1 + max(
                (level_of(i, stack + (name,)) for i in op.input_names()), default=-1
            )
            levels[name] = lvl
            return lvl

        for name in self.operations:
            level_of(name)
        return levels

    def validate(self) -> Dict[str, int]:
        """Check the graph and return its levelization (computed once)."""
        for op in self.operations.values():
            for inp in op.input_names():
                if inp not in self.operations and inp not in self.external_inputs:
                    raise VCGRAToolflowError(
                        f"operation {op.name!r} reads unknown input {inp!r}"
                    )
            if op.op not in PEOp.ALL:
                raise VCGRAToolflowError(f"operation {op.name!r} has invalid op {op.op}")
        for out, src in self.outputs.items():
            if src not in self.operations:
                raise VCGRAToolflowError(f"output {out!r} reads unknown operation {src!r}")
        return self.levelize()


@dataclass
class ToolflowReport:
    """Result of the high-level flow: settings plus compile statistics."""

    settings: VCGRASettings
    placement: Dict[str, GridPosition]
    levels: Dict[str, int]
    synthesis_seconds: float
    placement_seconds: float
    routing_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.synthesis_seconds + self.placement_seconds + self.routing_seconds

    @property
    def pes_used(self) -> int:
        return len(self.placement)


def _place_levels(
    app: ApplicationGraph,
    arch: VCGRAArchitecture,
    levels: Dict[str, int],
) -> Dict[str, GridPosition]:
    """Greedy level-by-level placement of operations onto grid rows."""
    if not app.operations:
        return {}
    max_level = max(levels.values())
    if max_level + 1 > arch.rows:
        raise VCGRAToolflowError(
            f"application needs {max_level + 1} pipeline levels but the grid has "
            f"{arch.rows} rows"
        )
    placement: Dict[str, GridPosition] = {}
    for level in range(max_level + 1):
        ops = [name for name, lvl in levels.items() if lvl == level]
        if len(ops) > arch.cols:
            raise VCGRAToolflowError(
                f"level {level} has {len(ops)} operations but the grid has only "
                f"{arch.cols} columns"
            )

        def preferred_column(name: str) -> float:
            op = app.operations[name]
            cols = [
                placement[i][1]
                for i in op.input_names()
                if i in placement
            ]
            return sum(cols) / len(cols) if cols else arch.cols / 2.0

        ops.sort(key=preferred_column)
        used_cols: List[int] = []
        for name in ops:
            target = preferred_column(name)
            candidates = sorted(
                (c for c in range(arch.cols) if c not in used_cols),
                key=lambda c: abs(c - target),
            )
            col = candidates[0]
            used_cols.append(col)
            placement[name] = (level, col)
    return placement


def _route_edges(
    app: ApplicationGraph,
    arch: VCGRAArchitecture,
    placement: Dict[str, GridPosition],
    settings: VCGRASettings,
) -> None:
    """Allocate VSB routes and input/output bindings for every dataflow edge."""
    for name, op in app.operations.items():
        dst = placement[name]
        for port, src_name in enumerate((op.sample_input, op.acc_input)):
            if src_name is None:
                continue
            if src_name in app.external_inputs:
                # External streams may feed several PEs (broadcast through the
                # overlay's dedicated input column): record every binding.
                settings.input_bindings.setdefault(src_name, []).append((dst, port))
                continue
            src = placement[src_name]
            if src not in arch.upstream_of(dst):
                raise VCGRAToolflowError(
                    f"edge {src_name!r} -> {name!r} spans non-adjacent PEs "
                    f"{src} -> {dst}; the VSB fabric cannot route it"
                )
            # The VSB involved sits between the two rows at the shared column edge.
            vsb_col = min(src[1], dst[1], arch.cols - 2) if arch.cols > 1 else 0
            vsb_key = (src[0], max(0, vsb_col))
            vsb = settings.vsb_settings.setdefault(vsb_key, VSBSettings())
            vsb.routes[(dst, port)] = src

    for out_name, src_name in app.outputs.items():
        settings.output_bindings[out_name] = placement[src_name]


def run_vcgra_toolflow(
    app: ApplicationGraph,
    arch: VCGRAArchitecture,
) -> ToolflowReport:
    """Run synthesis, mapping, placement and routing; return settings + timings."""
    fmt: FPFormat = arch.pe_spec.fmt

    t0 = time.perf_counter()
    levels = app.validate()
    t_synth = time.perf_counter() - t0

    t0 = time.perf_counter()
    placement = _place_levels(app, arch, levels)
    t_place = time.perf_counter() - t0

    t0 = time.perf_counter()
    settings = VCGRASettings(arch=arch)
    for name, op in app.operations.items():
        pos = placement[name]
        pe = settings.pe(pos)
        pe.enabled = True
        pe.op = op.op
        pe.coefficient = fmt.encode(float(op.coefficient))
        pe.count_limit = op.count_limit
        # Operand selects: port 0 carries the sample, port 1 the accumulator.
        pe.sel_a = 0
        pe.sel_b = 1
    _route_edges(app, arch, placement, settings)
    t_route = time.perf_counter() - t0

    return ToolflowReport(
        settings=settings,
        placement=placement,
        levels=levels,
        synthesis_seconds=t_synth,
        placement_seconds=t_place,
        routing_seconds=t_route,
    )
