"""VCGRA grid architecture: Processing Elements, Virtual Switch Blocks and
Virtual Connection Blocks.

Figure 1 of the paper shows the overlay: a grid of PEs whose inputs and
outputs are connected through Virtual Switch Blocks (VSBs) and Virtual
Connection Blocks (VCBs), each with a settings register.  The evaluation uses
a 4x4 grid: 16 PEs, 9 VSBs (one per interior crossing) and 32 virtual
connection blocks, for a total of 25 32-bit settings registers (Table II).

The grid here is a feed-forward mesh (the natural topology for the streaming
filter kernels of the retina application): data enters at the top row, each
PE can read from the VSBs above it and writes to the VSB fabric below it, and
results leave at the bottom row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from .pe import ProcessingElementSpec

__all__ = ["VCGRAArchitecture", "VirtualSwitchBlock", "VirtualConnectionBlock", "GridPosition"]


GridPosition = Tuple[int, int]  #: (row, column), 0-based


@dataclass(frozen=True)
class VirtualSwitchBlock:
    """A virtual switch block at an interior crossing of the PE grid.

    A VSB at crossing (r, c) sits between PE rows ``r`` and ``r+1`` and
    between PE columns ``c`` and ``c+1``; it can route any of its upstream PE
    outputs to any of its downstream PE inputs, controlled by its settings
    register.
    """

    row: int
    col: int

    @property
    def name(self) -> str:
        return f"vsb_r{self.row}c{self.col}"


@dataclass(frozen=True)
class VirtualConnectionBlock:
    """A virtual connection block attaching one PE's ports to the VSB fabric.

    Every PE has one input-side and one output-side connection block (hence
    the 32 VCBs of the 4x4 grid in Table II).
    """

    row: int
    col: int
    side: str  # "in" or "out"

    @property
    def name(self) -> str:
        return f"vcb_{self.side}_r{self.row}c{self.col}"


@dataclass(frozen=True)
class VCGRAArchitecture:
    """A rows x cols VCGRA overlay built from identical PEs."""

    rows: int = 4
    cols: int = 4
    pe_spec: ProcessingElementSpec = field(default_factory=ProcessingElementSpec)
    settings_register_width: int = 32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("VCGRA grid must be at least 1x1")

    # -- structural counts (the quantities of Table II) --------------------------

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def num_vsbs(self) -> int:
        """Virtual switch blocks: one per interior crossing of the grid."""
        return max(0, (self.rows - 1) * (self.cols - 1))

    @property
    def num_virtual_connection_blocks(self) -> int:
        """Two virtual connection blocks (input side + output side) per PE."""
        return 2 * self.num_pes

    @property
    def num_virtual_routing_switches(self) -> int:
        """All virtual routing switches: VSBs plus VCBs (Table II, 'Inter-Network')."""
        return self.num_vsbs + self.num_virtual_connection_blocks

    @property
    def num_settings_registers(self) -> int:
        """Settings registers: one per PE and one per VSB (Table II)."""
        return self.num_pes + self.num_vsbs

    @property
    def settings_bits_total(self) -> int:
        return self.num_settings_registers * self.settings_register_width

    # -- enumeration ----------------------------------------------------------------

    def pe_positions(self) -> Iterator[GridPosition]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    def vsbs(self) -> Iterator[VirtualSwitchBlock]:
        for r in range(self.rows - 1):
            for c in range(self.cols - 1):
                yield VirtualSwitchBlock(r, c)

    def connection_blocks(self) -> Iterator[VirtualConnectionBlock]:
        for r, c in self.pe_positions():
            yield VirtualConnectionBlock(r, c, "in")
            yield VirtualConnectionBlock(r, c, "out")

    def pe_name(self, pos: GridPosition) -> str:
        return f"pe_r{pos[0]}c{pos[1]}"

    # -- inter-PE connectivity ---------------------------------------------------------

    def downstream_of(self, pos: GridPosition) -> List[GridPosition]:
        """PEs reachable from ``pos`` through the VSB fabric (next row,
        same / adjacent column)."""
        r, c = pos
        if r + 1 >= self.rows:
            return []
        return [
            (r + 1, cc)
            for cc in (c - 1, c, c + 1)
            if 0 <= cc < self.cols
        ]

    def upstream_of(self, pos: GridPosition) -> List[GridPosition]:
        """PEs whose outputs ``pos`` can select as inputs."""
        r, c = pos
        if r == 0:
            return []
        return [
            (r - 1, cc)
            for cc in (c - 1, c, c + 1)
            if 0 <= cc < self.cols
        ]

    def describe(self) -> str:
        return (
            f"{self.rows}x{self.cols} VCGRA: {self.num_pes} PEs, {self.num_vsbs} VSBs, "
            f"{self.num_virtual_connection_blocks} VCBs, "
            f"{self.num_settings_registers} x {self.settings_register_width}-bit settings registers"
        )
