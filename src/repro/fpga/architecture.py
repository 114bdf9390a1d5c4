"""Island-style FPGA architecture model.

The paper performs place and route with the TPaR CAD tool on the "4LUT
sanitized" FPGA architecture that ships with VPR: an island-style array of
logic blocks, each containing a single 4-input LUT (one BLE per cluster),
surrounded by IO pads, with unit-length routing wires, subset (disjoint)
switch blocks and fully populated connection blocks.  This module describes
that architecture parametrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple

__all__ = ["FPGAArchitecture", "Site", "auto_size"]


@dataclass(frozen=True)
class Site:
    """A placement site on the FPGA grid."""

    x: int
    y: int
    kind: str        # "clb" or "io"
    subtile: int = 0  # IO pads stack several sites per grid location

    def as_tuple(self) -> Tuple[int, int, str, int]:
        """The site's fields as ``(x, y, kind, subtile)``."""
        return (self.x, self.y, self.kind, self.subtile)


@dataclass(frozen=True)
class FPGAArchitecture:
    """Parametric description of the island-style FPGA.

    The logic array spans grid positions ``1..width`` by ``1..height``; the
    perimeter (x==0, x==width+1, y==0, y==height+1) holds IO pads.  Routing
    channels of ``channel_width`` unit-length wires run between adjacent grid
    rows and columns.  Connection blocks are fully populated: every logic
    block and IO pin connects to every track of its adjacent channels.
    """

    width: int
    height: int
    channel_width: int = 10
    lut_inputs: int = 4
    io_capacity: int = 2          #: IO pads per perimeter grid location
    lut_delay_ns: float = 0.4     #: intrinsic LUT delay (timing model)
    wire_delay_ns: float = 0.15   #: delay of one unit-length routing segment
    switch_delay_ns: float = 0.05  #: delay of one programmable routing switch
    pin_delay_ns: float = 0.05    #: connection-block pin delay (OPIN / IPIN)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("FPGA array must be at least 1x1")
        if self.channel_width < 1:
            raise ValueError("channel width must be positive")

    # -- sites -----------------------------------------------------------------

    def clb_sites(self) -> Iterator[Site]:
        """All logic-block sites (x, y in 1..width/height)."""
        for x in range(1, self.width + 1):
            for y in range(1, self.height + 1):
                yield Site(x, y, "clb")

    def io_sites(self) -> Iterator[Site]:
        """All IO pad sites on the perimeter."""
        for x in range(1, self.width + 1):
            for sub in range(self.io_capacity):
                yield Site(x, 0, "io", sub)
                yield Site(x, self.height + 1, "io", sub)
        for y in range(1, self.height + 1):
            for sub in range(self.io_capacity):
                yield Site(0, y, "io", sub)
                yield Site(self.width + 1, y, "io", sub)

    def with_channel_width(self, channel_width: int) -> "FPGAArchitecture":
        """Copy of this architecture with a different channel width."""
        return replace(self, channel_width=channel_width)

    # -- timing model ------------------------------------------------------------

    @property
    def wire_hop_delay_ns(self) -> float:
        """Delay of extending a route by one unit wire (switch + segment).

        This is the unit the routers normalize against when blending delay
        into the timing-driven cost: a unit-length wire then costs exactly
        1.0 in delay terms, matching its congestion-free base cost, so the
        Manhattan lookahead stays admissible under any criticality blend.
        """
        return self.wire_delay_ns + self.switch_delay_ns

    def delay_model(self) -> Dict[str, float]:
        """The per-resource delays of the timing subsystem, by element kind.

        The kinds match the critical-path breakdown of
        :mod:`repro.timing`: ``lut`` (intrinsic LUT delay), ``wire`` (one
        unit-length segment), ``switch`` (one programmable switch) and
        ``pin`` (one connection-block OPIN/IPIN hop).
        """
        return {
            "lut": self.lut_delay_ns,
            "wire": self.wire_delay_ns,
            "switch": self.switch_delay_ns,
            "pin": self.pin_delay_ns,
        }

    # -- bookkeeping helpers -----------------------------------------------------

    def contains_clb(self, x: int, y: int) -> bool:
        """Whether ``(x, y)`` is a logic-block position of the array."""
        return 1 <= x <= self.width and 1 <= y <= self.height


def auto_size(
    num_luts: int,
    num_ios: int,
    channel_width: int = 10,
    utilization: float = 0.8,
    lut_inputs: int = 4,
    io_capacity: int = 2,
) -> FPGAArchitecture:
    """Pick the smallest square array that fits a design (VPR's auto-sizing rule).

    The array is sized so that at most ``utilization`` of the logic sites are
    used and the perimeter offers enough IO pads.
    """
    if num_luts < 0 or num_ios < 0:
        raise ValueError("block counts must be non-negative")
    side_logic = math.ceil(math.sqrt(max(num_luts, 1) / utilization))
    side_io = math.ceil(num_ios / (4 * io_capacity))
    side = max(side_logic, side_io, 2)
    return FPGAArchitecture(
        width=side,
        height=side,
        channel_width=channel_width,
        lut_inputs=lut_inputs,
        io_capacity=io_capacity,
    )
