"""VCGRA settings: the per-PE and per-VSB configuration words.

The output of the high-level VCGRA tool flow (Section II-A of the paper) is a
set of *settings values* -- one settings register per PE and per VSB -- that
configure the overlay to implement the application.  In the conventional
implementation these registers are flip-flops written over a dedicated bus;
in the fully parameterized implementation the same values become parameter
inputs of the DCS flow and are folded into the FPGA's configuration memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .grid import GridPosition, VCGRAArchitecture
from .pe import PEOp, ProcessingElementSpec

__all__ = ["PESettings", "VSBSettings", "VCGRASettings"]


@dataclass
class PESettings:
    """Settings-register contents of one Processing Element."""

    coefficient: int = 0          #: FloPoCo-encoded filter coefficient
    sel_a: int = 0                #: intra-connect select for the multiplier operand
    sel_b: int = 0                #: intra-connect select for the adder operand
    op: int = PEOp.MAC            #: function select
    count_limit: int = 0          #: MAC iteration count
    enabled: bool = False         #: whether this PE is used by the mapped application

    def register_words(self, spec: ProcessingElementSpec, width: int = 32) -> List[int]:
        """Pack the settings into ``width``-bit register words (LSB-first fields)."""
        bits = 0
        value = 0

        def push(v: int, w: int) -> None:
            nonlocal bits, value
            value |= (int(v) & ((1 << w) - 1)) << bits
            bits += w

        push(self.coefficient, spec.fmt.width)
        if spec.include_intra_connect:
            push(self.sel_a, spec.sel_width)
            push(self.sel_b, spec.sel_width)
            push(self.op, 2)
        if spec.include_counter:
            push(self.count_limit, spec.counter_width)
        words = []
        while bits > 0:
            words.append(value & ((1 << width) - 1))
            value >>= width
            bits -= width
        return words or [0]


@dataclass
class VSBSettings:
    """Settings-register contents of one Virtual Switch Block.

    ``routes`` maps each downstream PE input port (pe position, port index) to
    the upstream PE whose output should be forwarded there.
    """

    routes: Dict[Tuple[GridPosition, int], GridPosition] = field(default_factory=dict)

    def register_word(self, arch: VCGRAArchitecture) -> int:
        """Pack the routing selections into a single settings word."""
        word = 0
        shift = 0
        for (sink, port), src in sorted(self.routes.items()):
            # 2 bits select among the (at most 3) upstream candidates + idle.
            candidates = arch.upstream_of(sink)
            idx = candidates.index(src) + 1 if src in candidates else 0
            word |= (idx & 0x3) << shift
            shift += 2
        return word


@dataclass
class VCGRASettings:
    """Complete configuration of a VCGRA grid for one application."""

    arch: VCGRAArchitecture
    pe_settings: Dict[GridPosition, PESettings] = field(default_factory=dict)
    vsb_settings: Dict[Tuple[int, int], VSBSettings] = field(default_factory=dict)
    #: where each application input stream enters; one stream may be broadcast
    #: to several PE ports (input name -> [(PE position, port), ...])
    input_bindings: Dict[str, List[Tuple[GridPosition, int]]] = field(default_factory=dict)
    #: which PE produces each application output (output name -> PE position)
    output_bindings: Dict[str, GridPosition] = field(default_factory=dict)

    def pe(self, pos: GridPosition) -> PESettings:
        return self.pe_settings.setdefault(pos, PESettings())

    def enabled_pes(self) -> List[GridPosition]:
        return [pos for pos, s in self.pe_settings.items() if s.enabled]

    def num_enabled(self) -> int:
        return len(self.enabled_pes())

    def register_image(self) -> Dict[str, List[int]]:
        """All settings-register words keyed by component name.

        This is what the conventional implementation would shift in over the
        dedicated settings bus, and what the parameterized implementation
        hands to the Specialized Configuration Generator.
        """
        image: Dict[str, List[int]] = {}
        for pos in self.arch.pe_positions():
            settings = self.pe_settings.get(pos, PESettings())
            image[self.arch.pe_name(pos)] = settings.register_words(
                self.arch.pe_spec, self.arch.settings_register_width
            )
        for vsb in self.arch.vsbs():
            settings = self.vsb_settings.get((vsb.row, vsb.col), VSBSettings())
            image[vsb.name] = [settings.register_word(self.arch)]
        return image

    def diff(self, other: "VCGRASettings") -> List[str]:
        """Names of components whose settings differ (drives reconfiguration cost)."""
        mine, theirs = self.register_image(), other.register_image()
        return sorted(name for name in mine if mine[name] != theirs.get(name))
