"""Resource accounting for the VCGRA grid (Table II of the paper).

Table II compares, for a 4x4 VCGRA grid, the overlay-level resources that the
conventional implementation must realize on the FPGA's functional resources
against the fully parameterized implementation:

* **Inter-Network**: the virtual routing switches (9 VSBs + 32 virtual
  connection blocks = 41) -- LUT-based multiplexers conventionally, physical
  routing switches (TCONs) when parameterized;
* **Settings registers**: 25 32-bit registers (16 PEs + 9 VSBs) -- logic-cell
  flip-flops conventionally, configuration memory when parameterized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .grid import VCGRAArchitecture

__all__ = ["GridResourceRow", "grid_resource_table", "grid_resource_details"]


@dataclass(frozen=True)
class GridResourceRow:
    """One row of Table II."""

    implementation: str
    inter_network: int        #: virtual routing switches realized on functional resources
    settings_registers: int   #: settings registers realized on flip-flops


def grid_resource_table(arch: VCGRAArchitecture) -> Dict[str, GridResourceRow]:
    """Reproduce Table II for an arbitrary grid size.

    The conventional implementation realizes every virtual routing switch on
    LUTs and every settings register on flip-flops; the fully parameterized
    implementation maps the former onto physical routing switches (TCONs) and
    the latter onto configuration memory, so both counts drop to zero.
    """
    conventional = GridResourceRow(
        implementation="Conventional",
        inter_network=arch.num_virtual_routing_switches,
        settings_registers=arch.num_settings_registers,
    )
    parameterized = GridResourceRow(
        implementation="Fully Parameterized",
        inter_network=0,
        settings_registers=0,
    )
    return {"conventional": conventional, "fully_parameterized": parameterized}


def grid_resource_details(arch: VCGRAArchitecture) -> Dict[str, int]:
    """Detailed breakdown behind Table II plus derived FPGA resource estimates."""
    word = arch.settings_register_width
    # A virtual routing switch steers one FloPoCo word; realized on LUTs it
    # needs roughly one 2:1/3:1 multiplexer LUT per routed bit.
    mux_luts_per_switch = arch.pe_spec.fmt.width
    return {
        "pes": arch.num_pes,
        "vsbs": arch.num_vsbs,
        "virtual_connection_blocks": arch.num_virtual_connection_blocks,
        "virtual_routing_switches": arch.num_virtual_routing_switches,
        "settings_registers": arch.num_settings_registers,
        "settings_register_bits": arch.settings_bits_total,
        "conventional_ff_estimate": arch.num_settings_registers * word,
        "conventional_routing_lut_estimate": (
            arch.num_virtual_routing_switches * mux_luts_per_switch
        ),
        "parameterized_ff": 0,
        "parameterized_routing_luts": 0,
    }
