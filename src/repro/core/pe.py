"""Processing Element (PE) of the VCGRA.

Figure 4 of the paper shows a fully parameterized PE: a group of BLEs
(implemented as TLUTs) carrying the functional datapath, surrounded by an
*intra-connect* -- virtual routing switches (connection multiplexers with
configuration memory) that steer operands between the BLEs -- plus a settings
register that selects the PE's function.

For the retinal-vessel-segmentation application the functional datapath is a
FloPoCo floating-point multiply-accumulate (MAC) operator whose coefficient
comes from the settings register, and the settings register additionally
holds an iteration-count limit for the MAC loop.

This module builds the PE as a gate-level circuit with the settings register
fields declared as ``--PARAM`` inputs:

* **conventional flow**: the parameters are ordinary inputs (the settings
  register is built from flip-flops) and the intra-connect multiplexers cost
  LUTs -- the overhead quantified in Section V of the paper;
* **fully parameterized flow**: TCONMAP turns the intra-connect into TCONs
  and the coefficient-dependent logic into TLUTs, and the settings register
  moves into configuration memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..flopoco.circuits import build_fp_adder, build_fp_multiplier
from ..flopoco.format import FPFormat, PAPER_FORMAT
from ..netlist.hdl import Bus, Design

__all__ = ["PEOp", "ProcessingElementSpec", "build_pe_design"]


class PEOp:
    """Function-select encodings of the PE output multiplexer."""

    MAC = 0       #: out = acc_in + sample * coeff   (filter inner loop)
    MUL = 1       #: out = sample * coeff            (pointwise scaling)
    BYPASS = 2    #: out = sample                    (route-through)
    BYPASS_B = 3  #: out = acc_in                    (route-through, second port)

    ALL = (MAC, MUL, BYPASS, BYPASS_B)
    NAMES = {MAC: "mac", MUL: "mul", BYPASS: "bypass", BYPASS_B: "bypass_b"}


@dataclass(frozen=True)
class ProcessingElementSpec:
    """Parameters of a PE instance.

    Attributes
    ----------
    fmt:
        Floating-point format of the datapath (the paper uses ``we=6, wf=26``).
    num_inputs:
        Number of data input ports the intra-connect can steer to the
        datapath operands.
    counter_width:
        Width of the iteration counter / count-limit settings field.
    include_intra_connect:
        Build the operand-select and output-select multiplexer network
        (the virtual intra-connect).  Disabling it yields the bare MAC
        datapath used for ablation studies.
    include_counter:
        Build the iteration-counter compare logic driven by the settings
        register's count-limit field.
    """

    fmt: FPFormat = PAPER_FORMAT
    num_inputs: int = 4
    counter_width: int = 16
    include_intra_connect: bool = True
    include_counter: bool = True

    @property
    def sel_width(self) -> int:
        """Width of one operand-select settings field."""
        return max(1, math.ceil(math.log2(self.num_inputs)))

    @property
    def settings_bits(self) -> int:
        """Total number of settings-register bits of this PE."""
        bits = self.fmt.width                     # coefficient
        if self.include_intra_connect:
            bits += 2 * self.sel_width + 2        # two operand selects + op select
        if self.include_counter:
            bits += self.counter_width            # count limit
        return bits

    @property
    def num_settings_registers(self) -> int:
        """Number of 32-bit settings registers needed to hold the settings."""
        return max(1, math.ceil(self.settings_bits / 32))


def build_pe_design(spec: ProcessingElementSpec, name: str = "pe") -> Design:
    """Elaborate a Processing Element into a gate-level design.

    Ports
    -----
    inputs
        ``in0 .. in{N-1}`` (FloPoCo words), ``count`` (iteration counter value
        from the sequencer).
    parameters (``--PARAM``)
        ``coeff``, ``sel_a``, ``sel_b``, ``op``, ``count_limit``.
    outputs
        ``out`` (FloPoCo word), ``done`` (counter compare flag).
    """
    fmt = spec.fmt
    d = Design(name)

    inputs: List[Bus] = [d.input_bus(f"in{i}", fmt.width) for i in range(spec.num_inputs)]
    coeff = d.param_bus("coeff", fmt.width)

    if spec.include_intra_connect:
        sel_a = d.param_bus("sel_a", spec.sel_width)
        sel_b = d.param_bus("sel_b", spec.sel_width)
        op = d.param_bus("op", 2)
        # Pad the input list to a power of two for the mux trees.
        padded = list(inputs)
        while len(padded) < (1 << spec.sel_width):
            padded.append(padded[-1])
        operand_a = d.mux_tree(sel_a, padded)   # multiplier operand (sample)
        operand_b = d.mux_tree(sel_b, padded)   # adder operand (accumulator input)
    else:
        operand_a = inputs[0]
        operand_b = inputs[1 % spec.num_inputs]
        op = None

    # Functional BLEs: FloPoCo multiplier and adder.
    product = build_fp_multiplier(d, operand_a, coeff, fmt)
    mac_sum = build_fp_adder(d, operand_b, product, fmt)

    if spec.include_intra_connect:
        out = d.mux_tree(op, [mac_sum, product, operand_a, operand_b])
    else:
        out = mac_sum
    d.output_bus("out", out)

    if spec.include_counter:
        count = d.input_bus("count", spec.counter_width)
        count_limit = d.param_bus("count_limit", spec.counter_width)
        d.output_bit("done", d.equals(count, count_limit))

    return d


def pe_port_summary(spec: ProcessingElementSpec) -> Dict[str, int]:
    """Bit widths of every PE port (used by documentation and the grid model)."""
    ports = {f"in{i}": spec.fmt.width for i in range(spec.num_inputs)}
    ports["out"] = spec.fmt.width
    ports["coeff"] = spec.fmt.width
    if spec.include_intra_connect:
        ports["sel_a"] = spec.sel_width
        ports["sel_b"] = spec.sel_width
        ports["op"] = 2
    if spec.include_counter:
        ports["count"] = spec.counter_width
        ports["count_limit"] = spec.counter_width
        ports["done"] = 1
    return ports
