"""Cycle-level functional simulator of a configured VCGRA grid.

The simulator takes a :class:`~repro.core.grid.VCGRAArchitecture` and the
:class:`~repro.core.settings.VCGRASettings` produced by the high-level tool
flow and executes the overlay on streams of floating-point samples: each
step, external input streams are applied to their bound PE ports, data flows
row by row through the enabled PEs and the VSB routes, and the bound outputs
are sampled.

This is the model a VCGRA user programs against; the gate-level flows of
:mod:`repro.core.flows` verify that the physical implementation (conventional
or fully parameterized) computes the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.grid import GridPosition, VCGRAArchitecture
from ..core.settings import VCGRASettings
from ..flopoco.format import FPFormat
from .mac import MACUnit

__all__ = ["VCGRASimulator", "SimulationTrace"]


@dataclass
class SimulationTrace:
    """Full record of a simulation run (decoded floats per stream)."""

    outputs: Dict[str, List[float]]
    pe_outputs: Dict[GridPosition, List[float]]
    steps: int


class VCGRASimulator:
    """Execute a configured VCGRA on sample streams."""

    def __init__(self, arch: VCGRAArchitecture, settings: VCGRASettings) -> None:
        self.arch = arch
        self.settings = settings
        self.fmt: FPFormat = arch.pe_spec.fmt
        self.units: Dict[GridPosition, MACUnit] = {}
        for pos, pe_settings in settings.pe_settings.items():
            if pe_settings.enabled:
                self.units[pos] = MACUnit(self.fmt, pe_settings)
        # Invert input bindings: (pe position, port) -> stream name.  A stream
        # may be broadcast to several ports; legacy single-tuple bindings are
        # accepted for convenience.
        self.port_stream: Dict[Tuple[GridPosition, int], str] = {}
        for name, bindings in settings.input_bindings.items():
            if isinstance(bindings, tuple):
                bindings = [bindings]
            for binding in bindings:
                self.port_stream[binding] = name
        # VSB routes: (pe position, port) -> upstream PE.
        self.port_route: Dict[Tuple[GridPosition, int], GridPosition] = {}
        for vsb in settings.vsb_settings.values():
            self.port_route.update(vsb.routes)

    # -- single step -------------------------------------------------------------

    def step(self, stream_values: Mapping[str, int]) -> Dict[GridPosition, int]:
        """Advance the grid by one sample; returns each enabled PE's output word."""
        zero = self.fmt.encode(0.0)
        pe_out: Dict[GridPosition, int] = {}
        for pos in sorted(self.units):  # row-major order == dataflow order
            unit = self.units[pos]

            def port_value(port: int) -> int:
                key = (pos, port)
                stream = self.port_stream.get(key)
                if stream is not None:
                    return stream_values.get(stream, zero)
                src = self.port_route.get(key)
                if src is not None:
                    return pe_out.get(src, zero)
                return zero

            # The intra-connect crossbar: sel_a / sel_b pick which input port
            # feeds the multiplier and the adder operand respectively.
            pe_settings = self.settings.pe_settings[pos]
            sample = port_value(pe_settings.sel_a)
            acc_in = port_value(pe_settings.sel_b)
            out, _done = unit.step(sample, acc_in)
            pe_out[pos] = out
        return pe_out

    # -- stream execution -----------------------------------------------------------

    def run(
        self,
        input_streams: Mapping[str, Sequence[float]],
        num_steps: Optional[int] = None,
        encoded: bool = False,
    ) -> SimulationTrace:
        """Run the grid over full input streams.

        ``input_streams`` maps stream names (the external inputs of the
        application graph) to equal-length sequences of Python floats (or
        FloPoCo words when ``encoded=True``).  Returns the decoded output
        streams plus every PE's output history.
        """
        lengths = {len(v) for v in input_streams.values()}
        if num_steps is None:
            if not lengths:
                raise ValueError("need input streams or an explicit number of steps")
            num_steps = max(lengths)

        encoded_streams: Dict[str, List[int]] = {}
        for name, values in input_streams.items():
            if encoded:
                encoded_streams[name] = [int(v) for v in values]
            else:
                encoded_streams[name] = [self.fmt.encode(float(v)) for v in values]

        outputs: Dict[str, List[float]] = {name: [] for name in self.settings.output_bindings}
        pe_hist: Dict[GridPosition, List[float]] = {pos: [] for pos in self.units}
        zero = self.fmt.encode(0.0)

        for step_idx in range(num_steps):
            step_inputs = {
                name: (vals[step_idx] if step_idx < len(vals) else zero)
                for name, vals in encoded_streams.items()
            }
            pe_out = self.step(step_inputs)
            for pos, word in pe_out.items():
                pe_hist[pos].append(self.fmt.decode(word))
            for out_name, pos in self.settings.output_bindings.items():
                outputs[out_name].append(self.fmt.decode(pe_out.get(pos, zero)))

        return SimulationTrace(outputs=outputs, pe_outputs=pe_hist, steps=num_steps)
