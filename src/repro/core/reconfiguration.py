"""Micro-reconfiguration cost model (HWICAP / MiCAP).

The paper reports an *estimated* reconfiguration time of 251 ms per PE for a
parameter change, derived from the number of TLUTs and TCONs of the PE and
the read-modify-write cost of configuration frames through the HWICAP
interface (their earlier DCS papers measure roughly 230 microseconds per
reconfigured frame with HWICAP; MiCAP and placement-constrained variants are
faster).

The model here makes that estimate explicit and testable:

``time = frames_touched * (frame_read + frame_modify + frame_write)
         + boolean_functions * evaluation_time``

In *estimate mode* (no placement available) each tunable element is assumed
to live in its own frame -- the worst case the paper's estimate corresponds
to.  When a placed-and-routed design is available, the actual number of
distinct frames touched (from the configuration layout) is used instead,
which is how placement constraints speed up DCS in the authors' follow-up
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["ReconfigurationInterface", "HWICAP", "MICAP", "ReconfigurationCostModel"]


@dataclass(frozen=True)
class ReconfigurationInterface:
    """Timing characteristics of a configuration interface."""

    name: str
    frame_read_us: float
    frame_write_us: float
    frame_modify_us: float = 5.0
    #: SCG Boolean-function evaluation on the embedded processor (per function)
    eval_us_per_function: float = 0.35

    @property
    def frame_rmw_us(self) -> float:
        """Full read-modify-write cost of one frame through the port."""
        return self.frame_read_us + self.frame_modify_us + self.frame_write_us

    @property
    def frame_restore_us(self) -> float:
        """Write-only cost of one frame whose specialized content is already
        staged in context memory (a resident partial configuration): the
        read and modify legs of the RMW cycle are skipped."""
        return self.frame_write_us


#: HWICAP: the slow, standard Xilinx configuration access port driver.
HWICAP = ReconfigurationInterface("HWICAP", frame_read_us=112.0, frame_write_us=112.0)

#: MiCAP: the custom reconfiguration controller of Kulkarni et al. (ReConFig 2015),
#: roughly 3x faster on the read path.
MICAP = ReconfigurationInterface("MiCAP", frame_read_us=30.0, frame_write_us=82.0)


class ReconfigurationCostModel:
    """Estimate micro-reconfiguration time for parameter changes."""

    def __init__(self, interface: ReconfigurationInterface = HWICAP) -> None:
        self.interface = interface

    # -- estimate mode (matches the paper's 251 ms figure) ---------------------------

    def estimate_frames(self, num_tluts: int, num_tcons: int) -> int:
        """Worst-case frame count: every tunable element sits in its own frame."""
        return num_tluts + num_tcons

    def estimate_time_ms(
        self,
        num_tluts: int,
        num_tcons: int,
        boolean_functions: Optional[int] = None,
    ) -> float:
        """Reconfiguration time estimate from tunable-element counts."""
        frames = self.estimate_frames(num_tluts, num_tcons)
        if boolean_functions is None:
            boolean_functions = num_tluts * 16 + num_tcons
        micro = frames * self.interface.frame_rmw_us
        eval_time = boolean_functions * self.interface.eval_us_per_function
        return (micro + eval_time) / 1000.0

    # -- measured mode (uses actual frame counts from a placed design) ----------------

    def time_from_frames_ms(self, frames_touched: int, boolean_functions: int = 0) -> float:
        """Reconfiguration time from an actual frame count (placed design)."""
        micro = frames_touched * self.interface.frame_rmw_us
        eval_time = boolean_functions * self.interface.eval_us_per_function
        return (micro + eval_time) / 1000.0

    # -- multi-context switching (frame-level delta encoding) --------------------------

    def diff_switch_time_ms(self, frames_changed: int, resident: bool = False) -> float:
        """Cost of a context switch that writes only the *changed* frames.

        ``resident=True`` models a switch to a partial configuration that is
        already staged in context memory (see
        :class:`repro.reconfig.scheduler.ReconfigScheduler`): each changed
        frame is a plain write (:attr:`ReconfigurationInterface.frame_restore_us`).
        A non-resident switch streams every changed frame through the full
        read-modify-write cycle of the configuration port, the same cost a
        full reconfiguration pays per frame -- the saving of a cold diff
        switch is purely the smaller frame count.
        """
        per_frame = (
            self.interface.frame_restore_us if resident else self.interface.frame_rmw_us
        )
        return frames_changed * per_frame / 1000.0

    # -- application-level amortization -----------------------------------------------

    def amortized_overhead(
        self,
        reconfig_time_ms: float,
        items_per_configuration: int,
        time_per_item_ms: float,
    ) -> Dict[str, float]:
        """Overhead of reconfiguration amortized over a batch of work items.

        The paper's example: the denoise and texture filters keep their
        coefficients for 1000 images, so the 251 ms reconfiguration is paid
        once per 1000 images.
        """
        if items_per_configuration <= 0:
            raise ValueError("items_per_configuration must be positive")
        compute_ms = items_per_configuration * time_per_item_ms
        total = compute_ms + reconfig_time_ms
        return {
            "reconfig_ms": reconfig_time_ms,
            "compute_ms": compute_ms,
            "total_ms": total,
            "overhead_fraction": reconfig_time_ms / total if total else 0.0,
            "per_item_overhead_ms": reconfig_time_ms / items_per_configuration,
        }
