"""Multi-context reconfiguration scheduler: LRU residency + frame diffs.

The device model has two configuration stores:

* the **active plane** -- the frame image currently configuring the grid;
* a **context memory** of ``budget_frames`` frames holding *resident*
  partial configurations, staged so a switch to a resident context skips
  the read-modify legs of the configuration port
  (:meth:`~repro.core.reconfiguration.ReconfigurationCostModel.diff_switch_time_ms`).

Every switch writes exactly the frame-level delta between the active image
and the target (:func:`repro.reconfig.frames.diff_images`), so the active
plane after the switch is *bit-identical* to a full reconfiguration of the
target -- the invariant ``tests/test_reconfig.py`` and
``benchmarks/check_quality.py`` gate.

Residency is LRU with **criticality-aware admission**: a missing context is
admitted by evicting least-recently-used residents, but residents of
*strictly higher* criticality than the candidate are protected -- hot
contexts (frequently requested, or carrying timing-optimized placements)
keep their residency against cold traffic, while equal-criticality
contexts compete by plain LRU.  Eviction is deterministic:
recency order is insertion-ordered, ties never arise (each touch reorders
exactly one entry), and an admission either finds its full frame budget
among evictable residents or leaves the resident set untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.reconfiguration import MICAP, ReconfigurationCostModel
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .context import Context, ContextLibrary
from .frames import apply_delta, diff_images, union_frames

__all__ = ["SwitchOutcome", "ReconfigScheduler"]


@dataclass(frozen=True)
class SwitchOutcome:
    """Bookkeeping of one context switch."""

    name: str
    #: the target was resident in context memory (fast write path)
    resident: bool
    #: frames actually written (the delta against the active image)
    frames_written: int
    #: frames a full reconfiguration would have written (union of images)
    frames_full: int
    #: modelled switch time (delta frames at the taken path's per-frame cost)
    time_ms: float
    #: residents evicted to admit the target (empty on hits and refusals)
    evicted: Tuple[str, ...] = ()
    #: the target ended the switch resident in context memory
    admitted: bool = False


class ReconfigScheduler:
    """Multiplex a :class:`ContextLibrary` on one grid under a frame budget."""

    def __init__(
        self,
        library: ContextLibrary,
        budget_frames: int,
        model: Optional[ReconfigurationCostModel] = None,
    ) -> None:
        """``budget_frames`` bounds the context memory; ``model`` prices the
        per-frame write costs (defaults to MiCAP, the paper's fast port)."""
        if budget_frames < 0:
            raise ValueError("budget_frames must be non-negative")
        self.library = library
        self.budget_frames = budget_frames
        self.model = model or ReconfigurationCostModel(MICAP)
        #: active plane: canonical frame image currently on the grid
        self.active_image: Dict[int, int] = {}
        self.active_name: Optional[str] = None
        #: resident contexts, least-recently-used first (dicts preserve
        #: insertion order; a hit re-inserts at the MRU end)
        self._resident: Dict[str, int] = {}
        self._stats = {
            "switches": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "rejected_admissions": 0,
            "frames_written": 0,
            "frames_full": 0,
            "time_ms": 0.0,
        }

    # -- residency ---------------------------------------------------------------

    @property
    def resident_frames(self) -> int:
        """Context-memory frames currently in use (never exceeds the budget)."""
        return sum(self._resident.values())

    def _touch(self, name: str) -> None:
        """Move ``name`` to the MRU end of the resident order."""
        self._resident[name] = self._resident.pop(name)

    def _admit(self, context: Context) -> Tuple[Tuple[str, ...], bool]:
        """Try to make ``context`` resident; returns (evicted names, admitted).

        Two-phase and deterministic: first *plan* the evictions by scanning
        residents LRU-first, skipping any strictly hotter than the
        candidate; only when the plan frees enough frames is it committed.
        A refused admission changes nothing.
        """
        need = context.num_frames
        if need > self.budget_frames:
            return (), False
        free = self.budget_frames - self.resident_frames
        if free >= need:
            self._resident[context.name] = need
            return (), True
        plan: List[str] = []
        for name in self._resident:
            if free >= need:
                break
            if self.library[name].criticality > context.criticality:
                continue
            plan.append(name)
            free += self._resident[name]
        if free < need:
            return (), False
        for name in plan:
            del self._resident[name]
        self._resident[context.name] = need
        return tuple(plan), True

    # -- switching ---------------------------------------------------------------

    def switch_to(self, name: str) -> SwitchOutcome:
        """Reconfigure the grid to context ``name`` by writing its frame delta.

        A resident target pays the write-only context-memory cost per
        changed frame; a missing target streams its delta through the full
        RMW cycle of the configuration port and is then considered for
        admission.  Either way the active plane ends bit-identical to the
        target's full image.
        """
        context = self.library[name]
        with span("reconfig.switch", context=name):
            return self._switch_to(name, context)

    def _switch_to(self, name: str, context: Context) -> SwitchOutcome:
        delta = diff_images(self.active_image, context.image)
        frames_full = union_frames(self.active_image, context.image)
        resident = name in self._resident

        evicted: Tuple[str, ...] = ()
        admitted = resident
        if resident:
            self._touch(name)
        else:
            evicted, admitted = self._admit(context)

        time_ms = self.model.diff_switch_time_ms(delta.num_frames, resident=resident)
        self.active_image = apply_delta(self.active_image, delta)
        self.active_name = name

        outcome = SwitchOutcome(
            name=name,
            resident=resident,
            frames_written=delta.num_frames,
            frames_full=frames_full,
            time_ms=time_ms,
            evicted=evicted,
            admitted=admitted,
        )
        s = self._stats
        s["switches"] += 1
        s["hits" if resident else "misses"] += 1
        s["evictions"] += len(evicted)
        if not resident and not admitted:
            s["rejected_admissions"] += 1
        s["frames_written"] += delta.num_frames
        s["frames_full"] += frames_full
        s["time_ms"] += time_ms
        obs_metrics.merge(
            {
                "reconfig.switches": 1,
                "reconfig.hits" if resident else "reconfig.misses": 1,
                "reconfig.evictions": len(evicted),
                "reconfig.frames_written": delta.num_frames,
            }
        )
        return outcome

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Counter snapshot (cumulative over every :meth:`switch_to`)."""
        out = dict(self._stats)
        out["resident_contexts"] = len(self._resident)
        out["resident_frames"] = self.resident_frames
        if self._stats["switches"]:
            out["hit_rate"] = self._stats["hits"] / self._stats["switches"]
        else:
            out["hit_rate"] = 0.0
        if self._stats["frames_full"]:
            out["frame_savings"] = 1.0 - (
                self._stats["frames_written"] / self._stats["frames_full"]
            )
        else:
            out["frame_savings"] = 0.0
        return out
