"""Request traces: skewed synthetic workloads and their replay.

Serving-style evaluation of the scheduler needs request streams, not single
switches.  :func:`synthetic_trace` draws a deterministic (seeded) stream of
context names with Zipf-skewed popularity -- a few hot contexts, a long
cold tail, like filter-coefficient batches hitting a video pipeline -- plus
an optional repeat probability modelling batch locality.  :func:`replay`
drives a :class:`~repro.reconfig.scheduler.ReconfigScheduler` through a
trace and folds the outcomes into a :class:`ReplayReport`: contexts/sec,
amortized switch cost, hit rate, and the full-vs-diff frame counts the
benchmark publishes.

Determinism: for a fixed ``(names, length, seed, skew, repeat)`` the trace
is reproducible across processes (NumPy PCG64), and scheduler replay is a
pure function of (library, budget, trace) -- replaying the same trace twice
from a fresh scheduler produces identical outcome sequences, evictions
included (asserted in ``tests/test_reconfig.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .scheduler import ReconfigScheduler

__all__ = ["ReplayReport", "popularity_weights", "synthetic_trace", "replay"]


def popularity_weights(num_contexts: int, skew: float = 1.2) -> np.ndarray:
    """Zipf-like popularity: weight ``1 / rank**skew``, normalized to sum 1.

    Rank follows position (index 0 is the hottest context); ``skew=0`` is
    uniform traffic.
    """
    if num_contexts <= 0:
        raise ValueError("need at least one context")
    ranks = np.arange(1, num_contexts + 1, dtype=np.float64)
    weights = ranks ** (-float(skew))
    return weights / weights.sum()


def synthetic_trace(
    names: Sequence[str],
    length: int,
    seed: int = 0,
    skew: float = 1.2,
    repeat: float = 0.0,
) -> List[str]:
    """A seeded request trace over ``names`` with skewed popularity.

    ``names`` order is popularity order (first = hottest).  With
    probability ``repeat`` a request re-issues the previous context
    (batch locality -- the paper's "coefficients change once per 1000
    images" regime is ``repeat`` close to 1); otherwise the context is an
    independent draw from :func:`popularity_weights`.
    """
    if not 0.0 <= repeat <= 1.0:
        raise ValueError("repeat must be a probability")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = popularity_weights(len(names), skew=skew)
    draws = rng.choice(len(names), size=length, p=weights)
    if repeat:
        repeats = rng.random(length) < repeat
        trace: List[str] = []
        for i in range(length):
            if repeats[i] and trace:
                trace.append(trace[-1])
            else:
                trace.append(names[draws[i]])
        return trace
    return [names[i] for i in draws]


@dataclass(frozen=True)
class ReplayReport:
    """Aggregate outcome of replaying one trace through one scheduler."""

    requests: int
    total_time_ms: float
    hit_rate: float
    evictions: int
    rejected_admissions: int
    frames_written: int     #: total delta frames actually written
    frames_full: int        #: frames the full-reconfiguration baseline writes
    budget_frames: int

    @property
    def contexts_per_sec(self) -> float:
        """Modelled switch throughput over the whole trace."""
        if self.total_time_ms <= 0.0:
            return float("inf")
        return self.requests / (self.total_time_ms / 1000.0)

    @property
    def amortized_switch_ms(self) -> float:
        """Mean modelled cost of one request (diff switches + misses)."""
        return self.total_time_ms / self.requests if self.requests else 0.0

    @property
    def frame_savings(self) -> float:
        """Fraction of the full baseline's frame writes the diffs avoided."""
        if not self.frames_full:
            return 0.0
        return 1.0 - self.frames_written / self.frames_full

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-friendly view (benchmark report rows)."""
        return {
            "requests": self.requests,
            "budget_frames": self.budget_frames,
            "total_time_ms": self.total_time_ms,
            "contexts_per_sec": self.contexts_per_sec,
            "amortized_switch_ms": self.amortized_switch_ms,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "rejected_admissions": self.rejected_admissions,
            "frames_written": self.frames_written,
            "frames_full": self.frames_full,
            "frame_savings": self.frame_savings,
        }


def replay(scheduler: ReconfigScheduler, trace: Sequence[str]) -> ReplayReport:
    """Drive ``scheduler`` through ``trace`` and aggregate *its* outcomes.

    Only the switches of this replay are counted (the scheduler may carry
    warm state from earlier traffic -- that affects hit rates, not the
    accounting).
    """
    outcomes = [scheduler.switch_to(name) for name in trace]
    hits = sum(1 for o in outcomes if o.resident)
    return ReplayReport(
        requests=len(outcomes),
        total_time_ms=sum(o.time_ms for o in outcomes),
        hit_rate=hits / len(outcomes) if outcomes else 0.0,
        evictions=sum(len(o.evicted) for o in outcomes),
        rejected_admissions=sum(
            1 for o in outcomes if not o.resident and not o.admitted
        ),
        frames_written=sum(o.frames_written for o in outcomes),
        frames_full=sum(o.frames_full for o in outcomes),
        budget_frames=scheduler.budget_frames,
    )
