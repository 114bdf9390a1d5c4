"""Resilience substrate: deadlines, retries and deterministic fault injection.

The PAR stack is growing toward a long-running service (see ROADMAP), and a
service-shaped flow must survive the failures an on-disk cache, a process
pool and a congestion-negotiating router can produce: corrupt cache values,
crashed pool workers, kernels that run past their time budget.  This module
provides the three primitives everything else builds on:

* :class:`Deadline` -- a wall-clock budget handed down through a call tree;
  long loops (the PathFinder iteration loops in :mod:`repro.par.routing`)
  poll it and raise :class:`DeadlineExceeded` when the budget is spent.
* :class:`RetryPolicy` -- bounded retries with exponential backoff and
  *deterministic, seeded* jitter, so a retried chaos test replays the same
  schedule on every run.
* :class:`FaultPlan` -- a registry of named fault points.  Production code
  marks its failure seams with ``inject("cache.read")`` etc.; with no plan
  installed the call is a single module-global load-and-compare (measured
  ~0.1 us, see PERFORMANCE.md), so the hot path stays untouched.  A plan
  -- installed programmatically or through the ``REPRO_FAULT_PLAN``
  environment variable -- makes chosen sites mis-behave deterministically:
  on exact hit counts, never on wall-clock races.

Recovery code reports what it did through *events*: plain dicts appended to
a caller-provided list (:func:`record_event`), surfaced as
``PaRResult.events`` / ``MinChannelWidthResult.events`` so callers and CI
can assert *how* a result was obtained, not just that it exists.  The fault
point names and the event taxonomy are documented in ``RESILIENCE.md``.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..obs.trace import emit_event

__all__ = [
    "ResilienceError",
    "DeadlineExceeded",
    "FaultInjected",
    "Deadline",
    "RetryPolicy",
    "FaultRule",
    "FaultPlan",
    "FAULT_SITES",
    "install",
    "clear",
    "active_plan",
    "fault_plan",
    "inject",
    "record_event",
    "count_events",
]


class ResilienceError(RuntimeError):
    """Base class of the errors raised by the resilience layer."""


class DeadlineExceeded(ResilienceError):
    """A stage ran past its :class:`Deadline` (or a fault simulated that)."""


class FaultInjected(ResilienceError):
    """Raised by code that maps an injected fault kind to an exception.

    Deliberately *not* a subclass of the domain errors recovery paths
    classify (``OSError``, routing ``RuntimeError`` subtypes are raised
    directly by the fault site instead): an uncaught ``FaultInjected``
    escaping a chaos run means a fault point without a recovery path.
    """

    def __init__(self, site: str, kind: str = "error") -> None:
        super().__init__(f"injected fault at {site!r} (kind={kind!r})")
        self.site = site
        self.kind = kind


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """Wall-clock budget: ``Deadline(2.5)`` expires 2.5 s after creation.

    ``Deadline(None)`` never expires, so call trees can thread one
    ``deadline`` parameter unconditionally.  ``clock`` is injectable for
    deterministic tests.
    """

    __slots__ = ("seconds", "_clock", "_t0")

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._t0 = clock()

    def remaining(self) -> float:
        """Seconds left; ``inf`` for an unbounded deadline (may be < 0)."""
        if self.seconds is None:
            return float("inf")
        return self.seconds - (self._clock() - self._t0)

    def expired(self) -> bool:
        """Whether the budget is spent (never, for an unbounded deadline)."""
        return self.remaining() <= 0.0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.seconds is not None and self.expired():
            where = f" in {context}" if context else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded{where}"
            )


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` counts *total* tries (1 = no retry).  The backoff before
    retry ``k`` (1-based) is ``min(max_backoff_s, backoff_s *
    multiplier**(k-1))`` scaled by a jitter factor drawn from a
    ``random.Random(seed)`` stream created fresh for every :meth:`call`,
    so a policy object is reusable and every run replays the same
    schedule -- chaos tests stay deterministic.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def backoffs(self) -> Iterator[float]:
        """The deterministic backoff schedule (one delay per retry)."""
        rng = random.Random(self.seed)
        for k in range(self.attempts - 1):
            base = min(self.max_backoff_s, self.backoff_s * self.multiplier**k)
            yield base * (1.0 + self.jitter * rng.random())

    def call(
        self,
        fn: Callable[[], Any],
        retry_on: Tuple[type, ...] = (ResilienceError, OSError),
        deadline: Optional[Deadline] = None,
        events: Optional[List[Dict[str, Any]]] = None,
        site: str = "",
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``fn`` under this policy.

        Exceptions in ``retry_on`` are retried (with backoff) until the
        attempt budget -- or the ``deadline`` -- runs out; anything else
        propagates immediately.  Each retry is recorded as a ``"retry"``
        event on ``events``.
        """
        last: Optional[BaseException] = None
        schedule = self.backoffs()
        for attempt in range(1, self.attempts + 1):
            if deadline is not None:
                deadline.check(site or "retry loop")
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt == self.attempts:
                    raise
                delay = next(schedule)
                if deadline is not None:
                    delay = max(0.0, min(delay, deadline.remaining()))
                record_event(
                    events,
                    "retry",
                    site=site or None,
                    attempt=attempt,
                    backoff_s=round(delay, 6),
                    error=type(exc).__name__,
                )
                if delay > 0.0:
                    sleep(delay)
        raise last  # pragma: no cover -- loop either returns or raises


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

#: Every fault point ``src/repro`` marks with :func:`inject` (documented in
#: RESILIENCE.md).  A plan read from the environment may only name these, so
#: a mistyped ``REPRO_FAULT_PLAN`` fails loudly instead of injecting nothing.
FAULT_SITES = frozenset(
    {
        "cache.read",
        "cache.write",
        "cache.hydrate",
        "route.kernel",
        "service.exec",
        "service.journal",
        "native.compile",
    }
)


@dataclass
class FaultRule:
    """One site's misbehavior: *which* hits fire and *what* kind of fault.

    ``times`` fires the first N hits of the site (``None`` = every hit);
    ``prob`` instead fires each hit with seeded pseudo-random probability.
    ``scope`` restricts firing to the process that installed the plan
    (``"parent"``) or to forked children such as pool workers
    (``"worker"``); pool recovery paths re-run the work in the parent, so
    a worker-scoped rule exercises the recovery without re-failing it.
    """

    kind: str
    times: Optional[int] = 1
    prob: Optional[float] = None
    seed: int = 0
    scope: str = "any"  # "any" | "worker" | "parent"
    _hits: int = field(default=0, repr=False)
    _rng: Optional[random.Random] = field(default=None, repr=False)

    def should_fire(self, in_worker: bool) -> bool:
        """Count one hit of the site; whether this hit fires the fault."""
        self._hits += 1
        if self.scope == "worker" and not in_worker:
            return False
        if self.scope == "parent" and in_worker:
            return False
        if self.prob is not None:
            if self._rng is None:
                self._rng = random.Random(self.seed)
            return self._rng.random() < self.prob
        return self.times is None or self._hits <= self.times


class FaultPlan:
    """Deterministic, seed-keyed fault registry keyed by site name.

    Build programmatically (``FaultPlan({"cache.read": FaultRule("corrupt")
    })``), from a compact spec string (:meth:`from_spec`) or from the
    ``REPRO_FAULT_PLAN`` environment variable (:meth:`from_env`).  Install
    with :func:`install` / the :func:`fault_plan` context manager; sites
    consult the plan through :func:`inject`.

    Spec grammar (semicolon-separated entries)::

        site=kind[:N][:pP][:sS][:@scope]

    e.g. ``cache.read=corrupt:2`` (first two reads return corrupt data),
    ``service.exec=crash:1:@worker`` (the first service job *in a pool
    worker* dies), ``cache.write=io:p0.25:s7`` (every write fails with
    probability 0.25 from seed 7).
    """

    def __init__(self, rules: Optional[Dict[str, FaultRule]] = None) -> None:
        self.rules: Dict[str, FaultRule] = dict(rules or {})
        self.fired: List[Tuple[str, str, int]] = []  #: (site, kind, hit no.)
        self.install_pid: Optional[int] = None

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the spec grammar above; any site name is accepted."""
        rules: Dict[str, FaultRule] = {}
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            site, _, rest = entry.partition("=")
            site = site.strip()
            if not site or not rest:
                raise ValueError(f"bad fault spec entry {entry!r}")
            parts = rest.split(":")
            rule = FaultRule(kind=parts[0].strip())
            for mod in parts[1:]:
                mod = mod.strip()
                if not mod:
                    continue
                if mod.startswith("@"):
                    scope = mod[1:]
                    if scope not in ("any", "worker", "parent"):
                        raise ValueError(f"bad fault scope {mod!r} in {entry!r}")
                    rule.scope = scope
                elif mod[0] == "p":
                    rule.prob = float(mod[1:])
                elif mod[0] == "s":
                    rule.seed = int(mod[1:])
                elif mod == "*":
                    rule.times = None
                else:
                    rule.times = int(mod)
            rules[site] = rule
        return cls(rules)

    @classmethod
    def from_env(cls, var: str = "REPRO_FAULT_PLAN") -> Optional["FaultPlan"]:
        """The plan ``$var`` spells, or ``None`` when unset.

        Unlike :meth:`from_spec`, which parses any site name, this raises
        ``ValueError`` for a site outside :data:`FAULT_SITES`.
        """
        spec = os.environ.get(var)
        if not spec:
            return None
        plan = cls.from_spec(spec)
        unknown = sorted(set(plan.rules) - FAULT_SITES)
        if unknown:
            raise ValueError(
                f"{var} names unknown fault site(s) {unknown}; "
                f"known sites: {sorted(FAULT_SITES)}"
            )
        return plan

    def fire(self, site: str) -> Optional[str]:
        """The fault kind to apply at ``site`` for this hit, or ``None``."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        in_worker = (
            self.install_pid is not None and os.getpid() != self.install_pid
        )
        if rule.should_fire(in_worker):
            self.fired.append((site, rule.kind, rule._hits))
            return rule.kind
        return None


#: The process-wide active plan.  ``inject`` is the only hot-path consumer:
#: with no plan installed (and the environment already checked) it is one
#: global load and a ``None`` comparison.
_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def _ensure_env_plan() -> None:
    """Install the ``REPRO_FAULT_PLAN`` plan once, if the variable is set.

    An invalid plan raises here -- and again at every later fault point,
    since the environment only counts as checked once it parses.
    """
    global _ACTIVE, _ENV_CHECKED
    if _ENV_CHECKED:
        return
    plan = FaultPlan.from_env()
    _ENV_CHECKED = True
    if plan is not None:
        install(plan)


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan and return it."""
    global _ACTIVE, _ENV_CHECKED
    plan.install_pid = os.getpid()
    _ACTIVE = plan
    _ENV_CHECKED = True
    return plan


def clear() -> None:
    """Deactivate fault injection (the ambient env plan stays retired)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = True


def active_plan() -> Optional[FaultPlan]:
    """The installed plan (the environment's, if none was installed), or ``None``."""
    _ensure_env_plan()
    return _ACTIVE


@contextmanager
def fault_plan(plan: Optional[FaultPlan]):
    """Temporarily install ``plan`` (``None`` = suppress all injection)."""
    global _ACTIVE
    _ensure_env_plan()
    previous = _ACTIVE
    if plan is not None:
        install(plan)
    else:
        clear()
    try:
        yield plan
    finally:
        _ACTIVE = previous


def inject(site: str) -> Optional[str]:
    """Fault point: the kind to mis-behave with at ``site``, or ``None``.

    Production call sites interpret the returned kind (documented per site
    in ``RESILIENCE.md``): e.g. the cache maps ``"corrupt"`` to an
    unparseable value and ``"io"`` to an ``OSError``.  Disabled, this is a
    no-op costing one global load -- fault points therefore sit at seam
    granularity (per cache access, per kernel attempt, per pool task),
    never inside inner loops.
    """
    plan = _ACTIVE
    if plan is None:
        if _ENV_CHECKED:
            return None
        _ensure_env_plan()
        plan = _ACTIVE
        if plan is None:
            return None
    return plan.fire(site)


# ---------------------------------------------------------------------------
# Structured recovery events
# ---------------------------------------------------------------------------


def record_event(
    events: Optional[List[Dict[str, Any]]],
    kind: str,
    site: Optional[str] = None,
    **detail: Any,
) -> None:
    """Append a structured recovery event to ``events`` (``None`` = drop).

    Events are plain JSON-able dicts ``{"event": kind, "site": site,
    ...detail}``; the taxonomy lives in ``RESILIENCE.md``.

    Every recorded event is also forwarded to the observability trace
    (:func:`repro.obs.trace.emit_event`, a no-op unless ``REPRO_TRACE`` /
    a tracer is active), so ``PaRResult.events`` and the span timeline
    share one sink and recovery actions show up *inside* the phase that
    triggered them.
    """
    if events is None:
        return
    record: Dict[str, Any] = {"event": kind}
    if site is not None:
        record["site"] = site
    record.update(detail)
    events.append(record)
    emit_event(kind, record)


def count_events(
    events: Optional[List[Dict[str, Any]]], kind: Optional[str] = None
) -> int:
    """Number of recorded events, optionally of one kind."""
    if not events:
        return 0
    if kind is None:
        return len(events)
    return sum(1 for e in events if e.get("event") == kind)
