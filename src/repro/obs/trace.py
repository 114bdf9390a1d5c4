"""Hierarchical spans with zero-cost disable and Chrome-trace export.

The flow needs per-request latency breakdowns before the PAR-as-a-service
daemon on the ROADMAP can exist, but the hot loops (PathFinder iterations,
annealing sweeps) cannot afford instrumentation overhead when nobody is
looking.  This module therefore copies the proven trick from
:func:`repro.util.resilience.inject`: the process-wide tracer lives in one
module global, and a disabled :func:`span` call is a function call, a global
load and a ``None`` compare returning a shared no-op singleton -- measured
in ``benchmarks/bench_hotpaths.py`` (``kernels.obs``) and bounded in
``tests/test_obs.py``.

Enabled -- programmatically via :func:`install` / :func:`tracing`, or
ambiently via the ``REPRO_TRACE=<path>`` environment variable -- spans form
a flow -> phase -> iteration tree per (process, thread), timestamped with
``time.perf_counter_ns`` (CLOCK_MONOTONIC, shared across forked pool
workers on Linux, so one trace file aligns the whole pool).  Two output
formats, chosen by the path suffix:

* ``*.json`` -- Chrome ``trace_event`` JSON Array Format, loadable directly
  in ``chrome://tracing`` or https://ui.perfetto.dev.  Events are appended
  as ``{...},`` lines after an opening ``[``; the format explicitly
  tolerates a missing ``]`` (crash-safe), and a clean :func:`close` seals
  the file into strictly valid JSON.  Appends are line-buffered single
  ``write`` calls, so forked pool workers can share the file.
* anything else (conventionally ``*.jsonl``) -- richer JSON-lines records
  (``type`` in ``span | event | counter | series``) consumed by
  ``python -m repro.obs.report`` and the tests.

Span records never alter what the instrumented code computes: tracing on
and tracing off must produce bit-identical routes and placements
(``tests/test_obs.py`` asserts this), which is why instrumentation reads
clocks and appends to buffers but never touches RNG streams or FP math.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

__all__ = [
    "Tracer",
    "span",
    "traced",
    "emit_event",
    "emit_counter",
    "emit_series",
    "install",
    "clear",
    "active",
    "tracing",
]

#: Flush the buffer whenever it grows past this many records, even if a
#: span is still open (long flows should not hold hours of events in RAM).
_FLUSH_EVERY = 512


class Tracer:
    """Buffered trace writer shared by every thread (and forked worker).

    One tracer is installed process-wide (:func:`install`); forked children
    inherit it and are detected by pid change, which resets the inherited
    buffer and span stack so each process emits a clean tree into the same
    append-only file.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Create a tracer writing to ``path`` (``*.json`` = Chrome format)."""
        self.path = str(path)
        self.chrome = self.path.endswith(".json")
        self._install_pid = os.getpid()
        self._pid = os.getpid()
        self._buffer: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._closed = False
        # The installing process owns the file: truncate and write the
        # Chrome array opener so every later append (parent or child) is a
        # plain ``O_APPEND`` line write.
        with open(self.path, "w", encoding="utf-8") as fh:
            if self.chrome:
                fh.write("[\n")

    # -- per-thread / per-process state ---------------------------------------

    def _stack(self) -> List["_Span"]:
        if os.getpid() != self._pid:
            # First record after a fork: drop state inherited from the
            # parent (its buffered events were already flushed -- or will
            # be -- by the parent itself; its open spans close over there).
            self._pid = os.getpid()
            self._buffer = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- record sinks ----------------------------------------------------------

    def _push(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._buffer.append(record)
            if len(self._buffer) >= _FLUSH_EVERY:
                self._flush_locked()

    def record_span(
        self,
        name: str,
        start_ns: int,
        dur_ns: int,
        depth: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        """Append one finished span (timestamps in ``perf_counter_ns``)."""
        record: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "ts": start_ns // 1000,
            "dur": max(1, dur_ns // 1000),
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0xFFFFFFFF,
            "depth": depth,
        }
        if args:
            record["args"] = args
        self._push(record)

    def record_event(self, name: str, args: Optional[Dict[str, Any]] = None) -> None:
        """Append an instant event (e.g. a resilience recovery event)."""
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "ts": time.perf_counter_ns() // 1000,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0xFFFFFFFF,
        }
        if args:
            record["args"] = args
        self._push(record)

    def record_counter(self, name: str, value: Union[int, float]) -> None:
        """Append one counter sample."""
        self._push(
            {
                "type": "counter",
                "name": name,
                "ts": time.perf_counter_ns() // 1000,
                "pid": os.getpid(),
                "value": value,
            }
        )

    def record_series(
        self, name: str, values: Sequence[Union[int, float]], **args: Any
    ) -> None:
        """Append a whole convergence array (per-iteration / per-temp)."""
        record: Dict[str, Any] = {
            "type": "series",
            "name": name,
            "ts": time.perf_counter_ns() // 1000,
            "pid": os.getpid(),
            "values": list(values),
        }
        if args:
            record["args"] = args
        self._push(record)

    # -- serialization ---------------------------------------------------------

    def _serialize(self, record: Dict[str, Any]) -> str:
        if not self.chrome:
            return json.dumps(record, separators=(",", ":")) + "\n"
        return json.dumps(_to_chrome(record), separators=(",", ":")) + ",\n"

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        text = "".join(self._serialize(r) for r in self._buffer)
        self._buffer.clear()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(text)

    def flush(self) -> None:
        """Write buffered records to disk (called when a span tree closes)."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush, dump global metric counters, and seal a Chrome trace.

        Sealing appends a final metadata event *without* a trailing comma
        plus the closing ``]``, turning the append-only Chrome file into
        strictly valid JSON.  Only the installing process seals.
        """
        if self._closed:
            return
        from . import metrics as _metrics  # local: avoid package-init cycle

        snap = _metrics.registry().snapshot()
        for cname, cvalue in sorted(snap["counters"].items()):
            self.record_counter(cname, cvalue)
        with self._lock:
            self._flush_locked()
            if self.chrome and os.getpid() == self._install_pid:
                meta = {
                    "name": "process_name",
                    "ph": "M",
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": {"name": "repro"},
                }
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(meta, separators=(",", ":")) + "\n]\n")
            self._closed = True


def _to_chrome(record: Dict[str, Any]) -> Dict[str, Any]:
    """Map one internal record to a Chrome ``trace_event`` object."""
    kind = record["type"]
    if kind == "span":
        out = {
            "name": record["name"],
            "cat": "repro",
            "ph": "X",
            "ts": record["ts"],
            "dur": record["dur"],
            "pid": record["pid"],
            "tid": record["tid"],
        }
        if "args" in record:
            out["args"] = record["args"]
        return out
    if kind == "counter":
        return {
            "name": record["name"],
            "ph": "C",
            "ts": record["ts"],
            "pid": record["pid"],
            "args": {"value": record["value"]},
        }
    # events and series both render as instant events; series carry their
    # values array in args so the data survives the format conversion.
    out = {
        "name": record["name"],
        "cat": "repro",
        "ph": "i",
        "ts": record["ts"],
        "pid": record["pid"],
        "tid": record.get("tid", 0),
        "s": "p",
    }
    args = dict(record.get("args") or {})
    if kind == "series":
        args["values"] = record["values"]
    if args:
        out["args"] = args
    return out


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _Span:
    """A live span: context manager pushed on the per-thread stack."""

    __slots__ = ("_tracer", "_name", "_args", "_t0", "_depth")

    def __init__(self, tracer: Tracer, name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = time.perf_counter_ns()
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        tracer.record_span(self._name, self._t0, t1 - self._t0, self._depth, self._args)
        if not stack:
            # The top-level span of this thread closed: persist the tree so
            # short-lived pool workers never lose their records to a buffer.
            tracer.flush()
        return False


class _NullSpan:
    """Shared no-op returned by :func:`span` when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Process-wide active tracer.  ``span()`` is the hot-path consumer: with no
#: tracer installed (and the environment already checked) it is one global
#: load and a ``None`` comparison returning the shared null span.
_ACTIVE: Optional[Tracer] = None
_ENV_CHECKED = False


def _bootstrap() -> None:
    """Install the ``REPRO_TRACE`` tracer once, if the variable is set.

    Nothing else owns the ambient tracer, so it is closed at interpreter
    exit: the counter snapshot is dumped and a Chrome array is sealed.
    """
    global _ACTIVE, _ENV_CHECKED
    if _ENV_CHECKED:
        return
    _ENV_CHECKED = True
    path = os.environ.get("REPRO_TRACE")
    if path:
        _ACTIVE = Tracer(path)
        atexit.register(_ACTIVE.close)


def span(name: str, **args: Any) -> Union[_Span, _NullSpan]:
    """Open a named span: ``with span("par.route", kernel="astar"): ...``.

    Disabled (no tracer installed, no ``REPRO_TRACE``), this is a single
    global load plus a ``None`` compare returning a shared no-op context
    manager -- cheap enough for per-iteration use inside PathFinder.
    Keyword ``args`` become the span's Chrome-trace ``args`` payload.
    """
    tracer = _ACTIVE
    if tracer is None:
        if _ENV_CHECKED:
            return _NULL_SPAN
        _bootstrap()
        tracer = _ACTIVE
        if tracer is None:
            return _NULL_SPAN
    return _Span(tracer, name, args)


def traced(name: Optional[str] = None, **args: Any) -> Callable:
    """Decorator form of :func:`span`; the span name defaults to the
    function's qualified name and is evaluated per *call*, so decorating at
    import time works whether tracing is enabled before or after import.
    """

    def _decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def _wrapper(*a: Any, **k: Any) -> Any:
            if _ACTIVE is None and _ENV_CHECKED:
                return fn(*a, **k)
            with span(label, **args):
                return fn(*a, **k)

        return _wrapper

    return _decorate


# ---------------------------------------------------------------------------
# Events / counters / series (all no-ops when tracing is disabled)
# ---------------------------------------------------------------------------


def emit_event(name: str, args: Optional[Dict[str, Any]] = None) -> None:
    """Record an instant event on the active tracer (no-op when disabled).

    This is the sink :func:`repro.util.resilience.record_event` forwards
    to, unifying the recovery-event lists with the trace timeline.
    """
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.record_event(name, args)


def emit_counter(name: str, value: Union[int, float]) -> None:
    """Record one counter sample on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.record_counter(name, value)


def emit_series(
    name: str, values: Iterable[Union[int, float]], **args: Any
) -> None:
    """Record a convergence array on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.record_series(name, list(values), **args)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def install(path: Union[str, "os.PathLike[str]"]) -> Tracer:
    """Install a process-wide tracer writing to ``path`` and return it."""
    global _ACTIVE, _ENV_CHECKED
    tracer = Tracer(path)
    _ACTIVE = tracer
    _ENV_CHECKED = True
    return tracer


def clear() -> None:
    """Close and deactivate the tracer (the env tracer stays retired)."""
    global _ACTIVE, _ENV_CHECKED
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None
    _ENV_CHECKED = True


def active() -> Optional[Tracer]:
    """The installed tracer, bootstrapping from ``REPRO_TRACE`` on first use."""
    _bootstrap()
    return _ACTIVE


@contextmanager
def tracing(path: Union[str, "os.PathLike[str]"]):
    """Temporarily trace into ``path``: ``with tracing("run.jsonl"): ...``."""
    global _ACTIVE, _ENV_CHECKED
    _bootstrap()
    previous = _ACTIVE
    tracer = install(path)
    try:
        yield tracer
    finally:
        tracer.close()
        _ACTIVE = previous
