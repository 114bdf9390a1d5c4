"""In-memory spans recorded around library calls, from outside the library.

The benchmark times each layer by replacing a function at the point where
its caller looks it up (``repro.par.flow.place``, ``daemon.journal.record``,
...) with a wrapper that records one span per call.  The library itself is
never edited: the wrappers call straight through and return the original
result, so traced and untraced runs compute the same outputs.

A span is a plain dict: ``id``, ``name``, ``start``/``end`` (seconds on the
system-wide monotonic clock, so spans from forked pool workers share the
parent's timeline), ``parent`` (the id of the span that caused it),
``request`` (a job or update id shared by the spans of one request),
``pid`` and optional ``counts``.  Parents are tracked with a context
variable, which follows asyncio tasks and threads correctly.

:func:`attribute` turns a span list into per-name self times that add up
to the root span's wall time exactly, also when several requests run at
once (see its docstring).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "attribute"]

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)


class Tracer:
    """Collects spans in memory; installs and removes call wrappers."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record one span around the block; yields the (mutable) record."""
        record = {
            "id": f"{os.getpid()}-{next(self._ids)}",
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": _parent.get(),
            "request": None,
            "pid": os.getpid(),
        }
        token = _parent.set(record["id"])
        try:
            yield record
        finally:
            _parent.reset(token)
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable[[Dict[str, Any], Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` with a span per call; ``on_result(span, result, args,
        kwargs)`` may add ``request``/``counts`` once the call returns."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = await fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(record, result, args, kwargs)
                    return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result, args, kwargs)
                return result

        return wrapper

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by its wrapped version (undone by :meth:`unpatch`)."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def attribute(spans: List[Dict[str, Any]], root_id: str) -> Dict[str, float]:
    """Self seconds per span name inside the root span's window.

    A span's self time is its duration minus the part of it that its child
    spans cover.  When several requests run at once (two service jobs, each
    with its own chain of spans), every instant is split evenly between the
    innermost spans active at that instant, so the self times of all names
    add up to the root's duration exactly; the root's own share is the time
    no wrapped call explains.  Spans whose parent is not in the list hang
    off the root; spans are clipped to the root's window.
    """
    by_id = {s["id"]: s for s in spans}
    root = by_id[root_id]
    lo, hi = root["start"], root["end"]
    parent: Dict[str, str] = {}
    for s in spans:
        if s["id"] == root_id:
            continue
        p = s["parent"]
        parent[s["id"]] = p if p in by_id else root_id

    def depth(sid: str) -> int:
        d = 0
        while sid in parent:
            sid, d = parent[sid], d + 1
        return d

    # At equal times, ends come before starts, parents start before their
    # children, and children end before their parents.
    events = []
    for s in spans:
        start, end = max(s["start"], lo), min(s["end"], hi)
        if end > start or s["id"] == root_id:
            d = depth(s["id"])
            events.append((start, 1, d, s["id"]))
            events.append((end, 0, -d, s["id"]))
    events.sort()

    active: Dict[str, int] = {}  # span id -> number of active children
    out: Dict[str, float] = {}
    last = lo
    for t, kind, _order, sid in events:
        if t > last and active:
            leaves = [a for a, kids in active.items() if kids == 0]
            share = (t - last) / len(leaves)
            for a in leaves:
                name = by_id[a]["name"]
                out[name] = out.get(name, 0.0) + share
        last = max(last, t)
        p = parent.get(sid)
        if kind == 1:
            active[sid] = active.get(sid, 0)
            if p is not None and p in active:
                active[p] += 1
        else:
            if sid in active:
                del active[sid]
            if p is not None and p in active:
                active[p] -= 1
    return out
