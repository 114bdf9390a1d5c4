"""On-disk result cache for place-and-route experiments.

The Table I/II evaluations and the reconfiguration benchmarks route the same
(netlist, placement, architecture) triples over and over -- a
`minimum_channel_width` binary search alone routes the design at half a dozen
widths, and every harness re-run repeats all of it.  This module provides a
small content-addressed JSON cache so those results are computed once:

* keys are SHA-256 fingerprints of the *semantic* inputs (block kinds and net
  connectivity, placement sites, architecture parameters, router/placer
  settings, and an algorithm-version tag that must be bumped whenever a
  kernel change invalidates old results);
* values are plain JSON dicts of the metrics the flows need (routing success,
  wirelength, iterations; placement cost and sites) -- never pickled code;
* writes are atomic (tmp file + ``os.replace``), so a cache shared by the
  worker processes of a pool stays consistent.

The cache is opt-in: pass a :class:`PaRCache` (or a directory path) to the
entry points in :mod:`repro.par.metrics` / :mod:`repro.par.flow`, or set the
``REPRO_PAR_CACHE`` environment variable to a directory to enable it
globally (``PaRCache.from_env()``).

Storage is pluggable: :class:`PaRCache` handles keys, accounting and
failure absorption over a :class:`CacheBackend` -- a two-method raw store
(``read``/``write``) with :class:`LocalDirBackend` (the original on-disk
tier) and :class:`MemoryBackend` (in-process, used by the service daemon's
tests and ephemeral tiers) provided here; a remote/sharded tier plugs in
behind the same protocol without touching any caller.

Invariants:

* **A hit reproduces a fresh compute bit-for-bit.**  Keys fingerprint
  every semantic input plus ``ROUTE_ALGO_VERSION`` / ``PLACE_ALGO_VERSION``;
  any kernel change that alters a trajectory must bump its version so old
  entries read as misses, never as wrong answers.  Degraded results
  (kernel fallbacks, see :func:`repro.par.routing.route_resilient`) are
  never written, so one faulty run cannot poison fault-free reruns.
* **Artifacts are backend-neutral.**  Values are plain JSON metrics plus
  serialized route forests -- never pickled code, never a record of which
  (native or Python) backend produced them; caches are interchangeable
  across ``REPRO_NATIVE`` settings.
* **The cache can only make runs faster or equal, never incorrect.**
  Reads that fail (missing, truncated, corrupt, injected fault) count as
  misses and recompute; writes are atomic (tmp + ``os.replace``) with
  last-write-wins among concurrent writers; a failed write warns once and
  drops.  ``strict=True`` turns absorption into :class:`CacheIOError` for
  callers that need to fail loud.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..fpga.architecture import FPGAArchitecture
from ..obs import metrics as obs_metrics
from ..util.resilience import inject, record_event
from .netlist import PhysicalNetlist
from .placement import Placement

__all__ = [
    "PaRCache",
    "CacheIOError",
    "CacheBackend",
    "LocalDirBackend",
    "MemoryBackend",
    "ROUTE_ALGO_VERSION",
    "PLACE_ALGO_VERSION",
]


class CacheIOError(OSError):
    """A cache read/write failed and the cache was opened with ``strict=True``."""

#: Bump when a routing kernel change makes cached route metrics stale.
#: v4: route values carry the serialized flat route forest (the actual
#: route trees, see :mod:`repro.par.forest`) next to the metrics, so cache
#: hits re-hydrate routes instead of re-routing; metrics-only v3 entries
#: must read as misses.
ROUTE_ALGO_VERSION = 4
#: Bump when a placement kernel change makes cached placements stale.
#: v3: ``place()`` and ``place_and_route()`` default to the ``batched``
#: annealer (PCG64 stream) instead of the ``random.Random`` trajectory.
PLACE_ALGO_VERSION = 3


def _netlist_fingerprint(netlist: PhysicalNetlist) -> str:
    h = hashlib.sha256()
    for b in netlist.blocks:
        h.update(f"b{b.id}:{b.kind};".encode())
    for n in netlist.nets:
        h.update(f"n{n.id}:{n.driver}>{','.join(map(str, n.sinks))};".encode())
    return h.hexdigest()[:16]


def _placement_fingerprint(placement: Placement) -> str:
    h = hashlib.sha256()
    for bid in sorted(placement.block_site):
        s = placement.block_site[bid]
        h.update(f"{bid}@{s.x},{s.y},{s.kind},{s.subtile};".encode())
    return h.hexdigest()[:16]


def _arch_fingerprint(arch: FPGAArchitecture) -> str:
    return (
        f"{arch.width}x{arch.height}w{arch.channel_width}l{arch.lut_inputs}"
        f"io{arch.io_capacity}fi{arch.fc_in}fo{arch.fc_out}"
    )


class CacheBackend:
    """Raw key -> JSON-dict store behind :class:`PaRCache`.

    The protocol is deliberately two methods plus a label, so a remote or
    sharded tier is a drop-in: :meth:`read` returns the stored value or
    ``None`` for a *plain* miss (never written) and raises ``OSError`` /
    ``ValueError`` for an entry that exists but cannot be trusted;
    :meth:`write` stores atomically with last-write-wins semantics among
    concurrent writers and raises ``OSError`` on failure.  All accounting,
    fault injection and error absorption stay in :class:`PaRCache` -- a
    backend only moves bytes.
    """

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        """Value stored under ``key``; ``None`` when never written."""
        raise NotImplementedError

    def write(self, key: str, value: Dict[str, Any]) -> None:
        """Atomically store ``value`` under ``key`` (last write wins)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Stable human-readable label (used for warn-once bookkeeping)."""
        return type(self).__name__


class LocalDirBackend(CacheBackend):
    """One JSON file per key in a local directory; atomic temp+rename writes."""

    def __init__(self, directory: Union[str, Path]) -> None:
        """Create (if needed) and wrap ``directory``."""
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        """Parse the entry file; ``None`` if absent, raises if undecodable."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def write(self, key: str, value: Dict[str, Any]) -> None:
        """Write via ``mkstemp`` + ``os.replace`` so pools never see torn files."""
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            os.replace(tmp, self._path(key))
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise

    def describe(self) -> str:
        """The wrapped directory path."""
        return str(self.directory)


class MemoryBackend(CacheBackend):
    """Process-local dict store: ephemeral tiers, backend-protocol tests.

    Values are deep-copied through JSON on both paths so callers cannot
    alias cache state -- the semantics match the on-disk tier exactly.
    """

    def __init__(self) -> None:
        """Create an empty store."""
        self._store: Dict[str, str] = {}

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        """Decode the stored JSON text (``None`` when never written)."""
        text = self._store.get(key)
        return None if text is None else json.loads(text)

    def write(self, key: str, value: Dict[str, Any]) -> None:
        """Store the value as JSON text (atomic by the GIL)."""
        self._store[key] = json.dumps(value)


class PaRCache:
    """Content-addressed JSON store for PAR metrics, safe for process pools."""

    #: Backends already warned about for dropped writes (process-wide, so
    #: a pool of caches over one shared directory warns once, not per worker).
    _warned_dirs: set = set()

    def __init__(
        self,
        directory: Union[str, Path, CacheBackend],
        strict: bool = False,
    ) -> None:
        if isinstance(directory, CacheBackend):
            self.backend = directory
            self.directory = getattr(directory, "directory", None)
        else:
            self.backend = LocalDirBackend(directory)
            self.directory = self.backend.directory
        self.strict = strict
        self.hits = 0
        self.misses = 0
        self.read_errors = 0
        self.dropped_writes = 0

    @classmethod
    def from_env(cls) -> Optional["PaRCache"]:
        """Cache at ``$REPRO_PAR_CACHE`` when set, else ``None`` (disabled)."""
        directory = os.environ.get("REPRO_PAR_CACHE")
        return cls(directory) if directory else None

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits/misses plus the failure-path tallies.

        ``read_errors`` counts entries that existed but could not be decoded
        (corrupt/truncated JSON, permission errors); ``dropped_writes`` counts
        ``put()`` calls that failed and were discarded.  Both are zero on a
        healthy cache directory.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "read_errors": self.read_errors,
            "dropped_writes": self.dropped_writes,
        }

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- generic key/value store ------------------------------------------------

    def _path(self, key: str) -> Path:
        if self.directory is None:
            raise TypeError(f"{self.backend.describe()} backend has no paths")
        return self.directory / f"{key}.json"

    def get(
        self, key: str, events: Optional[List[Dict[str, Any]]] = None
    ) -> Optional[Dict[str, Any]]:
        """Value stored under ``key``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (logged in
        ``stats()`` / ``events``) unless the cache is ``strict``.
        """
        try:
            fault = inject("cache.read")
            if fault == "corrupt":
                raise ValueError(f"injected corrupt cache entry for {key}")
            if fault is not None:
                raise OSError(f"injected cache read fault ({fault}) for {key}")
            value = self.backend.read(key)
            if value is None:
                # A plain miss: the entry was never written.  Not an error.
                self.misses += 1
                obs_metrics.add("cache.misses")
                return None
        except (OSError, ValueError) as exc:
            # The entry exists but cannot be decoded -- a rotted shared
            # directory, a torn write from a non-atomic producer, or an
            # injected fault.  Treat as a miss and recompute.
            self.misses += 1
            self.read_errors += 1
            obs_metrics.merge({"cache.misses": 1, "cache.read_errors": 1})
            record_event(events, "cache-read-error", site="cache.read",
                         key=key, error=f"{type(exc).__name__}: {exc}")
            if self.strict:
                raise CacheIOError(f"cache read failed for {key}: {exc}") from exc
            return None
        self.hits += 1
        obs_metrics.add("cache.hits")
        return value

    def put(
        self,
        key: str,
        value: Dict[str, Any],
        events: Optional[List[Dict[str, Any]]] = None,
    ) -> bool:
        """Atomically store ``value`` under ``key``; ``False`` if dropped.

        Failed writes warn once per directory and count in ``stats()``
        (or raise :class:`CacheIOError` when ``strict``).
        """
        try:
            fault = inject("cache.write")
            if fault is not None:
                raise OSError(f"injected cache write fault ({fault}) for {key}")
            self.backend.write(key, value)
            return True
        except OSError as exc:
            # The cache is an optimization: a full disk or an unwritable
            # shared directory must never fail the flow that uses it.  The
            # drop is counted, surfaced in stats()/events, and warned about
            # once per directory so a rotted nightly cache is noticed.
            self.dropped_writes += 1
            obs_metrics.add("cache.dropped_writes")
            record_event(events, "cache-write-dropped", site="cache.write",
                         key=key, error=f"{type(exc).__name__}: {exc}")
            dir_key = self.backend.describe()
            if dir_key not in PaRCache._warned_dirs:
                PaRCache._warned_dirs.add(dir_key)
                warnings.warn(
                    f"PaRCache dropped a write to {dir_key} ({exc}); further "
                    "drops to this directory are counted in cache.stats() "
                    "but not warned about again",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if self.strict:
                raise CacheIOError(f"cache write failed for {key}: {exc}") from exc
            return False

    # -- domain keys ------------------------------------------------------------

    @staticmethod
    def route_key(
        netlist: PhysicalNetlist,
        placement: Placement,
        arch: FPGAArchitecture,
        channel_width: int,
        max_iterations: int,
        kernel: str,
        objective: str = "wirelength",
        tag: str = "",
    ) -> str:
        """Content key of one route.  ``tag`` folds in extra knobs that
        change the routed result (e.g. the timing objective's criticality
        exponent) without widening the signature for every caller."""
        material = "|".join(
            (
                f"route-v{ROUTE_ALGO_VERSION}",
                _netlist_fingerprint(netlist),
                _placement_fingerprint(placement),
                _arch_fingerprint(arch),
                f"w{channel_width}i{max_iterations}k{kernel}o{objective}{tag}",
            )
        )
        return "route-" + hashlib.sha256(material.encode()).hexdigest()[:32]

    @staticmethod
    def place_key(
        netlist: PhysicalNetlist,
        arch: FPGAArchitecture,
        seed: int,
        effort: float,
        inner_num: float,
        kernel: str,
    ) -> str:
        """Versioned content key of one placement run's semantic inputs."""
        material = "|".join(
            (
                f"place-v{PLACE_ALGO_VERSION}",
                _netlist_fingerprint(netlist),
                _arch_fingerprint(arch),
                f"s{seed}e{effort}n{inner_num}k{kernel}",
            )
        )
        return "place-" + hashlib.sha256(material.encode()).hexdigest()[:32]
