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
  wirelength, iterations, route forest) -- never pickled code;
* one JSON file per key, written atomically (tmp file + ``os.replace``), so
  the service's worker processes can share one cache directory and never
  read a torn entry.

The cache is opt-in: pass a :class:`PaRCache` (built over a directory) to
the entry points in :mod:`repro.par.metrics` / :mod:`repro.par.flow`, or set
the ``REPRO_PAR_CACHE`` environment variable to a directory to enable it
globally (``PaRCache.from_env()``).

Invariants:

* **A hit reproduces a fresh compute bit-for-bit.**  Route keys fingerprint
  every semantic input (the placement included) plus ``ROUTE_ALGO_VERSION``;
  service job keys add ``PLACE_ALGO_VERSION``.  Any kernel change that
  alters a trajectory must bump its version so old entries read as misses,
  never as wrong answers.  A route is written only when it converged within
  its key's iteration budget (see :func:`repro.par.flow.cached_route`), so
  a route retried at twice the budget after a fault cannot poison
  fault-free reruns.
* **Artifacts are backend-neutral.**  Values are plain JSON metrics plus
  serialized route forests -- never pickled code, never a record of which
  (native or Python) backend produced them; caches are interchangeable
  across ``REPRO_NATIVE`` settings.
* **The cache can only make runs faster or equal, never incorrect.**
  Reads that fail (missing, truncated, corrupt, injected fault) count as
  misses and recompute; writes are atomic (tmp + ``os.replace``) with
  last-write-wins among concurrent writers; a failed write warns once and
  drops.
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
    "ROUTE_ALGO_VERSION",
    "PLACE_ALGO_VERSION",
]


#: Bump when a routing kernel change makes cached route metrics stale.
#: v4: route values carry the serialized flat route forest (the actual
#: route trees, see :mod:`repro.par.forest`) next to the metrics, so cache
#: hits re-hydrate routes instead of re-routing; metrics-only v3 entries
#: must read as misses.
#: v5: min-CW probes stop early under the routing-failure predictor, so a
#: failed probe's cached ``iterations`` may be smaller, and probe values
#: carry ``aborted``.
#: v6: ``objective="timing"`` routes re-time (and return) the current route
#: trees after every PathFinder iteration; v5 re-timed and stored the
#: first iteration's forest whenever the route took more than one.
#: Min-CW probe values are keyed with ``tag="probe"`` (no bump): an untagged
#: probe entry from before is never read as a probe again, and a flow that
#: finds one under its own key falls back to a fresh route once.
ROUTE_ALGO_VERSION = 6
#: Bump when a placement kernel change moves placements; service job keys
#: (:meth:`repro.service.spec.JobSpec.job_key`) fold it in.
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
    # ``fi1.0fo1.0`` names the fully populated connection blocks; it stays in
    # the string so keys written when the fractions were settable still hit.
    return (
        f"{arch.width}x{arch.height}w{arch.channel_width}l{arch.lut_inputs}"
        f"io{arch.io_capacity}fi1.0fo1.0"
    )


class PaRCache:
    """Content-addressed JSON store for PAR metrics, safe for process pools."""

    #: Directories already warned about for dropped writes (process-wide, so
    #: a pool of caches over one shared directory warns once, not per worker).
    _warned_dirs: set = set()

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
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
        return self.directory / f"{key}.json"

    def get(
        self, key: str, events: Optional[List[Dict[str, Any]]] = None
    ) -> Optional[Dict[str, Any]]:
        """Value stored under ``key``, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses (logged in
        ``stats()`` / ``events``).
        """
        try:
            fault = inject("cache.read")
            if fault == "corrupt":
                raise ValueError(f"injected corrupt cache entry for {key}")
            if fault is not None:
                raise OSError(f"injected cache read fault ({fault}) for {key}")
            try:
                with open(self._path(key), "r", encoding="utf-8") as fh:
                    value = json.load(fh)
            except FileNotFoundError:
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

        Failed writes warn once per directory and count in ``stats()``.
        """
        tmp = None
        try:
            fault = inject("cache.write")
            if fault is not None:
                raise OSError(f"injected cache write fault ({fault}) for {key}")
            # mkstemp + os.replace: concurrent readers never see a torn file.
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            os.replace(tmp, self._path(key))
            return True
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            # The cache is an optimization: a full disk or an unwritable
            # shared directory must never fail the flow that uses it.  The
            # drop is counted, surfaced in stats()/events, and warned about
            # once per directory so a rotted nightly cache is noticed.
            self.dropped_writes += 1
            obs_metrics.add("cache.dropped_writes")
            record_event(events, "cache-write-dropped", site="cache.write",
                         key=key, error=f"{type(exc).__name__}: {exc}")
            dir_key = str(self.directory)
            if dir_key not in PaRCache._warned_dirs:
                PaRCache._warned_dirs.add(dir_key)
                warnings.warn(
                    f"PaRCache dropped a write to {dir_key} ({exc}); further "
                    "drops to this directory are counted in cache.stats() "
                    "but not warned about again",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False

    # -- domain keys ------------------------------------------------------------

    @staticmethod
    def route_key(
        netlist: PhysicalNetlist,
        placement: Placement,
        arch: FPGAArchitecture,
        channel_width: int,
        max_iterations: int,
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
                f"w{channel_width}i{max_iterations}o{objective}{tag}",
            )
        )
        return "route-" + hashlib.sha256(material.encode()).hexdigest()[:32]
