"""Job specifications and the worker-side job executor.

A *job* is one complete synthesis -> technology-mapping -> place-and-route
-> bitstream flow, described entirely by JSON-able data so it can cross the
wire, the journal and the process-pool boundary unchanged.  Two derived
content hashes organize the service around it:

* :meth:`JobSpec.job_key` -- the coalescing / result-reuse key.  Like the
  :class:`repro.par.cache.PaRCache` keys it fingerprints every semantic
  input *plus* the kernel algorithm versions, so a kernel change that
  invalidates cached routes also invalidates coalesced result reuse --
  the two tiers can never disagree about what "the same job" means.
* :meth:`JobSpec.class_key` -- the circuit-defining subset only (format,
  topology knobs, mapping flow), used by the circuit breaker: a circuit
  that keeps failing trips the breaker for every seed/width variant of
  itself, not for unrelated work.

The invariant that makes the whole daemon testable lives here too:
:func:`execute_job` (run inside pool workers) and a direct
:func:`~repro.par.flow.place_and_route` call in any other process must
produce **bit-identical results** -- same placement sites, same route
trees, same critical path, same rendered configuration frames -- crashes,
retries and journal replays included.  :func:`result_digest` canonicalizes
exactly those layers into one SHA-256 so the invariant is a string compare
(``tests/test_service.py``, ``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

from ..util.resilience import Deadline, FaultInjected, inject

__all__ = [
    "SERVICE_VERSION",
    "JobSpec",
    "result_digest",
    "execute_job",
    "canonical_dumps",
]

#: Bump when the job payload format, the executor's semantics or the result
#: digest change in a way that makes an old journal/result table
#: meaningless (v2: the digest covers the route-forest arrays and the
#: critical path; v3: ``objective="timing"`` jobs route with the one
#: congestion-only cost, so their journaled digests are stale).  Job keys
#: fold it in, so old entries read as misses.
SERVICE_VERSION = 3


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace.

    This is the one encoding shared by job keys, result digests and the
    journal -- anything that must hash or compare stably across processes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One service job: a PE circuit family member plus its flow knobs.

    ``kind`` names the circuit family; ``"pe"`` (the paper's Processing
    Element, elaborated from :class:`repro.core.pe.ProcessingElementSpec`)
    is the only family today, but the field keeps journals and clients
    forward-compatible with new families.
    """

    # -- circuit-defining fields (fold into class_key) ----------------------
    kind: str = "pe"
    we: int = 5                        #: FloPoCo exponent width
    wf: int = 10                       #: FloPoCo mantissa width
    num_inputs: int = 4
    counter_width: int = 16
    include_intra_connect: bool = True
    include_counter: bool = True
    parameterized: bool = True         #: TCONMAP flow vs conventional LUT map
    # -- flow knobs (fold into job_key only) --------------------------------
    channel_width: int = 12
    placement_effort: float = 0.5
    router_iterations: int = 20
    seed: int = 0
    objective: str = "wirelength"
    #: per-job wall-clock budget override; ``None`` = the daemon's default.
    deadline_s: Optional[float] = None

    _CLASS_FIELDS = (
        "kind", "we", "wf", "num_inputs", "counter_width",
        "include_intra_connect", "include_counter", "parameterized",
    )

    def __post_init__(self) -> None:
        if self.kind != "pe":
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.objective not in ("wirelength", "timing"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.we < 2 or self.wf < 2:
            raise ValueError("degenerate floating-point format")
        if self.channel_width < 2:
            raise ValueError("channel width below the routable minimum")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline must be >= 0")

    # -- wire format --------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Plain JSON-able dict (the journal / protocol representation)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Parse and validate a payload; unknown keys fail loud.

        Silent key-dropping would make a typo'd knob coalesce with the
        default-knob job -- a wrong-result bug, not a convenience.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"job spec must be an object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown job spec field(s): {sorted(unknown)}")
        return cls(**payload)

    # -- content keys -------------------------------------------------------

    def job_key(self) -> str:
        """Coalescing key: full semantic fingerprint + algorithm versions."""
        from ..par.cache import PLACE_ALGO_VERSION, ROUTE_ALGO_VERSION

        material = "|".join(
            (
                f"service-v{SERVICE_VERSION}",
                f"route-v{ROUTE_ALGO_VERSION}",
                f"place-v{PLACE_ALGO_VERSION}",
                canonical_dumps(self.to_payload()),
            )
        )
        return "job-" + hashlib.sha256(material.encode()).hexdigest()[:32]

    def class_key(self) -> str:
        """Breaker key: the circuit-defining fields only."""
        payload = self.to_payload()
        material = canonical_dumps({k: payload[k] for k in self._CLASS_FIELDS})
        return "class-" + hashlib.sha256(material.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------

#: Per-worker warm front end: (class_key, parameterized) -> MappedNetwork.
#: Synthesis + technology mapping are deterministic per circuit, so a worker
#: that has seen a job class before skips straight to PAR -- the "near-hit"
#: tier of the mixed workload (same circuit, new seed/width) pays only the
#: physical flow.  Bounded: job classes are few and networks are small.
_NETWORK_MEMO: Dict[str, Any] = {}


def _mapped_network(spec: JobSpec):
    """Synthesize + map the spec's circuit, memoized per worker process."""
    memo_key = spec.class_key()
    network = _NETWORK_MEMO.get(memo_key)
    if network is not None:
        return network

    from ..core.pe import ProcessingElementSpec, build_pe_design
    from ..flopoco.format import FPFormat
    from ..synth.synthesis import synthesize
    from ..techmap.lutmap import map_conventional
    from ..techmap.tconmap import map_parameterized

    pe = ProcessingElementSpec(
        fmt=FPFormat(we=spec.we, wf=spec.wf),
        num_inputs=spec.num_inputs,
        counter_width=spec.counter_width,
        include_intra_connect=spec.include_intra_connect,
        include_counter=spec.include_counter,
    )
    circuit = build_pe_design(pe).circuit
    synth = synthesize(circuit)
    network = (
        map_parameterized(synth.circuit)
        if spec.parameterized
        else map_conventional(synth.circuit)
    )
    _NETWORK_MEMO[memo_key] = network
    return network


def result_digest(par) -> str:
    """SHA-256 over every bit-level layer of one PaR outcome.

    Covers the placement sites, every route-forest array (the exact tree
    each net grew, not just its node set), the routed critical path and
    the rendered configuration frame image.  Two results with equal
    digests are bit-identical at every layer the service promises.
    """
    import numpy as np

    from ..par.forest import FOREST_ARRAYS
    from ..reconfig.context import render_context_bitstream

    image = render_context_bitstream(par).frame_image()
    placement = par.placement.placement
    forest = par.routing.forest
    routes = hashlib.sha256()
    for name in FOREST_ARRAYS:
        routes.update(np.ascontiguousarray(getattr(forest, name), dtype="<i4").tobytes())
    material = {
        "sites": {
            str(bid): [s.x, s.y, s.kind, s.subtile]
            for bid, s in sorted(placement.block_site.items())
        },
        "routes": routes.hexdigest(),
        "critical_path_ns": float(par.timing.critical_path_ns).hex(),
        "frames": {str(fid): hex(val) for fid, val in sorted(image.items())},
        "wirelength": par.wirelength,
    }
    return hashlib.sha256(canonical_dumps(material).encode()).hexdigest()


def execute_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to completion; the pool worker entry point.

    Deterministic for a fixed payload: seeds are explicit, kernels are
    bit-identical across backends, and the warm-network memo caches a
    deterministic front end -- so a retried, crashed-and-resubmitted or
    journal-replayed job returns the same digest as a fresh direct call.

    The ``service.exec`` fault point sits here (kinds: ``crash`` -- hard
    worker death the parent sees as ``BrokenProcessPool`` -- and ``error``,
    a :class:`FaultInjected` the supervisor retries).  Raises
    ``RuntimeError`` when the design does not route at the requested width;
    that is a *job* failure (the breaker's food), never a worker failure.
    """
    from ..obs.trace import span
    from ..par.flow import place_and_route

    fault = inject("service.exec")
    if fault == "crash":
        # Simulated hard worker death: kills the process without unwinding,
        # which the parent sees as a BrokenProcessPool.
        os._exit(13)
    if fault is not None:
        raise FaultInjected("service.exec", kind=fault)

    spec = JobSpec.from_payload(payload)
    deadline = Deadline(spec.deadline_s)
    with span("service.exec", key=spec.job_key()):
        network = _mapped_network(spec)
        deadline.check("service front end")
        remaining = deadline.remaining()
        par = place_and_route(
            network,
            channel_width=spec.channel_width,
            placement_effort=spec.placement_effort,
            router_iterations=spec.router_iterations,
            seed=spec.seed,
            objective=spec.objective,
            route_deadline_s=None if remaining == float("inf") else remaining,
        )
        if not par.routing.success:
            raise RuntimeError(
                f"design does not route at W={spec.channel_width} "
                f"(seed {spec.seed})"
            )
        digest = result_digest(par)

    summary = par.summary()
    return {
        "job_key": spec.job_key(),
        "digest": digest,
        "wirelength": int(par.wirelength),
        "critical_path_ns": float(par.timing.critical_path_ns),
        "logic_depth": int(par.logic_depth),
        "channel_width": int(par.device.arch.channel_width),
        "array_side": int(par.device.arch.width),
        "routed": bool(par.routing.success),
        "objective": par.objective,
        "luts": int(summary["luts"]),
        "tluts": int(summary["tluts"]),
        "tcons": int(summary["tcons"]),
        #: recovery provenance: faults the *flow* absorbed while producing
        #: this (still bit-identical) result -- cache fallbacks, route
        #: retries.  Empty on a fault-free run.
        "events": list(par.events),
        "worker_pid": os.getpid(),
    }
