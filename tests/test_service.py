"""PAR-as-a-service suite: job daemon, journal, supervision, bit-identity.

The load-bearing invariant everywhere: a job result produced *through the
service* -- coalesced, retried, crash-recovered or journal-replayed -- is
bit-identical (equal :func:`~repro.service.spec.result_digest`) to a
direct in-process :func:`~repro.service.spec.execute_job` call with the
same spec.  Everything else (backpressure, breaker, journal durability)
is availability machinery that must never bend that invariant.

Like ``tests/test_resilience.py``, every test opts into faults explicitly
(or suppresses them), so the suite is green under the CI chaos job's
ambient ``REPRO_FAULT_PLAN`` too.
"""

import asyncio
import json
import time
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from repro.fpga.architecture import auto_size
from repro.par import (
    ChannelWidthError,
    PaRCache,
    PhysicalNetlist,
    minimum_channel_width,
)
from repro.par.placement import place
from repro.service import (
    CircuitBreaker,
    JobJournal,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceServer,
    canonical_dumps,
    execute_job,
    result_digest,
)
from repro.service import spec as service_spec
from repro.util import FaultPlan, fault_plan


def chain_netlist(n_blocks=6):
    """Synthetic physical netlist: a chain of logic blocks between two IOs."""
    nl = PhysicalNetlist("chain")
    prev = nl.add_block("pi", "io")
    for i in range(n_blocks):
        blk = nl.add_block(f"l{i}", "clb")
        nl.add_net(f"n{i}", prev, [blk])
        prev = blk
    out = nl.add_block("po", "io")
    nl.add_net("out", prev, [out])
    nl.validate()
    return nl


#: The smallest PE that exercises the full flow; one job is well under a
#: second, so daemon tests stay CI-sized.
TINY = dict(
    we=3, wf=4, num_inputs=2, counter_width=4,
    channel_width=12, placement_effort=0.3, router_iterations=20, seed=1,
)


def run(coro):
    return asyncio.run(coro)


def tiny_config(tmp_path, **overrides):
    defaults = dict(
        workers=1, queue_depth=8, deadline_s=60.0,
        retry_attempts=2, retry_backoff_s=0.01,
        breaker_threshold=2, breaker_cooldown_s=0.05,
        journal_dir=tmp_path / "journal",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Each test opts into faults explicitly (CI chaos-job compatible)."""
    with fault_plan(None):
        yield


@pytest.fixture(scope="module")
def direct_tiny():
    """The ground-truth result of the TINY job, computed in-process once."""
    with fault_plan(None):
        return execute_job(JobSpec(**TINY).to_payload())


# ---------------------------------------------------------------------------
# Job specs and content keys
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_payload_round_trip(self):
        spec = JobSpec(**TINY)
        again = JobSpec.from_payload(spec.to_payload())
        assert again == spec
        assert again.job_key() == spec.job_key()

    def test_job_key_covers_flow_knobs(self):
        base = JobSpec(**TINY)
        assert JobSpec(**{**TINY, "seed": 2}).job_key() != base.job_key()
        assert (
            JobSpec(**{**TINY, "channel_width": 14}).job_key()
            != base.job_key()
        )

    def test_class_key_ignores_flow_knobs(self):
        base = JobSpec(**TINY)
        assert JobSpec(**{**TINY, "seed": 2}).class_key() == base.class_key()
        assert (
            JobSpec(**{**TINY, "channel_width": 14}).class_key()
            == base.class_key()
        )
        # ...but tracks circuit-defining fields, including the mapping flow.
        assert (
            JobSpec(**{**TINY, "parameterized": False}).class_key()
            != base.class_key()
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_payload({**TINY, "chanel_width": 10})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(**{**TINY, "objective": "area"})
        with pytest.raises(ValueError):
            JobSpec(**{**TINY, "we": 1})
        with pytest.raises(ValueError):
            JobSpec(**{**TINY, "deadline_s": -1.0})
        with pytest.raises(ValueError, match="must be an object"):
            JobSpec.from_payload(["not", "a", "dict"])


class TestResultDigest:
    def test_digest_covers_tree_shape_not_just_node_sets(self):
        """Two trees over the same per-net node sets digest differently."""
        from repro.par.flow import place_and_route

        spec = JobSpec(**TINY)
        par = place_and_route(
            service_spec._mapped_network(spec),
            channel_width=spec.channel_width,
            placement_effort=spec.placement_effort,
            router_iterations=spec.router_iterations,
            seed=spec.seed,
        )
        forest = par.routing.forest
        parent = forest.parent.copy()
        i = int(np.flatnonzero(parent >= 0)[0])
        parent[i] = -1  # re-hang one subtree off its net's source
        other = replace(par, routing=replace(par.routing, forest=replace(forest, parent=parent)))
        assert np.array_equal(other.routing.forest.node, forest.node)
        assert result_digest(other) != result_digest(par)


# ---------------------------------------------------------------------------
# The journal encoding carries the PAR error/result types faithfully
# ---------------------------------------------------------------------------


class TestJournalEncoding:
    def test_channel_width_error_probes_round_trip(self, monkeypatch):
        """A real failed search's probe history survives the journal encoding.

        JSON objects have string keys, so the int-keyed probe dict comes
        back str-keyed -- the one normalization a journal reader must do.
        """
        import repro.par.metrics as metrics

        monkeypatch.setattr(
            metrics, "route",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("unroutable")),
        )
        nl = chain_netlist(4)
        arch = auto_size(
            nl.num_logic_blocks() + nl.num_ff_blocks(),
            nl.num_io_blocks(), channel_width=4,
        )
        placement = place(nl, arch, seed=0, effort=0.3).placement
        with pytest.raises(ChannelWidthError) as ei:
            minimum_channel_width(nl, placement, arch, low=1, high=4)
        probes = ei.value.probes
        assert probes
        decoded = json.loads(canonical_dumps(probes))
        assert {int(w): p for w, p in decoded.items()} == probes

    def test_min_cw_result_events_round_trip(self, tmp_path):
        """Recovery events ride the same canonical encoding unchanged."""
        nl = chain_netlist(6)
        arch = auto_size(
            nl.num_logic_blocks() + nl.num_ff_blocks(),
            nl.num_io_blocks(), channel_width=8,
        )
        placement = place(nl, arch, seed=0, effort=0.3).placement
        with fault_plan(FaultPlan.from_spec("cache.read=corrupt:1")):
            result = minimum_channel_width(
                nl, placement, arch, cache=PaRCache(tmp_path)
            )
        assert result.events, "injected cache corruption must leave a trail"
        payload = asdict(result)
        decoded = json.loads(canonical_dumps(payload))
        assert decoded["events"] == result.events
        assert decoded["min_channel_width"] == result.min_channel_width


# ---------------------------------------------------------------------------
# Journal: atomic snapshots, replay, corruption absorption
# ---------------------------------------------------------------------------


def entry(job_id, state, seq=1, **extra):
    base = {
        "id": job_id, "key": job_id, "class": "class-x", "spec": dict(TINY),
        "state": state, "attempts": 0, "submitted_ts": 1.0,
        "updated_ts": 2.0, "seq": seq,
    }
    base.update(extra)
    return base


class TestJobJournal:
    def test_record_load_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        snap = entry("j1", "accepted")
        assert journal.record(snap) is True
        assert journal.load("j1") == snap
        assert journal.stats()["writes"] == 1

    def test_replay_classification(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record(entry("a", "accepted", seq=1))
        journal.record(entry("b", "running", seq=2))
        journal.record(entry("c", "completed", seq=3, result={"digest": "x"}))
        journal.record(entry("d", "failed", seq=4, error="boom"))
        replay = journal.replay()
        assert [e["id"] for e in replay["pending"]] == ["a", "b"]
        assert [e["id"] for e in replay["completed"]] == ["c"]
        assert [e["id"] for e in replay["failed"]] == ["d"]

    def test_corrupt_entries_absorbed(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record(entry("ok", "completed", result={"digest": "x"}))
        (tmp_path / "job-torn.json").write_text('{"id": "torn", "sta')
        (tmp_path / "job-alien.json").write_text('["not", "a", "snapshot"]')
        journal.record(entry("weird", "limbo", seq=9))
        events = []
        replay = journal.replay(events=events)
        assert [e["id"] for e in replay["completed"]] == ["ok"]
        assert journal.stats()["corrupt_entries"] == 3
        assert sum(e["event"] == "journal-corrupt-entry" for e in events) == 3

    def test_injected_write_fault_degrades_durability_only(self, tmp_path):
        journal = JobJournal(tmp_path)
        events = []
        with fault_plan(FaultPlan.from_spec("service.journal=io:1")):
            assert journal.record(entry("j1", "accepted"), events=events) is False
            assert journal.record(entry("j1", "running"), events=events) is True
        assert journal.stats()["dropped_writes"] == 1
        assert journal.load("j1")["state"] == "running"
        assert events[0]["event"] == "journal-write-dropped"



# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold_per_class(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        breaker.record_failure("bad")
        assert breaker.allow("bad")
        breaker.record_failure("bad")
        assert not breaker.allow("bad")
        assert breaker.allow("other"), "classes are isolated"
        assert breaker.opens == 1

    def test_success_resets_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        breaker.record_failure("c")
        breaker.record_success("c")
        breaker.record_failure("c")
        assert breaker.allow("c")

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.02)
        breaker.record_failure("c")
        assert not breaker.allow("c")
        time.sleep(0.03)
        assert breaker.allow("c"), "cooled down: one probe admitted"
        assert not breaker.allow("c"), "only one probe until it resolves"
        breaker.record_success("c")
        assert breaker.allow("c")

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.02)
        breaker.record_failure("c")
        time.sleep(0.03)
        assert breaker.allow("c")
        breaker.record_failure("c")
        assert not breaker.allow("c"), "failed probe restarts the cooldown"


# ---------------------------------------------------------------------------
# Daemon: admission, coalescing, backpressure
# ---------------------------------------------------------------------------


class TestDaemonAdmission:
    def test_bad_request_is_structured(self, tmp_path):
        daemon = ServiceDaemon(tiny_config(tmp_path))

        async def scenario():
            bad = await daemon.submit({**TINY, "chanel_width": 10})
            worse = await daemon.submit({**TINY, "objective": "area"})
            return bad, worse

        bad, worse = run(scenario())
        assert bad == {"ok": False, "error": "bad-request",
                       "detail": bad["detail"]}
        assert not worse["ok"] and worse["error"] == "bad-request"
        assert daemon.counts["rejected_bad_request"] == 2

    def test_backpressure_rejects_structured(self, tmp_path):
        # No dispatchers (daemon not started): the queue fills and holds.
        daemon = ServiceDaemon(tiny_config(tmp_path, queue_depth=2))

        async def scenario():
            responses = []
            for seed in range(3):
                responses.append(
                    await daemon.submit({**TINY, "seed": seed})
                )
            return responses

        first, second, third = run(scenario())
        assert first["ok"] and second["ok"]
        assert third == {"ok": False, "error": "overloaded",
                         "queue_depth": 2, "limit": 2}
        assert daemon.counts["rejected_overload"] == 1

    def test_duplicate_submission_coalesces_in_flight(self, tmp_path):
        daemon = ServiceDaemon(tiny_config(tmp_path))

        async def scenario():
            first = await daemon.submit(dict(TINY))
            dup = await daemon.submit(dict(TINY))
            return first, dup

        first, dup = run(scenario())
        assert first["state"] == "accepted"
        assert dup["ok"] and dup["coalesced"] and dup["state"] == "accepted"
        assert dup["job"] == first["job"]
        assert daemon.counts["coalesced"] == 1
        # One queue slot, one journal entry: coalescing is real sharing.
        assert daemon.stats()["queue_depth"] == 1

    def test_journal_written_at_acceptance(self, tmp_path):
        daemon = ServiceDaemon(tiny_config(tmp_path))

        async def scenario():
            return await daemon.submit(dict(TINY))

        response = run(scenario())
        snap = daemon.journal.load(response["job"])
        assert snap["state"] == "accepted"
        assert JobSpec.from_payload(snap["spec"]) == JobSpec(**TINY)


# ---------------------------------------------------------------------------
# Daemon: execution, recovery, replay -- the bit-identity contract
# ---------------------------------------------------------------------------


class TestDaemonExecution:
    def test_end_to_end_bit_identical_and_result_reused(
        self, tmp_path, direct_tiny
    ):
        daemon = ServiceDaemon(tiny_config(tmp_path))

        async def scenario():
            await daemon.start()
            try:
                response = await daemon.submit(dict(TINY))
                assert await daemon.wait(response["job"], timeout=120)
                result = daemon.result(response["job"])
                dup = await daemon.submit(dict(TINY))
                return response, result, dup
            finally:
                await daemon.stop()

        response, result, dup = run(scenario())
        assert result["ok"]
        assert result["result"]["digest"] == direct_tiny["digest"]
        assert result["result"]["wirelength"] == direct_tiny["wirelength"]
        # A duplicate of a finished job is served from the result table.
        assert dup == {"ok": True, "job": response["job"],
                       "state": "completed", "coalesced": True}
        assert daemon.journal.load(response["job"])["state"] == "completed"

    def test_worker_crash_recovers_bit_identical(self, tmp_path, direct_tiny):
        daemon = ServiceDaemon(tiny_config(tmp_path, retry_attempts=3))

        async def scenario():
            await daemon.start()
            try:
                with fault_plan(
                    FaultPlan.from_spec("service.exec=crash:1:@worker")
                ):
                    response = await daemon.submit(dict(TINY))
                    assert await daemon.wait(response["job"], timeout=120)
                return response["job"]
            finally:
                await daemon.stop()

        key = run(scenario())
        status = daemon.status(key)
        assert status["state"] == "completed"
        kinds = [e["event"] for e in status["events"]]
        assert "pool-failure" in kinds
        assert daemon.pool.restarts >= 1
        result = daemon.result(key)["result"]
        assert result["digest"] == direct_tiny["digest"]

    def test_concurrent_crash_recovery_stays_serial_and_bit_identical(
        self, tmp_path, direct_tiny
    ):
        # One pool failure breaks every in-flight future at once, so with
        # two dispatchers BOTH jobs land in the parent fallback together.
        # The fallback must serialize them: execute_job shares process-global
        # caches, and concurrent parent runs used to break bit identity.
        other = {**TINY, "seed": 2}
        with fault_plan(None):
            expected = {
                JobSpec.from_payload(p).job_key(): execute_job(p)["digest"]
                for p in (dict(TINY), other)
            }
        daemon = ServiceDaemon(tiny_config(tmp_path, workers=2,
                                           retry_attempts=3))

        async def scenario():
            await daemon.start()
            try:
                # Every fresh fork re-arms crash:1:@worker (hits reset to 0
                # in the child), so each worker kills its first job and both
                # jobs must finish through the parent path.
                with fault_plan(
                    FaultPlan.from_spec("service.exec=crash:1:@worker")
                ):
                    for payload in (dict(TINY), other):
                        response = await daemon.submit(payload)
                        assert response["ok"], response
                    for key in expected:
                        assert await daemon.wait(key, timeout=240)
            finally:
                await daemon.stop()

        run(scenario())
        assert daemon.pool.restarts >= 1
        for key, digest in expected.items():
            result = daemon.result(key)
            assert result["ok"], result
            assert result["result"]["digest"] == digest

    def test_exhausted_retries_fail_structured(self, tmp_path):
        daemon = ServiceDaemon(
            tiny_config(tmp_path, retry_attempts=2, breaker_threshold=1)
        )

        async def scenario():
            await daemon.start()
            try:
                with fault_plan(FaultPlan.from_spec("service.exec=error:*")):
                    response = await daemon.submit(dict(TINY))
                    assert await daemon.wait(response["job"], timeout=60)
                    spec = response["job"]
                    # Same class (different seed): the breaker now says no.
                    rejected = await daemon.submit({**TINY, "seed": 99})
                return spec, rejected
            finally:
                await daemon.stop()

        key, rejected = run(scenario())
        status = daemon.status(key)
        assert status["state"] == "failed"
        assert "2 attempt(s)" in status["error"]
        assert rejected["ok"] is False
        assert rejected["error"] == "circuit-open"
        assert daemon.counts["rejected_breaker"] == 1
        assert daemon.journal.load(key)["state"] == "failed"

    def test_journal_replay_finishes_accepted_jobs(self, tmp_path, direct_tiny):
        config = tiny_config(tmp_path)
        first_life = ServiceDaemon(config)

        async def accept_only():
            # Simulated crash-before-dispatch: the job is journaled as
            # accepted but no dispatcher ever ran.
            return (await first_life.submit(dict(TINY)))["job"]

        key = run(accept_only())
        assert first_life.journal.load(key)["state"] == "accepted"

        second_life = ServiceDaemon(config)

        async def restart_and_drain():
            replay = await second_life.start()
            try:
                assert replay["pending"] == 1
                assert await second_life.wait(key, timeout=120)
            finally:
                await second_life.stop()

        run(restart_and_drain())
        assert second_life.counts["replayed"] == 1
        result = second_life.result(key)
        assert result["ok"]
        assert result["result"]["digest"] == direct_tiny["digest"]

        # A third life replays the *completed* entry straight into the
        # result table: no recompute, same bits.
        third_life = ServiceDaemon(config)

        async def restart_again():
            replay = await third_life.start()
            try:
                assert replay["completed"] >= 1
                return await third_life.submit(dict(TINY))
            finally:
                await third_life.stop()

        dup = run(restart_again())
        assert dup["state"] == "completed" and dup["coalesced"]
        assert (
            third_life.result(key)["result"]["digest"] == direct_tiny["digest"]
        )

    def test_replayed_older_service_version_result_is_not_served(
        self, tmp_path, direct_tiny
    ):
        """A completed entry keyed under SERVICE_VERSION 1 reads as a miss."""
        config = tiny_config(tmp_path)
        with mock.patch.object(service_spec, "SERVICE_VERSION", 1):
            v1_key = JobSpec(**TINY).job_key()
        JobJournal(config.journal_dir).record(
            entry(v1_key, "completed", result={"digest": "v1", "wirelength": -1})
        )
        daemon = ServiceDaemon(config)

        async def restart_and_submit():
            replay = await daemon.start()
            try:
                assert replay["completed"] == 1
                response = await daemon.submit(dict(TINY))
                assert await daemon.wait(response["job"], timeout=120)
                return response
            finally:
                await daemon.stop()

        response = run(restart_and_submit())
        assert response["job"] != v1_key
        assert response["state"] == "accepted" and "coalesced" not in response
        assert daemon.result(response["job"])["result"]["digest"] == direct_tiny["digest"]

    def test_per_job_deadline_fails_cleanly(self, tmp_path):
        daemon = ServiceDaemon(tiny_config(tmp_path, retry_attempts=2))

        async def scenario():
            await daemon.start()
            try:
                response = await daemon.submit(
                    {**TINY, "deadline_s": 0.0001}
                )
                assert await daemon.wait(response["job"], timeout=60)
                return response["job"]
            finally:
                await daemon.stop()

        key = run(scenario())
        status = daemon.status(key)
        assert status["state"] == "failed"
        assert "DeadlineExceeded" in status["error"]


# ---------------------------------------------------------------------------
# Socket front end
# ---------------------------------------------------------------------------


class TestServiceServer:
    def test_protocol_round_trip(self, tmp_path, direct_tiny):
        async def scenario():
            server = ServiceServer(
                ServiceDaemon(tiny_config(tmp_path)), port=0
            )
            port = await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, self._client_session, port
                )
            finally:
                await server.stop()

        replies = run(scenario())
        assert replies["ping"] == {"ok": True, "pong": True}
        assert replies["submit"]["ok"]
        assert replies["submit"]["result"]["digest"] == direct_tiny["digest"]
        assert replies["status"]["state"] == "completed"
        assert replies["result"]["result"]["digest"] == direct_tiny["digest"]
        assert replies["stats"]["counts"]["completed"] == 1
        assert replies["bad_json"]["error"] == "bad-request"
        assert replies["bad_op"]["error"] == "bad-request"
        assert replies["bad_spec"]["error"] == "bad-request"

    @staticmethod
    def _client_session(port):
        replies = {}
        with ServiceClient(port=port, timeout=120.0) as client:
            replies["ping"] = client.ping()
            replies["submit"] = client.submit(dict(TINY), wait=True, timeout=90)
            job = replies["submit"]["job"]
            replies["status"] = client.status(job)
            replies["result"] = client.result(job)
            replies["stats"] = client.stats()
            replies["bad_json"] = client.request({"op": None})
            replies["bad_op"] = client.request({"op": "frobnicate"})
            replies["bad_spec"] = client.submit({"nope": 1})
        return replies


# ---------------------------------------------------------------------------
# Executor determinism (the ground the service contract stands on)
# ---------------------------------------------------------------------------


class TestExecuteJob:
    def test_repeat_execution_is_bit_identical(self, direct_tiny):
        again = execute_job(JobSpec(**TINY).to_payload())
        assert again["digest"] == direct_tiny["digest"]
        assert again["wirelength"] == direct_tiny["wirelength"]
        assert again["routed"] is True
        assert again["events"] == [], "fault-free runs carry no events"

    def test_digest_tracks_seed(self, direct_tiny):
        other = execute_job(
            JobSpec(**{**TINY, "seed": 2}).to_payload()
        )
        assert other["digest"] != direct_tiny["digest"]
