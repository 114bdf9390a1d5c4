"""Failure-path tests for the on-disk PAR result cache.

The happy path (hit/miss, key stability) is covered by the cached-route
and minimum-channel-width tests in ``test_par.py``; PaRCache
is on the nightly critical path now, so the ways a cache directory can rot
on a shared CI box get their own coverage:

* corrupt or truncated JSON on disk must read as a miss, never raise,
* concurrent writers to one key must end in a consistent last-write-wins
  state (atomic replace), with no torn file visible to readers,
* unwritable cache directories must fail the write silently (the cache is
  an optimization, not a dependency).
"""

import json
import os
import threading

import pytest

from repro.fpga.architecture import FPGAArchitecture
from repro.obs import metrics as obs_metrics
from repro.par.cache import PaRCache, _arch_fingerprint
from repro.util import FaultPlan, fault_plan


@pytest.fixture
def cache(tmp_path):
    return PaRCache(tmp_path / "par-cache")


class TestCorruptEntries:
    def test_corrupt_json_reads_as_miss(self, cache):
        cache.put("k", {"value": 1})
        cache._path("k").write_text("{not json at all")
        assert cache.get("k") is None
        assert cache.misses == 1

    def test_truncated_file_reads_as_miss(self, cache):
        cache.put("k", {"value": list(range(100))})
        path = cache._path("k")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get("k") is None

    def test_empty_file_reads_as_miss(self, cache):
        cache._path("k").write_bytes(b"")
        assert cache.get("k") is None

    def test_missing_file_reads_as_miss(self, cache):
        assert cache.get("nope") is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_corrupt_entry_can_be_overwritten(self, cache):
        cache._path("k").write_text("garbage")
        assert cache.get("k") is None
        cache.put("k", {"value": 2})
        assert cache.get("k") == {"value": 2}

    def test_no_tmp_files_left_behind(self, cache):
        for i in range(5):
            cache.put(f"k{i}", {"i": i})
        leftovers = list(cache.directory.glob("*.tmp"))
        assert leftovers == []


class TestConcurrentWriters:
    def test_concurrent_writers_last_write_wins(self, cache):
        """Racing writers must leave one complete value, never a torn file.

        The payloads are sized so a non-atomic write would be visible as a
        JSON parse error (caught by get() returning None mid-race, which
        the loop asserts never coexists with a final inconsistent state).
        """
        n_writers = 8
        n_rounds = 25
        barrier = threading.Barrier(n_writers)
        payload = {str(i): list(range(200)) for i in range(10)}

        def writer(wid: int) -> None:
            for r in range(n_rounds):
                barrier.wait()
                cache.put("shared", {"writer": wid, "round": r, **payload})

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        final = cache.get("shared")
        assert final is not None, "every writer finished, a value must exist"
        # Last write wins: the surviving value is one writer's final-round
        # payload, complete and internally consistent.
        assert final["round"] == n_rounds - 1
        assert 0 <= final["writer"] < n_writers
        assert final["0"] == list(range(200))
        # The atomic replace leaves no partial temp files behind.
        assert list(cache.directory.glob("*.tmp")) == []

    def test_reader_during_writes_never_sees_torn_json(self, cache):
        stop = threading.Event()
        errors = []

        def reader() -> None:
            while not stop.is_set():
                value = cache.get("shared")
                if value is not None and "sentinel" not in value:
                    errors.append(value)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for i in range(200):
                cache.put("shared", {"sentinel": True, "i": i, "pad": "x" * 2048})
        finally:
            stop.set()
            t.join()
        assert errors == []

    def test_two_caches_one_directory_share_entries(self, tmp_path):
        a = PaRCache(tmp_path / "shared")
        b = PaRCache(tmp_path / "shared")
        a.put("k", {"from": "a"})
        assert b.get("k") == {"from": "a"}
        b.put("k", {"from": "b"})
        assert a.get("k") == {"from": "b"}


class TestUnwritableDirectory:
    def test_put_into_unwritable_directory_is_silent(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("directory permissions are not enforced for root")
        cache = PaRCache(tmp_path / "ro")
        os.chmod(cache.directory, 0o500)
        try:
            cache.put("k", {"value": 1})  # must not raise
            assert cache.get("k") is None
        finally:
            os.chmod(cache.directory, 0o700)

    def test_get_from_deleted_directory_is_miss(self, tmp_path):
        cache = PaRCache(tmp_path / "gone")
        cache.put("k", {"value": 1})
        for child in cache.directory.iterdir():
            child.unlink()
        cache.directory.rmdir()
        assert cache.get("k") is None


class TestKeyHygiene:
    def test_values_round_trip_json_exactly(self, cache):
        value = {"success": True, "wirelength": 12345, "attempts": {"8": False}}
        cache.put("k", value)
        assert cache.get("k") == json.loads(json.dumps(value))

    def test_distinct_keys_do_not_collide(self, cache):
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}
        assert cache.get("b") == {"v": 2}

    def test_arch_fingerprint_is_pinned(self):
        """Keys written when the connection-block fractions were settable
        (always 1.0) embed ``fi1.0fo1.0``; the string keeps it so they hit."""
        assert _arch_fingerprint(FPGAArchitecture(width=4, height=3)) == "4x3w10l4io2fi1.0fo1.0"


class TestBackends:
    """The cache stores into one local directory; there is no other tier."""

    def test_local_dir_backend_is_the_default(self, tmp_path):
        cache = PaRCache(str(tmp_path / "c"))
        assert cache.directory == tmp_path / "c" and cache.directory.is_dir()
        cache.put("k", {"v": [1, 2]})
        assert [p.name for p in cache.directory.iterdir()] == ["k.json"]
        assert json.loads((cache.directory / "k.json").read_text()) == {"v": [1, 2]}


class TestStatsObsParity:
    def test_stats_match_metrics_counters(self, tmp_path):
        """``stats()`` and the ``cache.*`` obs counters tell one story.

        Every failure-path tally the cache keeps locally (read_errors,
        dropped_writes) must move the process-wide registry by exactly the
        same amount -- an operator watching ``cache.*`` counters sees what
        ``stats()`` would report, drift-free.
        """
        keys = {
            "hits": "cache.hits",
            "misses": "cache.misses",
            "read_errors": "cache.read_errors",
            "dropped_writes": "cache.dropped_writes",
        }
        counters = obs_metrics.registry().counters
        with fault_plan(None):
            before = {k: counters.get(c, 0) for k, c in keys.items()}
            cache = PaRCache(tmp_path / "c")
            cache.put("a", {"v": 1})
            assert cache.get("a") == {"v": 1}          # hit
            assert cache.get("b") is None              # plain miss
            cache._path("a").write_text("{rot")
            assert cache.get("a") is None              # read error (+ miss)
            with fault_plan(FaultPlan.from_spec("cache.write=io:1")):
                with pytest.warns(RuntimeWarning):
                    cache.put("c", {"v": 2})           # dropped write
            after = {k: counters.get(c, 0) for k, c in keys.items()}
        stats = cache.stats()
        assert stats == {
            "hits": 1, "misses": 2, "read_errors": 1, "dropped_writes": 1,
        }
        assert {k: after[k] - before[k] for k in keys} == stats
