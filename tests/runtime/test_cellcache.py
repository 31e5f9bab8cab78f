"""Tests for the cell cache's envelope format, hit/miss semantics, and
the inter-process write lock."""

import multiprocessing
import pickle
import time

import pytest

from repro.runtime.cellcache import CellCache, cache_key


class TestReadHit:
    def test_miss_on_absent_entry(self, tmp_path):
        cache = CellCache(tmp_path)
        assert cache.read_hit(tmp_path / "nope.pkl") == (False, None)
        assert cache.read_hit(None) == (False, None)

    def test_cached_none_is_a_hit(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("cell", {"x": 1})
        cache.write(path, None)
        assert cache.read_hit(path) == (True, None)
        assert cache.read_hit(cache.path("other", {"x": 1})) == (False, None)

    def test_round_trip_through_envelope(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("cell", {"x": 2})
        cache.write(path, {"answer": 42})
        assert cache.read_hit(path) == (True, {"answer": 42})

    def test_legacy_raw_pickle_reads_as_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("cell", {"x": 3})
        path.write_bytes(pickle.dumps({"pre": "envelope"}))
        assert cache.read_hit(path) == (False, None)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("cell", {"x": 4})
        path.write_bytes(b"definitely not a pickle")
        assert cache.read_hit(path) == (False, None)


def _locked_increment_worker(cache_dir, counter_path, iterations):
    """Read-modify-write a counter file inside the cache's write lock.

    Without real inter-process mutual exclusion the two workers lose
    updates (classic RMW race); with ``fcntl.flock`` doing its job the
    final counter equals the total iteration count.
    """
    cache = CellCache(cache_dir)
    entry = cache.path("contended", {"k": 1})
    for _ in range(iterations):
        with cache.write_lock(entry):
            with open(counter_path) as fh:
                value = int(fh.read())
            time.sleep(0.001)  # widen the race window
            with open(counter_path, "w") as fh:
                fh.write(str(value + 1))


def _hammer_writer(cache_dir, idx, iterations):
    cache = CellCache(cache_dir)
    path = cache.path("hammered", {"k": 2})
    for i in range(iterations):
        cache.write(path, {"writer": idx, "i": i})


class TestWriteLock:
    """Satellite regression test: two processes hammering one key."""

    def test_two_processes_serialize_on_one_key(self, tmp_path):
        counter = tmp_path / "counter"
        counter.write_text("0")
        iterations = 25
        procs = [
            multiprocessing.Process(
                target=_locked_increment_worker,
                args=(str(tmp_path), str(counter), iterations),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # no lost updates <=> the flock really excludes across processes
        assert counter.read_text() == str(2 * iterations)

    def test_concurrent_writers_never_corrupt_reads(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("hammered", {"k": 2})
        iterations = 50
        procs = [
            multiprocessing.Process(
                target=_hammer_writer, args=(str(tmp_path), idx, iterations)
            )
            for idx in range(2)
        ]
        for p in procs:
            p.start()
        # read continuously while both writers hammer the same entry:
        # every read must be a miss (not yet published) or a well-formed
        # envelope hit -- never an exception, never a torn value
        while any(p.is_alive() for p in procs):
            hit, value = cache.read_hit(path)
            if hit:
                assert set(value) == {"writer", "i"}
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        hit, value = cache.read_hit(path)
        assert hit and value["i"] == iterations - 1
        # the lock file is left behind deliberately (unlink would race)
        assert path.with_name(path.name + ".lock").exists()

    def test_nested_keys_create_parent_directories(self, tmp_path):
        cache = CellCache(tmp_path)
        path = cache.path("cnn@0.75/seed0/Dense", {"k": 3})
        cache.write(path, {"ok": True})
        assert cache.read_hit(path) == (True, {"ok": True})

    def test_traversal_keys_cannot_escape_the_cache_dir(self, tmp_path):
        cache = CellCache(tmp_path / "cells")
        for key in ("../evil", "a/../../evil", "/abs/evil"):
            with pytest.raises(ValueError, match="escapes"):
                cache.path(key, {"k": 1})
        # ".." that stays inside the directory is contained, not an escape
        inside = cache.path("a/../b", {"k": 1})
        assert str(inside).startswith(str(tmp_path / "cells"))


class TestCacheKey:
    def test_key_depends_on_payload(self):
        base = cache_key("cell", {"x": 1})
        assert cache_key("cell", {"x": 1}) == base
        assert cache_key("cell", {"x": 2}) != base
        assert cache_key("other", {"x": 1}) != base
