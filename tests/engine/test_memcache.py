"""Tests for the in-memory LRU layer above the on-disk result cache."""

import pytest

from repro.core.janus import JanusOptions, make_spec
from repro.engine import CacheEvent, LruCache, ParallelEngine


@pytest.fixture
def opts():
    return JanusOptions(max_conflicts=20_000)


class TestLruCache:
    def test_put_get_and_contains(self):
        lru = LruCache(4)
        lru.put("a", {"v": 1})
        assert lru.get("a") == {"v": 1}
        assert "a" in lru and "b" not in lru
        assert lru.get("b") is None
        assert lru.hits == 1 and lru.misses == 1

    def test_eviction_is_least_recently_used(self):
        lru = LruCache(2)
        lru.put("a", {})
        lru.put("b", {})
        assert lru.get("a") is not None  # refresh "a"
        lru.put("c", {})  # evicts "b", the LRU entry
        assert "a" in lru and "c" in lru and "b" not in lru
        assert lru.evictions == 1

    def test_overwrite_refreshes_without_growth(self):
        lru = LruCache(2)
        lru.put("a", {"v": 1})
        lru.put("a", {"v": 2})
        assert len(lru) == 1
        assert lru.get("a") == {"v": 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestEngineMemoryLayer:
    def test_repeat_probe_served_from_memory(self, tmp_path, opts):
        spec = make_spec("ab + a'b'c")
        with ParallelEngine(jobs=1, cache=tmp_path) as engine:
            first = engine.solve(spec, 3, 2, opts)
            second = engine.solve(spec, 3, 2, opts)
        assert engine.stats.solver_calls == 1
        assert engine.stats.memory_hits == 1
        assert engine.stats.cache_hits == 1
        assert second.status == first.status
        assert second.assignment.entries == first.assignment.entries
        assert second.attempt.cached

    def test_disk_hits_promote_into_memory(self, tmp_path, opts):
        spec = make_spec("ab + a'b'c")
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            cold.solve(spec, 3, 2, opts)
        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            warm.solve(spec, 3, 2, opts)  # disk hit, promoted
            warm.solve(spec, 3, 2, opts)  # memory hit
        assert warm.stats.solver_calls == 0
        assert warm.stats.memory_hits == 1
        assert warm.stats.cache_hits == 2

    def test_no_disk_cache_means_no_memory_layer(self, opts):
        with ParallelEngine(jobs=1) as engine:
            assert engine.memory is None

    def test_memory_cache_events(self, tmp_path, opts):
        events = []
        spec = make_spec("ab + a'b'c")
        with ParallelEngine(jobs=1, cache=tmp_path) as engine:
            engine.events.subscribe(events.append)
            engine.solve(spec, 3, 2, opts)
            engine.solve(spec, 3, 2, opts)
        cache_events = [e for e in events if isinstance(e, CacheEvent)]
        assert ("memory", True) in {(e.layer, e.hit) for e in cache_events}
        assert ("disk", False) in {(e.layer, e.hit) for e in cache_events}

    def test_lru_bound_is_respected(self, tmp_path, opts):
        spec = make_spec("ab + a'b'c")
        with ParallelEngine(jobs=1, cache=tmp_path) as engine:
            engine.memory = LruCache(1)  # a one-entry layer evicts at once
            engine.solve(spec, 3, 2, opts)
            engine.solve(spec, 2, 3, opts)  # evicts the 3x2 payload
            engine.solve(spec, 3, 2, opts)  # must fall through to disk
        assert engine.memory is not None and len(engine.memory) == 1
        assert engine.stats.solver_calls == 2
        assert engine.stats.cache_hits == 1
        assert engine.stats.memory_hits == 0
