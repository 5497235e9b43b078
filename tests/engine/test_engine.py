"""Tests for the parallel synthesis engine.

The two contracts that matter: (1) routing JANUS through the engine —
pool or no pool — produces byte-identical lattices to the serial path,
and (2) a warm cache answers every probe, so a repeat run performs zero
SAT solver calls.
"""

from __future__ import annotations

import json

import pytest

from repro.boolf.parse import parse_sop
from repro.core.janus import JanusOptions, make_spec, synthesize
from repro.core.target import TargetSpec
from repro.engine import ParallelEngine, ResultCache, lm_cache_key
from repro.engine.signature import options_fingerprint, spec_fingerprint
from repro.engine.suite import suite_cache_key

EXPRESSIONS = [
    "ab + a'b'c",
    "cd + c'd' + abe",
    "ab + cd",
    "abc + a'd + b'c'd'",
]


@pytest.fixture
def opts() -> JanusOptions:
    # No wall-clock limit: probes must be deterministic for the
    # byte-identity assertions below.
    return JanusOptions(max_conflicts=20_000)


def attempt_trace(result):
    return [(a.rows, a.cols, a.status) for a in result.attempts]


class TestSignature:
    def test_names_are_cosmetic(self, opts):
        tt = parse_sop("ab + a'c").to_truthtable()
        plain = TargetSpec.from_truthtable(tt, name="x")
        named = TargetSpec.from_truthtable(tt, name="y", names=["p", "q", "r"])
        assert spec_fingerprint(plain) == spec_fingerprint(named)
        assert lm_cache_key(plain, 3, 2, opts) == lm_cache_key(named, 3, 2, opts)

    def test_function_shape_and_options_fragment_the_key(self, opts):
        spec = make_spec("ab + a'c")
        other = make_spec("ab + cd")
        assert lm_cache_key(spec, 3, 2, opts) != lm_cache_key(other, 3, 2, opts)
        assert lm_cache_key(spec, 3, 2, opts) != lm_cache_key(spec, 2, 3, opts)
        tighter = JanusOptions(max_conflicts=5)
        assert lm_cache_key(spec, 3, 2, opts) != lm_cache_key(spec, 3, 2, tighter)

    def test_fingerprint_is_json_stable(self, opts):
        fp = options_fingerprint(opts)
        assert json.dumps(fp, sort_keys=True)  # no unserializable leftovers


# Keys written by earlier releases must keep matching: these strings are
# pinned, not recomputed.  ``lm_time_limit=5`` and ``5.0`` are equal
# options that render differently in the key JSON, so they key apart.
PINNED_KEYS = {
    "default": (
        JanusOptions(),
        "2c0e9ef8879c3717f93ca2cbe4a368b4d06f935b20f45dfcf9e32955709aa767",
        "6dc35c84eedd471c6524425275254d1f51981a1bc66c366edff4b6100cb3c758",
    ),
    "int-limit": (
        JanusOptions(lm_time_limit=5),
        "918fdc15398fc32b936fef6f26715db88447390be58cd0354670f9746d4e2664",
        "43dde87c7e86ddecd68ae05e8a6d4656d6ab2f2509b5143ec4aecc6a32cb77b3",
    ),
    "float-limit": (
        JanusOptions(lm_time_limit=5.0),
        "7cc277533cae01ad7bb684663e67e72074d81a3db54efe46eb19071e473ff759",
        "d2b8f0cba5990e037545b5e808676560a9d242b23af6c96a183e07ac5fa83c4b",
    ),
    "subproblems": (
        JanusOptions().for_subproblems(),
        "21004f9d954f758591dae8b811de98b84d68abf2e0539aa0bc23bfe3e53cb942",
        "c49a1ad2bc47c6f6e919c80b57d69d69700ddfabe1eb83cf3df20b5cb2dcbb4a",
    ),
}


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_keys_are_byte_identical(self, name):
        options, lm_key, suite_key = PINNED_KEYS[name]
        spec = TargetSpec.from_string("cd + c'd' + abe")
        for _ in range(2):  # computed, then answered from the memo
            assert lm_cache_key(spec, 3, 4, options) == lm_key
            assert suite_cache_key(spec, options) == suite_key

    def test_fingerprint_copies_cannot_change_keys(self):
        options, lm_key, suite_key = PINNED_KEYS["default"]
        spec = TargetSpec.from_string("cd + c'd' + abe")
        assert lm_cache_key(spec, 3, 4, options) == lm_key
        fp = options_fingerprint(options)
        fp["max_conflicts"] = 1
        fp["encode"]["row_facts"] = False
        assert options_fingerprint(options) != fp
        assert lm_cache_key(spec, 3, 4, options) == lm_key
        assert suite_cache_key(spec, options) == suite_key


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"status": "unsat"})
        assert cache.get(key)["status"] == "unsat"
        assert key in cache
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get(key) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"status": "sat"})
        path = cache._path(key)
        path.write_text("{ not json")
        assert cache.get(key) is None


class TestParallelIdentity:
    def test_pool_matches_serial(self, opts):
        serial = [synthesize(e, options=opts) for e in EXPRESSIONS]
        with ParallelEngine(jobs=2) as engine:
            parallel = [engine.synthesize(e, options=opts) for e in EXPRESSIONS]
        for s, p in zip(serial, parallel):
            assert p.size == s.size
            assert p.shape == s.shape
            assert p.lower_bound == s.lower_bound
            assert p.assignment.entries == s.assignment.entries
            assert attempt_trace(p) == attempt_trace(s)

    def test_prober_injection_without_pool(self, opts):
        serial = synthesize(EXPRESSIONS[1], options=opts)
        with ParallelEngine(jobs=1) as engine:
            routed = synthesize(EXPRESSIONS[1], options=opts, prober=engine)
        assert routed.assignment.entries == serial.assignment.entries
        assert engine.stats.solver_calls == len(routed.attempts)


class TestWarmCache:
    def test_zero_solver_calls_and_identical_result(self, tmp_path, opts):
        # The module-level driver with the engine as prober throughout:
        # this test pins down the *probe* cache layer, without the suite
        # layer of ParallelEngine.synthesize (see test_suite.py).
        serial = [synthesize(e, options=opts) for e in EXPRESSIONS]
        with ParallelEngine(jobs=1, cache=tmp_path / "cache") as cold:
            cold_runs = [
                synthesize(e, options=opts, prober=cold) for e in EXPRESSIONS
            ]
        assert cold.stats.solver_calls > 0
        assert cold.stats.cache_hits == 0

        with ParallelEngine(jobs=1, cache=tmp_path / "cache") as warm:
            warm_runs = [
                synthesize(e, options=opts, prober=warm) for e in EXPRESSIONS
            ]
        assert warm.stats.solver_calls == 0  # every probe answered from disk
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hits == cold.stats.solver_calls

        for s, c, w in zip(serial, cold_runs, warm_runs):
            assert c.assignment.entries == s.assignment.entries
            assert w.assignment.entries == s.assignment.entries
            assert w.size == s.size and w.lower_bound == s.lower_bound

    def test_cached_attempts_are_flagged(self, tmp_path, opts):
        expr = EXPRESSIONS[1]
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            cold_result = cold.synthesize(expr, options=opts)
        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            warm_result = warm.synthesize(expr, options=opts)
        assert any(not a.cached for a in cold_result.attempts)
        assert all(a.cached for a in warm_result.attempts)

    def test_time_limited_unknowns_are_not_cached(self, tmp_path):
        # With a wall-clock limit in play, an "unknown" outcome is not
        # reproducible and must not be persisted.
        starved = JanusOptions(max_conflicts=1, lm_time_limit=30.0)
        spec = make_spec("cd + c'd' + abe")
        with ParallelEngine(jobs=1, cache=tmp_path) as engine:
            outcome = engine.solve(spec, 3, 4, starved)
            if outcome.status == "unknown":
                key = lm_cache_key(spec, 3, 4, starved)
                assert engine.cache.get(key) is None


class TestRunnerSharding:
    def test_sharded_rows_match_serial(self, opts):
        from repro.bench.runner import run_table2

        names = ["b12_03", "c17_01"]
        serial = run_table2(names, ("janus",), opts)
        sharded = run_table2(names, ("janus",), opts, jobs=2)
        assert [r.name for r in sharded] == names
        for s, p in zip(serial, sharded):
            assert p.results["janus"].size == s.results["janus"].size
            assert p.results["janus"].shape == s.results["janus"].shape
            assert p.bounds.lb == s.bounds.lb
            assert p.bounds.new_ub == s.bounds.new_ub

    def test_sharded_run_with_shared_cache(self, tmp_path, opts):
        from repro.bench.runner import run_table2

        names = ["b12_03"]
        first = run_table2(names, ("janus",), opts, jobs=2, cache=tmp_path)
        again = run_table2(names, ("janus",), opts, jobs=1, cache=tmp_path)
        assert first[0].results["janus"].size == again[0].results["janus"].size
