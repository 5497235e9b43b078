"""Tests for engine v2: suite-level result cache, a pool-width engine's
serial search, cgroup-aware job defaults, and warm whole-suite runs.

The suite-cache contract: a warm run performs zero SAT solver calls AND
zero upper-bound computations, and its results are byte-identical to a
cold serial run.
"""

from __future__ import annotations

import pytest

from repro.core.janus import JanusOptions, make_spec, synthesize
from repro.engine import ParallelEngine, default_jobs
from repro.engine.suite import suite_cache_key

EXPRESSIONS = [
    "ab + a'b'c",
    "cd + c'd' + abe",
    "ab + cd",
    "abc + a'd + b'c'd'",
]


@pytest.fixture
def opts() -> JanusOptions:
    return JanusOptions(max_conflicts=20_000)


def attempt_trace(result):
    return [(a.rows, a.cols, a.status) for a in result.attempts]


class TestSuiteKey:
    def test_kind_and_mode_namespace_the_key(self, opts):
        spec = make_spec("ab + a'c")
        base = suite_cache_key(spec, opts)
        assert base != suite_cache_key(spec, opts, kind="bounds")
        # The mode is no longer a knob: every probe is the eager encoding.
        with pytest.raises(TypeError):
            suite_cache_key(spec, opts, mode="eager")

    def test_options_fragment_the_key(self, opts):
        spec = make_spec("ab + a'c")
        tighter = JanusOptions(max_conflicts=5)
        assert suite_cache_key(spec, opts) != suite_cache_key(spec, tighter)

    def test_names_are_cosmetic(self, opts):
        from repro.boolf.parse import parse_sop
        from repro.core.target import TargetSpec

        tt = parse_sop("ab + a'c").to_truthtable()
        plain = TargetSpec.from_truthtable(tt, name="x")
        named = TargetSpec.from_truthtable(tt, name="y", names=["p", "q", "r"])
        assert suite_cache_key(plain, opts) == suite_cache_key(named, opts)


class TestSuiteCache:
    def test_warm_run_redoes_no_work(self, tmp_path, opts):
        serial = [synthesize(e, options=opts) for e in EXPRESSIONS]
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            cold_runs = [cold.synthesize(e, options=opts) for e in EXPRESSIONS]
        assert cold.stats.suite_misses == len(EXPRESSIONS)
        assert cold.stats.bound_calls > 0

        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            warm_runs = [warm.synthesize(e, options=opts) for e in EXPRESSIONS]
        # The whole point: not just zero SAT calls — zero bounds work and
        # no dichotomic step either, so not a single probe lookup.
        assert warm.stats.suite_hits == len(EXPRESSIONS)
        assert warm.stats.solver_calls == 0
        assert warm.stats.bound_calls == 0
        assert warm.stats.cache_hits == 0
        assert warm.stats.cache_misses == 0

        for s, c, w in zip(serial, cold_runs, warm_runs):
            assert c.assignment.entries == s.assignment.entries
            assert w.assignment.entries == s.assignment.entries
            assert w.size == s.size
            assert w.lower_bound == s.lower_bound
            assert w.initial_upper_bound == s.initial_upper_bound
            assert w.initial_lower_bound == s.initial_lower_bound
            assert w.upper_bounds == s.upper_bounds
            assert attempt_trace(w) == attempt_trace(s)
            assert all(a.cached for a in w.attempts)

    def test_suite_layer_can_be_disabled(self, tmp_path, opts):
        expr = EXPRESSIONS[1]
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            cold.synthesize(expr, options=opts)
        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            # The module-level driver probes through the engine with the
            # suite layer off: it never consults whole-result entries.
            synthesize(expr, options=opts, prober=warm)
        # Probe layer still answers everything; the suite layer was unused.
        assert warm.stats.suite_hits == 0
        assert warm.stats.solver_calls == 0
        assert warm.stats.cache_hits > 0

    def test_time_limited_unknown_searches_are_not_suite_cached(
        self, tmp_path
    ):
        # A search that treated a wall-clock "unknown" as unrealizable
        # made a machine-dependent decision; freezing it into the suite
        # cache would serve that machine's (possibly suboptimal) lattice
        # to every later run.  Same policy as the probe cache.
        starved = JanusOptions(
            max_conflicts=1, lm_time_limit=30.0, ub_methods=("dp",)
        )
        expr = "cd + c'd' + abe"
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            result = cold.synthesize(expr, options=starved)
        if any(a.status == "unknown" for a in result.attempts):
            with ParallelEngine(jobs=1, cache=tmp_path) as warm:
                warm.synthesize(expr, options=starved)
            assert warm.stats.suite_hits == 0

    def test_deterministic_unknowns_are_suite_cached(self, tmp_path):
        # Without a wall clock, a conflict-budget "unknown" is
        # reproducible and the whole result stays cacheable.
        starved = JanusOptions(max_conflicts=1, ub_methods=("dp",))
        expr = "cd + c'd' + abe"
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            cold.synthesize(expr, options=starved)
        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            warm.synthesize(expr, options=starved)
        assert warm.stats.suite_hits == 1
        assert warm.stats.solver_calls == 0

    def test_corrupt_suite_entry_is_recomputed(self, tmp_path, opts):
        expr = EXPRESSIONS[0]
        with ParallelEngine(jobs=1, cache=tmp_path) as cold:
            baseline = cold.synthesize(expr, options=opts)
        spec = make_spec(expr)
        key = suite_cache_key(spec, opts)
        cold.cache._path(key).write_text('{"format":1,"kind":"synthesis"}')
        with ParallelEngine(jobs=1, cache=tmp_path) as warm:
            again = warm.synthesize(expr, options=opts)
        assert warm.stats.suite_hits == 0
        assert again.assignment.entries == baseline.assignment.entries


class TestPooledRace:
    # A deliberately loose upper bound (DP only) forces a multi-step
    # dichotomic search; a pool-width engine must still decide every
    # step exactly as the serial prober does.
    LOOSE = JanusOptions(max_conflicts=20_000, ub_methods=("dp",))

    def test_byte_identity_with_pooled_race(self):
        expr = "cd + c'd' + abe"
        serial = synthesize(expr, options=self.LOOSE)
        with ParallelEngine(jobs=2) as engine:
            pooled = engine.synthesize(expr, options=self.LOOSE)
        assert pooled.assignment.entries == serial.assignment.entries
        assert attempt_trace(pooled) == attempt_trace(serial)
        assert pooled.size == serial.size
        assert pooled.lower_bound == serial.lower_bound


class TestDefaultJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        import repro.engine.parallel as parallel

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        assert default_jobs() == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import repro.engine.parallel as parallel

        def unsupported(pid):
            raise AttributeError("sched_getaffinity")

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", unsupported, raising=False
        )
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_at_least_one(self, monkeypatch):
        import repro.engine.parallel as parallel

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: set(), raising=False
        )
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert default_jobs() == 1


def _engine_width(jobs, monkeypatch):
    with ParallelEngine(jobs=jobs) as engine:
        return engine.jobs


def _session_width(jobs, monkeypatch):
    from repro.api.session import Session

    with Session(jobs=jobs) as session:
        return session.jobs


def _pool_width(jobs, monkeypatch):
    from repro.server.pool import SessionPool

    pool = SessionPool(size=1, jobs=jobs)
    pool.close()
    return pool.jobs


def _table2_width(jobs, monkeypatch):
    """The width of the sharding engine run_table2 builds (1 if none)."""
    import repro.bench.runner as runner

    widths = [1]

    class Recording(ParallelEngine):
        def __init__(self, jobs=None, **kwargs):
            super().__init__(jobs=jobs, **kwargs)
            widths.append(self.jobs)

    monkeypatch.setattr(runner, "ParallelEngine", Recording)
    runner.run_table2([], jobs=jobs)
    return widths[-1]


class TestResolveJobs:
    @pytest.mark.parametrize(
        "width",
        [_engine_width, _session_width, _pool_width, _table2_width],
        ids=["engine", "session", "pool", "run_table2"],
    )
    @pytest.mark.parametrize(
        "jobs, expected", [(0, 3), (None, 3), (-2, 1), (1, 1), (2, 2)]
    )
    def test_one_meaning_on_every_surface(
        self, monkeypatch, width, jobs, expected
    ):
        # 0 or None means one worker per available CPU (three here),
        # and a negative count clamps to one, on every surface alike.
        import repro.engine.parallel as parallel

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2},
            raising=False,
        )
        assert width(jobs, monkeypatch) == expected


class TestRunnerSuiteCache:
    def test_warm_table2_redoes_no_work(self, tmp_path, opts):
        from repro.bench.runner import run_table2

        names = ["b12_03", "c17_01"]
        serial = run_table2(names, ("janus",), opts)
        cold = run_table2(names, ("janus",), opts, cache=tmp_path)
        warm = run_table2(names, ("janus",), opts, cache=tmp_path)
        for s, c, w in zip(serial, cold, warm):
            assert c.results["janus"].entries == s.results["janus"].entries
            assert w.results["janus"].entries == s.results["janus"].entries
            assert w.bounds.lb == s.bounds.lb
            assert w.bounds.old_ub == s.bounds.old_ub
            assert w.bounds.new_ub == s.bounds.new_ub
            assert w.bounds.per_method == s.bounds.per_method
            # Zero recomputation: no SAT calls, no bound constructions —
            # both the bounds report and the synthesis came from disk.
            assert w.engine["solver_calls"] == 0
            assert w.engine["bound_calls"] == 0
            assert w.engine["suite_hits"] == 2

    def test_sharded_warm_run_matches(self, tmp_path, opts):
        from repro.bench.runner import run_table2

        names = ["b12_03", "c17_01"]
        serial = run_table2(names, ("janus",), opts)
        cold = run_table2(names, ("janus",), opts, jobs=2, cache=tmp_path)
        warm = run_table2(names, ("janus",), opts, jobs=2, cache=tmp_path)

        def lattice(row):
            janus = row.results["janus"]
            return janus.size, janus.shape, janus.entries

        for s, c, w in zip(serial, cold, warm):
            # Sharded cold and warm runs match the serial run exactly.
            assert lattice(c) == lattice(s)
            assert lattice(w) == lattice(s)
            assert w.engine["solver_calls"] == 0
            assert w.engine["bound_calls"] == 0
            assert w.engine["suite_hits"] == 2
