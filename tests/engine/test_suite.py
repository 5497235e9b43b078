"""Tests for engine v2: suite-level result cache, pooled shape racing,
cgroup-aware job defaults, and warm whole-suite runs.

The suite-cache contract: a warm run performs zero SAT solver calls AND
zero upper-bound computations, and its results are byte-identical to a
cold serial run.
"""

from __future__ import annotations

import pytest

from repro.core.janus import JanusOptions, SerialProber, make_spec, synthesize
from repro.engine import ParallelEngine, ProbeStarted, default_jobs
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
        # zero dichotomic batches too.
        assert warm.stats.suite_hits == len(EXPRESSIONS)
        assert warm.stats.solver_calls == 0
        assert warm.stats.bound_calls == 0
        assert warm.stats.batches == 0
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
        with ParallelEngine(jobs=1, cache=tmp_path, suite=False) as warm:
            warm.synthesize(expr, options=opts)
        # Probe layer still answers everything; the suite layer was off.
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


class RecordingProber(SerialProber):
    """The serial driver, logging every shape it is asked to probe."""

    def __init__(self) -> None:
        self.requested: set[tuple[int, int]] = set()

    def first_sat(self, spec, shapes, *args, **kwargs):
        self.requested.update(shapes)
        return super().first_sat(spec, shapes, *args, **kwargs)


class TestPooledRace:
    # A deliberately loose upper bound (DP only) forces a multi-step
    # dichotomic search, so the pool races several steps.
    LOOSE = JanusOptions(max_conflicts=20_000, ub_methods=("dp",))

    def test_byte_identity_with_pooled_race(self):
        expr = "cd + c'd' + abe"
        serial = synthesize(expr, options=self.LOOSE)
        with ParallelEngine(jobs=2) as engine:
            raced = engine.synthesize(expr, options=self.LOOSE)
        assert raced.assignment.entries == serial.assignment.entries
        assert attempt_trace(raced) == attempt_trace(serial)
        assert raced.size == serial.size
        assert raced.lower_bound == serial.lower_bound

    def test_pool_starts_only_requested_probes(self):
        expr = "cd + c'd' + abe"
        recorder = RecordingProber()
        synthesize(expr, options=self.LOOSE, prober=recorder)
        started = []

        def on_event(event):
            if isinstance(event, ProbeStarted):
                started.append((event.rows, event.cols))

        with ParallelEngine(jobs=2, events=on_event) as engine:
            engine.synthesize(expr, options=self.LOOSE)
        assert started
        assert set(started) <= recorder.requested
        assert engine.stats.speculated == engine.stats.speculative_hits == 0

    def test_race_leftovers_feed_the_cache(self, tmp_path):
        expr = "cd + c'd' + abe"
        with ParallelEngine(jobs=2, cache=tmp_path) as engine:
            engine.synthesize(expr, options=self.LOOSE)
        # Race losers that completed anyway are content-addressed and
        # reusable, never wrong.
        assert len(engine.cache) > 0


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
        cold = run_table2(names, ("janus",), opts, jobs=2, cache=tmp_path)
        warm = run_table2(names, ("janus",), opts, jobs=2, cache=tmp_path)
        for c, w in zip(cold, warm):
            assert w.results["janus"].entries == c.results["janus"].entries
            assert w.engine["solver_calls"] == 0
            assert w.engine["bound_calls"] == 0
