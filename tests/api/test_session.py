"""Session tests: byte-identity with the serial path, batches, events."""

import dataclasses

import pytest

from repro.api import (
    BatchRequest,
    BoundComputed,
    CacheEvent,
    ProbeFinished,
    RequestOptions,
    Session,
    SynthesisFinished,
    SynthesisRequest,
    SynthesisStarted,
    run_batch,
    synthesize as api_synthesize,
)
from repro.core.baselines import exact_search
from repro.core.janus import JanusOptions, make_spec, synthesize

EXPRESSIONS = ["ab + a'b'c", "cd + c'd' + abe", "ab + cd"]


@pytest.fixture
def opts():
    return RequestOptions(max_conflicts=20_000)


@pytest.fixture
def jopts():
    return JanusOptions(max_conflicts=20_000)


class TestByteIdentity:
    def test_session_matches_serial_path(self, opts, jopts):
        # The acceptance criterion: Session.synthesize is configuration
        # around the same search; lattices are byte-identical.
        serial = [synthesize(e, options=jopts) for e in EXPRESSIONS]
        with Session() as session:
            responses = [
                session.synthesize(e, options=opts) for e in EXPRESSIONS
            ]
        for s, r in zip(serial, responses):
            assert r.size == s.size
            assert r.shape == s.shape
            assert r.lower_bound == s.lower_bound
            assert r.result.assignment.entries == s.assignment.entries
            assert [(a["rows"], a["cols"], a["status"]) for a in r.attempts] \
                == [(a.rows, a.cols, a.status) for a in s.attempts]

    def test_run_batch_matches_serial_path(self, opts, jopts):
        serial = [synthesize(e, options=jopts) for e in EXPRESSIONS]
        batch = BatchRequest(
            requests=tuple(
                SynthesisRequest.from_target(e, options=opts)
                for e in EXPRESSIONS
            )
        )
        with Session() as session:
            response = session.run_batch(batch)
        assert len(response) == len(EXPRESSIONS)
        for s, r in zip(serial, response):
            assert r.result.assignment.entries == s.assignment.entries
            assert r.size == s.size

    def test_prepared_request_and_raw_target_agree(self, opts):
        request = SynthesisRequest.from_target(EXPRESSIONS[0], options=opts)
        with Session() as session:
            a = session.synthesize(request)
            b = session.synthesize(EXPRESSIONS[0], options=opts)
        assert a.entries == b.entries


class TestBackendsThroughSession:
    def test_exact_backend_matches_direct_call(self, opts, jopts):
        spec = make_spec("ab + a'c + bc'")
        direct = exact_search(spec, options=jopts)
        with Session() as session:
            response = session.synthesize(spec, backend="exact", options=opts)
        assert response.backend == "exact"
        assert response.size == direct.size
        assert response.result.assignment.entries == direct.assignment.entries

    def test_cegar_backend_realizes_the_target(self, opts):
        spec = make_spec(EXPRESSIONS[0])
        with Session() as session:
            response = session.synthesize(spec, backend="cegar", options=opts)
        assert response.method == "cegar"
        assert spec.accepts(
            response.result.assignment.realized_truthtable()
        )


class TestLifecycle:
    def test_closed_session_refuses_work(self, opts):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError):
            session.synthesize("ab", options=opts)

    def test_engine_is_reused_across_calls(self, opts):
        with Session() as session:
            session.synthesize(EXPRESSIONS[0], options=opts)
            engine = session._engine
            session.synthesize(EXPRESSIONS[2], options=opts)
            assert session._engine is engine

    def test_one_shot_helpers(self, opts):
        response = api_synthesize(EXPRESSIONS[0], options=opts)
        assert response.size >= 1
        batch = run_batch(
            [SynthesisRequest.from_target(EXPRESSIONS[2], options=opts)]
        )
        assert len(batch) == 1


class TestEventsAndStats:
    def test_event_channel_reports_search_progress(self, opts):
        events = []
        with Session(events=events.append) as session:
            response = session.synthesize(EXPRESSIONS[1], options=opts)
        assert any(isinstance(e, SynthesisStarted) for e in events)
        finished = [e for e in events if isinstance(e, SynthesisFinished)]
        assert len(finished) == 1
        assert finished[0].size == response.size
        probes = [e for e in events if isinstance(e, ProbeFinished)]
        assert len(probes) == len(response.attempts)
        assert any(isinstance(e, BoundComputed) for e in events)

    def test_subscribe_adds_callbacks_late(self, opts):
        events = []
        with Session() as session:
            session.synthesize(EXPRESSIONS[0], options=opts)
            session.subscribe(events.append)
            session.synthesize(EXPRESSIONS[2], options=opts)
        assert any(isinstance(e, SynthesisFinished) for e in events)

    def test_per_request_stats_deltas(self, opts):
        with Session() as session:
            r1 = session.synthesize(EXPRESSIONS[1], options=opts)
            r2 = session.synthesize(EXPRESSIONS[1], options=opts)
        # No cache configured: both runs do the same fresh work, and the
        # delta is per-request, not cumulative.
        assert r1.stats["solver_calls"] == r2.stats["solver_calls"]
        assert r1.stats["solver_calls"] == len(r1.attempts)

    def test_suite_cache_warm_run_through_session(self, tmp_path, opts):
        with Session(cache=tmp_path) as session:
            cold = session.synthesize(EXPRESSIONS[1], options=opts)
        with Session(cache=tmp_path) as session:
            warm = session.synthesize(EXPRESSIONS[1], options=opts)
        assert warm.entries == cold.entries
        assert warm.stats["solver_calls"] == 0
        assert warm.stats["bound_calls"] == 0
        assert warm.stats["suite_hits"] == 1

    def test_cache_events_emitted(self, tmp_path, opts):
        events = []
        with Session(cache=tmp_path, events=events.append) as session:
            session.synthesize(EXPRESSIONS[0], options=opts)
        layers = {e.layer for e in events if isinstance(e, CacheEvent)}
        assert "suite" in layers

    def test_session_stats_merge(self, opts):
        with Session() as session:
            session.synthesize(EXPRESSIONS[1], options=opts)
            stats = session.stats
        assert stats.solver_calls > 0
        assert dataclasses.asdict(stats)["solver_calls"] == stats.solver_calls

    def test_closed_session_keeps_its_counters(self, tmp_path, opts):
        session = Session(cache=tmp_path)
        session.synthesize(EXPRESSIONS[1], options=opts)
        before = dataclasses.asdict(session.stats)
        session.close()
        assert before["suite_misses"] == 1
        assert before["solver_calls"] > 0
        assert dataclasses.asdict(session.stats) == before
