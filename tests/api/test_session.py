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


def _stable(wire: dict) -> dict:
    """A batch response's wire form minus its volatile fields."""
    wire = dict(wire)
    del wire["wall_time"], wire["stats"]
    responses = []
    for item in wire["responses"]:
        item = {k: v for k, v in item.items() if k not in ("wall_time", "stats")}
        item["attempts"] = [
            {k: v for k, v in a.items() if k != "wall_time"}
            for a in item["attempts"]
        ]
        responses.append(item)
    wire["responses"] = responses
    return wire


class TestShardedBatch:
    EXPRESSIONS = EXPRESSIONS + ["a'bc + ab'c + abc'", "ab + bc + ca"]

    def _run(self, jobs, opts, cache=None, count=None):
        batch = BatchRequest(
            requests=tuple(
                SynthesisRequest.from_target(e, name=f"t{i}", options=opts)
                for i, e in enumerate(self.EXPRESSIONS[:count])
            )
        )
        events = []
        with Session(jobs=jobs, cache=cache, events=events.append) as session:
            response = session.run_batch(batch)
            total = session.stats.solver_calls
            started = session.engine._executor is not None
        return response, events, total, started

    def test_sharded_batch_matches_serial_batch(self, opts):
        serial, serial_events, serial_total, _ = self._run(1, opts)
        sharded, sharded_events, sharded_total, _ = self._run(2, opts)
        assert len(sharded) == len(self.EXPRESSIONS) >= 4
        assert _stable(sharded.to_wire()) == _stable(serial.to_wire())
        calls = [
            sum(r.stats["solver_calls"] for r in batch)
            for batch in (serial, sharded)
        ]
        assert calls[0] == calls[1] > 0
        assert sharded.stats["solver_calls"] == calls[1]
        assert sharded_total == serial_total == calls[0]
        # Each request's events arrive as one block, in request order,
        # from SynthesisStarted to SynthesisFinished.
        starts = [
            i for i, e in enumerate(sharded_events)
            if isinstance(e, SynthesisStarted)
        ]
        assert [sharded_events[i].name for i in starts] == [
            f"t{i}" for i in range(len(self.EXPRESSIONS))
        ]
        ends = starts[1:] + [len(sharded_events)]
        for start, end in zip(starts, ends):
            block = sharded_events[start:end]
            assert isinstance(block[-1], SynthesisFinished)
            # Sub-searches (the DS bound's "t1.h") carry derived names.
            name = block[0].name
            assert all(
                e.name == name or e.name.startswith(name + ".") for e in block
            )
        assert [type(e) for e in sharded_events] == [
            type(e) for e in serial_events
        ]

    def test_cached_results_are_answered_here(self, tmp_path, opts):
        # Requests whose whole result the session's caches hold are looked
        # up in this process; only the rest shard, so a warm batch never
        # starts the pool.
        for jobs in (1, 2):
            self._run(jobs, opts, cache=tmp_path / str(jobs), count=3)
        serial, serial_events, _, _ = self._run(1, opts, tmp_path / "1")
        mixed, mixed_events, total, started = self._run(
            2, opts, tmp_path / "2"
        )
        assert started
        assert _stable(mixed.to_wire()) == _stable(serial.to_wire())
        # Hits ran here (live result); misses ran in a worker (wire form).
        here = [r.result is not None for r in mixed]
        assert here == [True, True, True, False, False]
        assert [type(e) for e in mixed_events] == [
            type(e) for e in serial_events
        ]
        assert mixed.stats["suite_hits"] == 3
        assert mixed.stats["suite_misses"] == 2
        assert total == mixed.stats["solver_calls"]
        warm, _, total, started = self._run(2, opts, tmp_path / "2")
        assert not started
        assert total == 0
        assert all(r.result is not None for r in warm)
        assert warm.stats["suite_hits"] == len(self.EXPRESSIONS)


class TestBackendsThroughSession:
    def test_exact_backend_matches_direct_call(self, opts, jopts):
        spec = make_spec("ab + a'c + bc'")
        direct = exact_search(spec, options=jopts)
        with Session() as session:
            response = session.synthesize(spec, backend="exact", options=opts)
        assert response.backend == "exact"
        assert response.size == direct.size
        assert response.result.assignment.entries == direct.assignment.entries


class TestLifecycle:
    def test_closed_session_refuses_work(self, opts):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError):
            session.synthesize("ab", options=opts)

    def test_removed_sharing_keyword_is_a_type_error(self):
        # Cross-target result sharing was removed in 1.19.0; the keyword
        # is spelled as a dict key so a grep for it finds no caller.
        with pytest.raises(TypeError):
            Session(**{"npn": True})

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
