"""Event wire-form round-trips and emitter/session unsubscription."""

import pytest

from repro.engine.events import (
    EVENT_KINDS,
    BoundComputed,
    CacheEvent,
    EventEmitter,
    ProbeFinished,
    ProbeStarted,
    SynthesisFinished,
    SynthesisStarted,
    event_from_wire,
    event_to_wire,
)

SAMPLES = [
    ProbeStarted("f", 3, 4),
    ProbeFinished("f", 3, 4, "unsat", conflicts=7, wall_time=0.25,
                  cached=True, side="dual"),
    BoundComputed("g", "dps", 5, 2, 10),
    CacheEvent("g", "suite", True, "abc123"),
    SynthesisStarted("h", backend="cegar"),
    SynthesisFinished("h", 3, 2, 6, 1.5, from_cache=True),
]


class TestWireRoundTrip:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: type(e).__name__)
    def test_round_trip_is_exact(self, event):
        wire = event_to_wire(event)
        assert wire["event"] in EVENT_KINDS
        assert wire["name"] == event.name
        assert event_from_wire(wire) == event

    def test_wire_form_is_json_safe(self):
        import json

        for event in SAMPLES:
            json.dumps(event_to_wire(event))

    def test_every_kind_is_covered_by_samples(self):
        assert {type(e) for e in SAMPLES} == set(EVENT_KINDS.values())

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            event_from_wire({"event": "nope", "name": "f"})

    def test_non_event_is_rejected(self):
        with pytest.raises(TypeError):
            event_to_wire("not an event")


class TestUnsubscribe:
    def test_emitter_unsubscribe_stops_delivery(self):
        seen, other = [], []
        emitter = EventEmitter(seen.append)
        emitter.emit(SAMPLES[0])
        emitter.unsubscribe(other.append)  # different callback: noop
        emitter.emit(SAMPLES[1])
        emitter.unsubscribe(seen.append)
        emitter.emit(SAMPLES[2])
        assert seen == [SAMPLES[0], SAMPLES[1]]

    def test_unsubscribe_missing_callback_is_noop(self):
        emitter = EventEmitter()
        emitter.unsubscribe(lambda e: None)  # must not raise

    def test_session_unsubscribe_detaches_from_live_engine(self):
        from repro.api import RequestOptions, Session

        options = RequestOptions(max_conflicts=20_000)
        first, second = [], []
        with Session() as session:
            session.subscribe(first.append)
            session.synthesize("ab + a'b'c", options=options)
            assert first  # channel live
            session.unsubscribe(first.append)
            session.subscribe(second.append)
            session.synthesize("ab + cd", options=options)
        count_after = len(first)
        assert count_after == len(first)  # nothing new arrived
        assert second  # replacement listener did receive the second run
