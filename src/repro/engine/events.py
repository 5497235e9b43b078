"""Structured progress events emitted by the synthesis engine.

The engine used to expose progress only as an :class:`EngineStats`
snapshot read after the fact.  Events turn that into a live channel: a
caller subscribes a callback (``engine.events.subscribe(...)`` on a
:class:`~repro.engine.parallel.ParallelEngine`, or
``repro.api.Session(events=...)``) and receives one frozen dataclass per
occurrence, in emission order, on the calling thread.

Event types:

* :class:`ProbeStarted` / :class:`ProbeFinished` — one LM probe's
  lifecycle.  ``cached=True`` on the finish marks an answer served
  without solving.
* :class:`BoundComputed` — one constructive upper bound (method, shape,
  size).
* :class:`CacheEvent` — one cache lookup: ``layer`` is ``"memory"``
  (the in-process LRU), ``"disk"`` (the persistent
  :class:`~repro.engine.cache.ResultCache`) or ``"suite"`` (whole-result
  records); ``hit`` says whether it answered.
* :class:`SynthesisStarted` / :class:`SynthesisFinished` — one whole
  request on any backend, emitted by the session that runs it
  (``from_cache=True`` when the suite layer answered it).

Callbacks must be cheap and must not raise; a raising callback is
disabled after the first error rather than corrupting the search (a
progress bar bug must never change a synthesis result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "EngineEvent",
    "ProbeStarted",
    "ProbeFinished",
    "BoundComputed",
    "CacheEvent",
    "SynthesisStarted",
    "SynthesisFinished",
    "EventEmitter",
    "EVENT_KINDS",
    "event_to_wire",
    "event_from_wire",
]


@dataclass(frozen=True)
class EngineEvent:
    """Base class for every event on the channel."""

    name: str  # target function's display name


@dataclass(frozen=True)
class ProbeStarted(EngineEvent):
    rows: int
    cols: int


@dataclass(frozen=True)
class ProbeFinished(EngineEvent):
    rows: int
    cols: int
    status: str  # "sat" | "unsat" | "unknown" | "structural" | "skipped"
    conflicts: int = 0
    wall_time: float = 0.0
    cached: bool = False
    side: Optional[str] = None


@dataclass(frozen=True)
class BoundComputed(EngineEvent):
    method: str
    rows: int
    cols: int
    size: int


@dataclass(frozen=True)
class CacheEvent(EngineEvent):
    layer: str  # "memory" | "disk" | "suite"
    hit: bool
    key: str = ""


@dataclass(frozen=True)
class SynthesisStarted(EngineEvent):
    backend: str = "janus"


@dataclass(frozen=True)
class SynthesisFinished(EngineEvent):
    rows: int
    cols: int
    size: int
    wall_time: float
    from_cache: bool = False


class EventEmitter:
    """Fan events out to zero or more callbacks, defensively.

    ``None`` callbacks are ignored at registration.  A callback that
    raises is dropped (with its error noted once) instead of propagating
    into the search loop.
    """

    __slots__ = ("_callbacks",)

    def __init__(
        self, callback: Optional[Callable[[EngineEvent], None]] = None
    ) -> None:
        self._callbacks: list[Callable[[EngineEvent], None]] = []
        if callback is not None:
            self._callbacks.append(callback)

    def subscribe(self, callback: Callable[[EngineEvent], None]) -> None:
        if callback is not None:
            self._callbacks.append(callback)

    def unsubscribe(self, callback: Callable[[EngineEvent], None]) -> None:
        """Remove a previously subscribed callback (no-op if absent).

        Needed by callers that attach a short-lived listener — the HTTP
        server's per-job event collector subscribes for one batch job and
        detaches when the job finishes, so a long-lived engine does not
        accumulate dead callbacks.
        """
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __bool__(self) -> bool:
        return bool(self._callbacks)

    def emit(self, event: EngineEvent) -> None:
        for callback in list(self._callbacks):
            try:
                callback(event)
            # janalyze: allow-broad-except a raising progress callback is
            # disabled and reported; it must never corrupt the search
            except Exception:
                import warnings

                self._callbacks.remove(callback)
                warnings.warn(
                    f"event callback {callback!r} raised and was disabled",
                    RuntimeWarning,
                    stacklevel=2,
                )


# ------------------------------------------------------------------ wire form
#: Wire tag <-> event class.  The tag travels as the ``"event"`` field of
#: the JSON lines a ``?stream=1`` request serves; every other field is
#: the dataclass field of the same name.
EVENT_KINDS: dict[str, type] = {
    "probe_started": ProbeStarted,
    "probe_finished": ProbeFinished,
    "bound_computed": BoundComputed,
    "cache": CacheEvent,
    "synthesis_started": SynthesisStarted,
    "synthesis_finished": SynthesisFinished,
}

_KIND_BY_TYPE = {cls: kind for kind, cls in EVENT_KINDS.items()}


def event_to_wire(event: EngineEvent) -> dict:
    """JSON-safe dict form of an event: ``{"event": tag, ...fields}``.

    Events cross the HTTP job boundary in this form; the tag keys
    :data:`EVENT_KINDS` so a reader can rebuild the dataclass with
    :func:`event_from_wire`.
    """
    import dataclasses

    kind = _KIND_BY_TYPE.get(type(event))
    if kind is None:
        raise TypeError(f"not a wire-serializable event: {event!r}")
    wire = dataclasses.asdict(event)
    wire["event"] = kind
    return wire


def event_from_wire(wire: dict) -> EngineEvent:
    """Rebuild the frozen event dataclass a wire dict describes."""
    cls = EVENT_KINDS.get(wire.get("event"))
    if cls is None:
        raise ValueError(f"unknown event kind {wire.get('event')!r}")
    fields = {k: v for k, v in wire.items() if k != "event"}
    return cls(**fields)
