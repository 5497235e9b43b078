"""Sessions: engine configuration + lifecycle behind the stable API.

A :class:`Session` owns everything stateful about synthesis — the
layered result caches, the event channel and, for batches, a process
pool — so callers configure once and submit many requests::

    from repro.api import Session

    with Session(jobs=4, cache="~/.cache/janus") as session:
        response = session.synthesize("ab + a'b'c")
        print(response.shape, response.size)

The engine and caches are reused across every ``synthesize`` /
``run_batch`` call in the session, which is the point: per-call engine
setup is what the old ad-hoc wiring paid over and over.

``jobs`` has one meaning: how many processes the requests of a batch
shard over.  A single synthesis always runs serially in this process.

Results are **byte-identical to the serial path**: a session is just
configuration around the same search the module-level
:func:`repro.core.janus.synthesize` runs.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.api.backends import BackendContext, get_backend, is_builtin
from repro.api.schema import (
    BatchRequest,
    BatchResponse,
    RequestOptions,
    SynthesisRequest,
    SynthesisResponse,
    TargetLike,
)
from repro.core.target import TargetSpec
from repro.engine.events import (
    EngineEvent,
    SynthesisFinished,
    SynthesisStarted,
    event_from_wire,
    event_to_wire,
)
from repro.engine.parallel import EngineStats, ParallelEngine, resolve_jobs
from repro.errors import ReproError

__all__ = ["Session", "synthesize", "run_batch"]


class Session:
    """A configured synthesis service: pluggable backends, shared engine.

    Parameters mirror the engine's knobs: ``jobs`` processes that a
    batch's requests shard over (0 or None = one per available CPU, see
    :func:`~repro.engine.parallel.resolve_jobs`), ``cache`` for the
    persistent result store (with the in-memory LRU layered on top).
    ``events`` registers a structured progress callback
    (:class:`~repro.engine.events.EngineEvent` subclasses); more can be
    added later with :meth:`subscribe`.  Backends resolve by name in the
    default registry (see :func:`~repro.api.backends.register_backend`).

    Sessions are context managers; closing shuts the pool down.  A
    closed session refuses further work.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Union[str, Path, None] = None,
        events: Optional[Callable[[EngineEvent], None]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = str(cache) if cache is not None else None
        self._callbacks: list[Callable[[EngineEvent], None]] = (
            [events] if events is not None else []
        )
        self._engine: Optional[ParallelEngine] = None
        # The counters outlive the engine: a closed session still reports
        # the work it did.
        self._stats = EngineStats()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._stats = self._engine.stats
        self._engine = None
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # --------------------------------------------------------------- engine
    @property
    def engine(self) -> ParallelEngine:
        """The session's engine (created lazily, reused)."""
        self._check_open()
        if self._engine is None:
            engine = ParallelEngine(jobs=self.jobs, cache=self.cache)
            for callback in self._callbacks:
                engine.events.subscribe(callback)
            self._engine = engine
        return self._engine

    def subscribe(self, callback: Callable[[EngineEvent], None]) -> None:
        """Add a progress-event callback; applies to the engine now or
        once the session creates it."""
        self._callbacks.append(callback)
        if self._engine is not None:
            self._engine.events.subscribe(callback)

    def unsubscribe(self, callback: Callable[[EngineEvent], None]) -> None:
        """Detach a progress-event callback from the session and its
        engine (no-op if it was never subscribed).

        Lets a long-lived session serve short-lived listeners — the HTTP
        service subscribes a streamed request's tap and detaches it when
        the request ends.
        """
        if callback in self._callbacks:
            self._callbacks.remove(callback)
        if self._engine is not None:
            self._engine.events.unsubscribe(callback)

    @property
    def stats(self) -> EngineStats:
        """The engine's work accounting (all zero before the first job,
        kept as it stood after :meth:`close`)."""
        if self._engine is None:
            return self._stats
        return self._engine.stats

    def _stats_delta(self, before: dict) -> dict:
        """Stats accumulated since a ``dataclasses.asdict`` snapshot.

        Dict-valued fields (``cores``) delta per key; keys whose delta is
        zero are dropped so a request that solved nothing shows an empty
        tally, not a tally of zeroes.
        """
        after = dataclasses.asdict(self.stats)
        delta: dict = {}
        for k, value in after.items():
            if isinstance(value, dict):
                prior = before.get(k) or {}
                diff = {
                    key: count - prior.get(key, 0)
                    for key, count in value.items()
                    if count - prior.get(key, 0)
                }
                delta[k] = diff
            else:
                delta[k] = value - before.get(k, 0)
        return delta

    # ------------------------------------------------------------ execution
    def _coerce_request(
        self,
        target: Union[SynthesisRequest, TargetLike],
        name: str,
        backend: Optional[str],
        options: Optional[RequestOptions],
    ) -> tuple[SynthesisRequest, Optional[TargetSpec]]:
        """Build the request plus, when the caller handed us a live
        :class:`TargetSpec`, the spec itself (used directly so custom
        covers survive; the wire form canonicalizes to truth tables)."""
        if isinstance(target, SynthesisRequest):
            request = target
            if backend is not None:
                request = request.with_backend(backend)
            return request, None
        request = SynthesisRequest.from_target(
            target,
            name=name,
            backend=backend or "janus",
            options=options or RequestOptions(),
        )
        spec = target if isinstance(target, TargetSpec) else None
        return request, spec

    def _run(
        self, request: SynthesisRequest, spec: Optional[TargetSpec] = None
    ) -> SynthesisResponse:
        """Run one request on its backend, bracketed by the one
        ``SynthesisStarted``/``SynthesisFinished`` pair every backend
        emits (named by the backend's registered name, not an alias)."""
        backend = get_backend(request.backend)
        if spec is None:
            spec = request.to_spec()
        engine = self.engine
        if engine.events:
            engine.events.emit(SynthesisStarted(spec.name, backend.name))
        before = dataclasses.asdict(self.stats)
        result = backend.run(
            spec, request.options.to_janus_options(), BackendContext(engine)
        )
        stats = self._stats_delta(before)
        if engine.events:
            engine.events.emit(
                SynthesisFinished(
                    spec.name,
                    result.rows,
                    result.cols,
                    result.size,
                    result.wall_time,
                    from_cache=stats["suite_hits"] > 0,
                )
            )
        return SynthesisResponse.from_result(
            result, backend=request.backend, stats=stats
        )

    def synthesize(
        self,
        target: Union[SynthesisRequest, TargetLike],
        name: str = "f",
        backend: Optional[str] = None,
        options: Optional[RequestOptions] = None,
    ) -> SynthesisResponse:
        """Run one synthesis job and return its response.

        ``target`` may be a prepared :class:`SynthesisRequest` or any
        raw target form (expression string, :class:`Sop`,
        :class:`TruthTable`, :class:`TargetSpec`); the remaining
        arguments apply only to raw targets.
        """
        self._check_open()
        request, spec = self._coerce_request(target, name, backend, options)
        return self._run(request, spec)

    def run_batch(
        self,
        batch: Union[BatchRequest, Iterable[SynthesisRequest]],
    ) -> BatchResponse:
        """Run a batch of requests under this session.

        Responses come back in request order, each with its own
        per-request stats delta, and the batch carries the aggregate.
        With ``jobs > 1``, :meth:`_run_sharded` spreads whole requests
        over the engine's process pool.
        """
        self._check_open()
        if not isinstance(batch, BatchRequest):
            batch = BatchRequest(requests=tuple(batch))
        start = time.monotonic()
        before = dataclasses.asdict(self.stats)
        if self.jobs > 1:
            responses = self._run_sharded(batch.requests)
        else:
            responses = [self._run(request) for request in batch.requests]
        return BatchResponse(
            responses=responses,
            wall_time=time.monotonic() - start,
            stats=self._stats_delta(before),
        )

    def _placement(
        self, request: SynthesisRequest
    ) -> tuple[bool, Optional[TargetSpec]]:
        """Whether a sharded batch runs this request in this process, and
        the spec built to decide it (for :meth:`_run` to reuse).

        It runs here when its backend is not a built-in one (a worker may
        not know it, and it may not pickle), or when the session's caches
        already hold its whole result (a lookup here is cheaper than a
        round trip).
        """
        if not is_builtin(request.backend):
            return True, None
        cached = getattr(get_backend(request.backend), "cached", None)
        if cached is None or self.cache is None:
            return False, None
        try:
            spec = request.to_spec()
        except ReproError:
            return True, None  # _run raises it in turn, as serially
        here = cached(
            spec,
            request.options.to_janus_options(),
            BackendContext(engine=self.engine),
        )
        return here, spec

    def _run_sharded(
        self, requests: Sequence[SynthesisRequest]
    ) -> list[SynthesisResponse]:
        """Run a batch's requests, the rest of them sharded over the pool
        when at least two are left after :meth:`_placement`.

        Each sharded request goes out as canonical JSON and runs serially
        in a worker over the same cache directory (see
        :func:`_run_shard`); its events are replayed here in request
        order.  Its response is decoded from the wire form, so, like
        :meth:`SynthesisResponse.from_json`, it carries ``result=None``.
        """
        placed = [self._placement(request) for request in requests]
        texts = [
            request.to_json()
            for request, (here, _) in zip(requests, placed)
            if not here
        ]
        if len(texts) < 2:
            return [
                self._run(request, spec)
                for request, (_, spec) in zip(requests, placed)
            ]
        engine = self.engine
        task = functools.partial(_run_shard, cache=self.cache)
        shards = engine.imap_ordered(task, texts)
        responses = []
        for request, (here, spec) in zip(requests, placed):
            if here:
                responses.append(self._run(request, spec))
                continue
            text, events = next(shards)
            if engine.events:
                for wire in events:
                    engine.events.emit(event_from_wire(wire))
            response = SynthesisResponse.from_json(text)
            engine.stats.merge(response.stats or {})
            responses.append(response)
        return responses

    def __repr__(self) -> str:
        return (
            f"Session(jobs={self.jobs}, cache={self.cache!r}, "
            f"closed={self._closed})"
        )


def _run_shard(
    request_json: str,
    cache: Optional[str],
) -> tuple[str, list[dict]]:
    """Batch shard task, run in a pool worker: one request (canonical
    JSON) in a serial session over the shared cache directory.  Returns
    the response JSON and the request's events in wire form."""
    events: list[dict] = []
    with Session(
        jobs=1,
        cache=cache,
        events=lambda event: events.append(event_to_wire(event)),
    ) as session:
        response = session.synthesize(SynthesisRequest.from_json(request_json))
    return response.to_json(), events


# ------------------------------------------------------------- conveniences
def synthesize(
    target: Union[SynthesisRequest, TargetLike],
    name: str = "f",
    backend: Optional[str] = None,
    options: Optional[RequestOptions] = None,
    **session_kwargs,
) -> SynthesisResponse:
    """One-shot facade call: a throwaway serial :class:`Session`."""
    with Session(**session_kwargs) as session:
        return session.synthesize(
            target, name=name, backend=backend, options=options
        )


def run_batch(
    batch: Union[BatchRequest, Iterable[SynthesisRequest]],
    **session_kwargs,
) -> BatchResponse:
    """One-shot batch run in a throwaway :class:`Session`."""
    with Session(**session_kwargs) as session:
        return session.run_batch(batch)
