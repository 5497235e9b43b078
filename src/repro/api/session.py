"""Sessions: engine configuration + lifecycle behind the stable API.

A :class:`Session` owns everything stateful about synthesis — the worker
pool, the layered result caches, the event channel — so callers
configure once and submit many requests::

    from repro.api import Session

    with Session(jobs=4, cache="~/.cache/janus") as session:
        response = session.synthesize("ab + a'b'c")
        print(response.shape, response.size)

The process pool and caches are reused across every ``synthesize`` /
``run_batch`` call in the session, which is the point: per-call engine
setup is what the old ad-hoc wiring paid over and over.

Results are **byte-identical to the serial path**: a session is just
configuration around the same search the module-level
:func:`repro.core.janus.synthesize` runs.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.api.backends import (
    REGISTRY,
    BackendContext,
    BackendRegistry,
    resolve_solver_config,
)
from repro.api.schema import (
    BatchRequest,
    BatchResponse,
    RequestOptions,
    SynthesisRequest,
    SynthesisResponse,
    TargetLike,
)
from repro.core.target import TargetSpec
from repro.engine.events import EngineEvent
from repro.engine.parallel import EngineStats, ParallelEngine, resolve_jobs
from repro.sat.solver import SolverConfig

__all__ = ["Session", "synthesize", "run_batch"]


class Session:
    """A configured synthesis service: pluggable backends, shared engine.

    Parameters mirror the engine's knobs: ``jobs`` worker processes
    (0 or None = one per available CPU, see
    :func:`~repro.engine.parallel.resolve_jobs`), ``cache`` for the
    persistent result store (with the in-memory LRU layered on top;
    ``memory`` bounds its entry count), ``npn`` to share whole results
    across NP-equivalent targets.  ``events`` registers a structured
    progress callback (:class:`~repro.engine.events.EngineEvent`
    subclasses); more can be added later with :meth:`subscribe`.

    Sessions are context managers; closing shuts the pool down.  A
    closed session refuses further work.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Union[str, Path, None] = None,
        memory: Optional[int] = None,
        events: Optional[Callable[[EngineEvent], None]] = None,
        registry: Optional[BackendRegistry] = None,
        npn: bool = False,
        solver_configs: Optional[
            dict[str, Union[str, SolverConfig]]
        ] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = str(cache) if cache is not None else None
        self.memory = memory
        self.npn = npn
        # ``solver_configs`` maps backend name -> SolverConfig (or preset
        # name) applied to requests that carry no explicit solver_config
        # of their own.
        self.solver_configs: dict[str, SolverConfig] = {
            backend: resolve_solver_config(value)
            for backend, value in (solver_configs or {}).items()
        }
        self.registry = registry if registry is not None else REGISTRY
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
            engine = ParallelEngine(
                jobs=self.jobs,
                cache=self.cache,
                memory=self.memory,
                npn=self.npn,
            )
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
        service attaches one collector per batch job and detaches it when
        the job completes.
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
        backend = self.registry.get(request.backend)
        # Per-backend session tuning applies only when the request does
        # not pin its own solver_config — explicit request tuning wins.
        session_config = self.solver_configs.get(request.backend)
        if session_config is not None and (
            request.options.solver_config is None
        ):
            request = dataclasses.replace(
                request,
                options=dataclasses.replace(
                    request.options, solver_config=session_config
                ),
            )
        if spec is None:
            spec = request.to_spec()
        context = BackendContext(engine=self.engine)
        before = dataclasses.asdict(self.stats)
        result = backend.run(spec, request.options.to_janus_options(), context)
        return SynthesisResponse.from_result(
            result,
            backend=request.backend,
            stats=self._stats_delta(before),
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
        """Run a batch of requests in order under this session.

        One engine (pool + caches) serves the whole batch; responses come
        back in request order, each with its own per-request stats delta,
        and the batch carries the aggregate.
        """
        self._check_open()
        if not isinstance(batch, BatchRequest):
            batch = BatchRequest(requests=tuple(batch))
        start = time.monotonic()
        before = dataclasses.asdict(self.stats)
        responses = [self._run(request) for request in batch.requests]
        return BatchResponse(
            responses=responses,
            wall_time=time.monotonic() - start,
            stats=self._stats_delta(before),
        )

    def __repr__(self) -> str:
        return (
            f"Session(jobs={self.jobs}, cache={self.cache!r}, "
            f"closed={self._closed})"
        )


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
