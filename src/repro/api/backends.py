"""Pluggable synthesis backends behind a common protocol.

A *backend* is one way to turn a :class:`TargetSpec` into a
:class:`SynthesisResult`.  The registry maps stable string names — the
``backend`` field of a :class:`~repro.api.schema.SynthesisRequest` — to
implementations, so frontends select algorithms by name instead of
importing solver internals:

===========  ==============================================================
name         algorithm
===========  ==============================================================
``janus``    the paper's dichotomic search (alias ``eager``); uses the
             session's engine for its result caches when available
``cegar``    the same search with the lazy CEGAR prober per LM instance
``exact``    exact method of Gange et al. [6] (plain encoding, old bounds)
``approx``   approximate method of [6] (single-product path restriction)
``heuristic``  shape heuristic of Morgul & Altun [11]
``pcircuit`` p-circuit-style decomposition baseline [9]
===========  ==============================================================

Custom backends register with :func:`register_backend` (or
``BackendRegistry.register`` on a private registry) and become
addressable from every frontend, the JSON wire format included.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.core.janus import (
    JanusOptions,
    SerialProber,
    SynthesisResult,
    synthesize as _synthesize,
)
from repro.core.target import TargetSpec
from repro.errors import SolverError, UnknownBackendError, ValidationError
from repro.sat.solver import SolverConfig

__all__ = [
    "Backend",
    "BackendContext",
    "BackendRegistry",
    "REGISTRY",
    "register_backend",
    "get_backend",
    "backend_names",
    "resolve_solver_config",
]


def resolve_solver_config(
    value: "str | SolverConfig | None",
) -> SolverConfig:
    """Coerce a preset name or config object to a :class:`SolverConfig`.

    The shared coercion point for every frontend knob (session
    ``solver_configs``, the server's ``?preset=``, the CLI's
    ``--solver-preset``): unknown preset names and wrong types surface as
    :class:`ValidationError`, the API's input-error type.
    """
    if value is None:
        return SolverConfig()
    if isinstance(value, SolverConfig):
        return value
    if isinstance(value, str):
        try:
            return SolverConfig.preset(value)
        except SolverError as exc:
            raise ValidationError(str(exc)) from exc
    raise ValidationError(
        f"solver config must be a SolverConfig or preset name, "
        f"got {type(value).__name__}"
    )


@dataclass
class BackendContext:
    """Execution context a session hands to a backend.

    ``engine`` is the session's :class:`~repro.engine.ParallelEngine`
    (or ``None`` for the bare serial path); backends that can exploit
    the result caches route their search through it.
    """

    engine: Optional[SerialProber] = None


@runtime_checkable
class Backend(Protocol):
    """One named synthesis algorithm."""

    name: str

    def run(
        self,
        spec: TargetSpec,
        options: JanusOptions,
        context: BackendContext,
    ) -> SynthesisResult: ...


@dataclass(frozen=True)
class _FunctionBackend:
    """Adapter: a plain ``fn(spec, options=...)`` baseline as a Backend.

    ``fn`` is a dotted path (``"package.module.function"``), imported on
    the backend's first run so that sessions which never run a baseline
    never load its module.
    """

    name: str
    fn: str

    def run(
        self,
        spec: TargetSpec,
        options: JanusOptions,
        context: BackendContext,
    ) -> SynthesisResult:
        module, attr = self.fn.rsplit(".", 1)
        fn = getattr(importlib.import_module(module), attr)
        return fn(spec, options=options)


class _JanusBackend:
    """The paper's search; rides the session engine when one exists."""

    name = "janus"

    def run(
        self,
        spec: TargetSpec,
        options: JanusOptions,
        context: BackendContext,
    ) -> SynthesisResult:
        engine = context.engine
        if engine is not None:
            engine_synthesize = getattr(engine, "synthesize", None)
            if engine_synthesize is not None:
                # The engine's own entry point engages the suite-level
                # result cache, not just the probe layer.
                return engine_synthesize(spec, options=options)
            return _synthesize(spec, options=options, prober=engine)
        return _synthesize(spec, options=options)

    def cached(
        self,
        spec: TargetSpec,
        options: JanusOptions,
        context: BackendContext,
    ) -> bool:
        """Whether :meth:`run` would answer from the engine's suite cache."""
        has_result = getattr(context.engine, "has_result", None)
        return has_result is not None and has_result(spec, options)


class _CegarProber(SerialProber):
    """Serial prober that decides every LM instance with the lazy CEGAR
    loop instead of the eager paper encoding."""

    def solve(self, spec, rows, cols, options):
        from repro.core.cegar import solve_lm_lazy

        return solve_lm_lazy(spec, rows, cols, options)


class _CegarBackend:
    name = "cegar"

    def run(
        self,
        spec: TargetSpec,
        options: JanusOptions,
        context: BackendContext,
    ) -> SynthesisResult:
        result = _synthesize(spec, options=options, prober=_CegarProber())
        result.method = "cegar"
        return result


class BackendRegistry:
    """Name -> :class:`Backend` mapping with alias support."""

    def __init__(self) -> None:
        self._backends: dict[str, Backend] = {}

    def register(
        self, backend: Backend, *aliases: str, replace: bool = False
    ) -> Backend:
        names = (backend.name, *aliases)
        for name in names:
            if not replace and name in self._backends:
                raise ValidationError(
                    f"backend name {name!r} is already registered"
                )
        for name in names:
            self._backends[name] = backend
        return backend

    def get(self, name: str) -> Backend:
        backend = self._backends.get(name)
        if backend is None:
            known = ", ".join(sorted(self._backends))
            raise UnknownBackendError(
                f"unknown backend {name!r}; registered backends: {known}"
            )
        return backend

    def names(self) -> list[str]:
        return sorted(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __repr__(self) -> str:
        return f"BackendRegistry({self.names()})"


#: The default registry every session resolves against.
REGISTRY = BackendRegistry()
REGISTRY.register(_JanusBackend(), "eager")
REGISTRY.register(_CegarBackend())
REGISTRY.register(
    _FunctionBackend("exact", "repro.core.baselines.exact_search")
)
REGISTRY.register(
    _FunctionBackend("approx", "repro.core.baselines.approx_restricted")
)
REGISTRY.register(
    _FunctionBackend("heuristic", "repro.core.baselines.heuristic_candidates")
)
REGISTRY.register(
    _FunctionBackend("pcircuit", "repro.core.baselines.decompose_pcircuit")
)

# Taken before any custom registration: every process that imports this
# module, forked or spawned, resolves these names to these backends.
_BUILTINS = {name: REGISTRY.get(name) for name in REGISTRY.names()}


def register_backend(backend: Backend, *aliases: str) -> Backend:
    """Register a custom backend in the default registry."""
    return REGISTRY.register(backend, *aliases)


def get_backend(name: str) -> Backend:
    """Resolve a backend name, raising :class:`UnknownBackendError`."""
    return REGISTRY.get(name)


def backend_names() -> list[str]:
    return REGISTRY.names()


def is_builtin(name: str, registry: BackendRegistry = REGISTRY) -> bool:
    """Whether ``name`` resolves in ``registry`` to the built-in backend
    of that name, so a pool worker resolves it alike."""
    builtin = _BUILTINS.get(name)
    return builtin is not None and name in registry and (
        registry.get(name) is builtin
    )
