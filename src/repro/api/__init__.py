"""``repro.api`` — the stable public API for lattice synthesis.

This facade is the one entry point every frontend shares: the CLI, the
benchmark runner and the examples all speak it, and the HTTP service
(:mod:`repro.server`, ``janus serve``) exposes it verbatim.  Three
pieces:

* **Schema** (:mod:`repro.api.schema`) — versioned, validating
  request/response dataclasses with a canonical JSON wire format:
  :class:`SynthesisRequest` / :class:`SynthesisResponse` and their batch
  forms.  ``from_json(x.to_json())`` round-trips exactly.
* **Backends** (:mod:`repro.api.backends`) — the algorithm registry.
  ``janus`` (alias ``eager``) and the paper's
  baselines (``exact``, ``approx``, ``heuristic``, ``pcircuit``) are
  pre-registered; custom engines join via :func:`register_backend`.
* **Sessions** (:mod:`repro.api.session`) — configuration + lifecycle.
  A :class:`Session` owns the layered result caches, the structured
  progress-event channel and the pool its batches shard over, and
  reuses them across calls.

Quickstart::

    from repro.api import Session

    with Session(jobs=4, cache="~/.cache/janus") as session:
        response = session.synthesize("ab + a'b'c")
        print(response.shape, response.size)
        print(response.to_json())          # the wire format

One-shot helpers :func:`synthesize` and :func:`run_batch` wrap a
throwaway session for scripts that make a single call.

Progress is a structured event channel (:mod:`repro.engine.events`):
``Session(events=cb)`` / ``session.subscribe(cb)`` deliver frozen
dataclasses per probe/bound/cache/synthesis occurrence, and
:func:`event_to_wire` / :func:`event_from_wire` convert them to the
JSON form the HTTP event stream serves.  The full wire format is
documented field by field in ``docs/wire-schema.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.api.backends": (
        "REGISTRY", "Backend", "BackendContext", "BackendRegistry",
        "backend_names", "get_backend", "register_backend",
    ),
    "repro.engine.events": (
        "EVENT_KINDS", "BoundComputed", "CacheEvent", "EngineEvent",
        "ProbeFinished", "ProbeStarted", "SynthesisFinished",
        "SynthesisStarted", "event_from_wire", "event_to_wire",
    ),
    "repro.api.schema": (
        "API_VERSION", "BatchRequest", "BatchResponse", "RequestOptions",
        "SynthesisRequest", "SynthesisResponse",
    ),
    "repro.api.session": ("Session", "run_batch", "synthesize"),
    "repro.errors": ("ApiError", "UnknownBackendError", "ValidationError"),
})
