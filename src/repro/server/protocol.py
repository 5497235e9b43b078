"""Server-side JSON envelopes and the exception -> HTTP status mapping.

The synthesis payloads themselves (``synthesis_request`` /
``synthesis_response`` and the batch forms) are *not* defined here — the
server speaks :mod:`repro.api.schema` verbatim, byte for byte.  This
module only adds the small envelopes the HTTP surface needs around them:
structured errors and the three informational endpoints (backends,
cache stats, health).  Every envelope carries the same ``{"api": 1,
"kind": "..."}`` header as the schema dataclasses so a client can
dispatch on ``kind`` alone.

Error statuses (see ``docs/server.md``):

====  ==========================================================
400   malformed JSON, schema validation, bad expressions
       (:class:`ValidationError` / :class:`ParseError` and other
       user-input :class:`ReproError` subclasses)
404   unknown path, unknown backend
       (:class:`UnknownBackendError`)
405   known path, wrong method
408   wall-clock budget exhausted (:class:`BudgetExceeded`)
500   anything else — a genuine server bug
====  ==========================================================
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.api.schema import API_VERSION
from repro.errors import (
    BudgetExceeded,
    ReproError,
    UnknownBackendError,
    ValidationError,
)

__all__ = [
    "error_wire",
    "status_for_exception",
    "backends_wire",
    "cache_stats_wire",
    "health_wire",
]


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status an exception maps to (table in the module doc)."""
    if isinstance(exc, BudgetExceeded):
        return 408
    if isinstance(exc, UnknownBackendError):
        return 404
    if isinstance(exc, ReproError):
        # ValidationError, ParseError, and every other malformed-input
        # error the library raises: the request was wrong, not the server.
        return 400
    return 500


def error_wire(status: int, exc: BaseException) -> dict:
    """The structured error payload for a failed request."""
    return {
        "api": API_VERSION,
        "kind": "error",
        "status": status,
        "type": type(exc).__name__,
        "error": str(exc) or type(exc).__name__,
    }


def backends_wire(names: list[str]) -> dict:
    return {
        "api": API_VERSION,
        "kind": "backends",
        "backends": sorted(names),
    }


def cache_stats_wire(
    engine_stats, disk: Optional[dict], cache_dir: Optional[str], pool
) -> dict:
    """The served cache/work accounting.

    ``engine`` is the merged :class:`~repro.engine.parallel.EngineStats`
    across the whole session pool — ``solver_calls`` staying flat across
    a repeated request is the observable "this was served warm" signal
    the benchmarks and tests assert.  ``disk`` summarizes the shared
    on-disk cache directory (entry/temp counts and bytes).
    """
    return {
        "api": API_VERSION,
        "kind": "cache_stats",
        "cache_dir": cache_dir,
        "engine": dataclasses.asdict(engine_stats),
        "disk": disk,
        "pool": {"size": pool.size, "jobs": pool.jobs, "busy": pool.busy},
    }


def health_wire(version: str, uptime: float) -> dict:
    return {
        "api": API_VERSION,
        "kind": "health",
        "status": "ok",
        "version": version,
        "uptime": uptime,
    }
