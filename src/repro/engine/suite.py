"""Suite-level synthesis cache: whole results, not just probes.

The probe cache (:mod:`repro.engine.cache` keyed per LM instance) makes
a warm run skip SAT calls, but the driver still recomputes the
structural lower bound, the constructive upper bounds and the dichotomic
loop around those cached probes.  For whole-suite experiments (the
paper's Table II re-runs the same 48 functions under the same budgets)
that bookkeeping dominates a warm run.

This module persists complete :class:`~repro.core.janus.SynthesisResult`
records — assignment, bounds, the full attempt trace — keyed by the
spec+options fingerprint from :mod:`repro.engine.signature` (which
already folds in every driver option, ``ub_methods`` and ``ds_depth``
included, for exactly this purpose).  A warm hit rebuilds the result
without touching bounds code or the search loop: zero SAT calls *and*
zero upper-bound recomputations.

The key material carries ``"kind": "synthesis"`` and ``"mode": "eager"``
(the paper encoding every probe uses), so keys written by earlier
releases keep matching.  Releases before 1.22.0 also stored a ``bounds``
kind for the Table II harness; those entries are never read again.

Restored attempts carry ``cached=True``; the assignment is rebuilt with
the *current* spec's variable names (names are cosmetic and excluded
from the key).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.core.janus import JanusOptions, SynthesisResult
from repro.core.target import TargetSpec
from repro.engine.wire import (
    assignment_from_wire,
    assignment_to_wire,
    attempt_from_wire,
    attempt_to_wire,
    spec_snapshot,
)
from repro.engine.signature import _shared_fingerprint, spec_fingerprint

__all__ = [
    "suite_cache_key",
    "synthesis_payload",
    "synthesis_from_payload",
]

_SUITE_KEY_VERSION = 1


def suite_cache_key(spec: TargetSpec, options: JanusOptions) -> str:
    """Stable key for one whole-run record under one option set."""
    payload = {
        "v": _SUITE_KEY_VERSION,
        "kind": "synthesis",
        "mode": "eager",
        "spec": spec_fingerprint(spec),
        "options": _shared_fingerprint(options),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def synthesis_payload(result: SynthesisResult) -> dict:
    """Serialize a complete :class:`SynthesisResult` for the cache.

    Serialization delegates to the shared wire schema
    (:mod:`repro.engine.wire`), so suite entries, probe entries and API
    responses all agree on the attempt/assignment shapes.  The spec
    snapshot makes the entry self-verifying for ``janus cache verify``.
    """
    return {
        "kind": "synthesis",
        "assignment": assignment_to_wire(result.assignment),
        "spec": spec_snapshot(result.spec),
        "lower_bound": result.lower_bound,
        "initial_upper_bound": result.initial_upper_bound,
        "upper_bounds": {
            k: [r, c] for k, (r, c) in result.upper_bounds.items()
        },
        "attempts": [attempt_to_wire(a) for a in result.attempts],
        "wall_time": result.wall_time,
        "method": result.method,
        "initial_lower_bound": result.initial_lower_bound,
    }


def synthesis_from_payload(
    payload: dict, spec: TargetSpec
) -> Optional[SynthesisResult]:
    """Rebuild a result against the *current* spec, or None if malformed."""
    if payload.get("kind") != "synthesis":
        return None
    try:
        assignment = assignment_from_wire(
            payload["assignment"], spec.num_inputs, spec.name_list()
        )
        if assignment is None:
            return None
        return SynthesisResult(
            spec=spec,
            assignment=assignment,
            lower_bound=payload["lower_bound"],
            initial_upper_bound=payload["initial_upper_bound"],
            upper_bounds={
                k: (r, c) for k, (r, c) in payload["upper_bounds"].items()
            },
            attempts=[
                attempt_from_wire(a, cached=True)
                for a in payload["attempts"]
            ],
            wall_time=payload["wall_time"],
            method=payload["method"],
            initial_lower_bound=payload["initial_lower_bound"],
        )
    except (KeyError, TypeError, ValueError):
        return None
