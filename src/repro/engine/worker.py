"""Work items executed inside engine worker processes.

Everything here must be picklable and importable at module level (the
pool pickles the *function reference* plus its arguments).  Results cross
the process boundary as plain JSON-able dicts in the shared wire schema
(:mod:`repro.engine.wire`) — the same payloads the
:class:`~repro.engine.cache.ResultCache` stores, so a worker result can
be written to the cache verbatim and a cache hit decodes through the
same path as a pool result.

SAT outcomes additionally carry a compact *spec snapshot* (truth-table
and don't-care bits), which is what lets ``janus cache verify`` replay a
stored assignment against the function it claims to realize without any
out-of-band information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SynthesisError
from repro.core.bounds import UB_METHODS, BoundResult
from repro.core.janus import JanusOptions, LmOutcome, solve_lm
from repro.core.target import TargetSpec
from repro.engine.wire import (
    assignment_from_wire,
    assignment_to_wire,
    attempt_from_wire,
    attempt_to_wire,
    spec_snapshot,
)
from repro.lattice.assignment import LatticeAssignment

__all__ = [
    "LmRequest",
    "run_lm_request",
    "run_bound_request",
    "outcome_payload",
    "outcome_from_payload",
    "bound_payload",
    "bound_from_payload",
]


@dataclass(frozen=True)
class LmRequest:
    """One LM probe: everything a worker needs, budgets included."""

    spec: TargetSpec
    rows: int
    cols: int
    options: JanusOptions


def _assignment_payload(
    assignment: Optional[LatticeAssignment],
) -> Optional[dict]:
    return assignment_to_wire(assignment)


def _assignment_from_payload(
    payload: Optional[dict], spec: TargetSpec
) -> Optional[LatticeAssignment]:
    return assignment_from_wire(payload, spec.num_inputs, spec.name_list())


def outcome_payload(
    outcome: LmOutcome, spec: Optional[TargetSpec] = None
) -> dict:
    """Serialize an :class:`LmOutcome` for IPC and the result cache.

    When ``spec`` is given and the outcome carries an assignment, a spec
    snapshot rides along so the cache entry is self-verifying.
    """
    payload = {
        "status": outcome.status,
        "assignment": assignment_to_wire(outcome.assignment),
        "attempt": attempt_to_wire(outcome.attempt),
    }
    if spec is not None and outcome.assignment is not None:
        payload["spec"] = spec_snapshot(spec)
    return payload


def outcome_from_payload(
    payload: dict, spec: TargetSpec, cached: bool = False
) -> LmOutcome:
    """Rebuild an :class:`LmOutcome`; names come from the *current* spec."""
    attempt = attempt_from_wire(payload["attempt"], cached=cached)
    assignment = _assignment_from_payload(payload["assignment"], spec)
    return LmOutcome(payload["status"], assignment, attempt)


def run_lm_request(request: LmRequest) -> dict:
    """Pool entry point: decide one LM instance, return a payload."""
    outcome = solve_lm(
        request.spec, request.rows, request.cols, request.options
    )
    return outcome_payload(outcome, spec=request.spec)


def bound_payload(bound: BoundResult) -> dict:
    return {
        "method": bound.method,
        "assignment": assignment_to_wire(bound.assignment),
    }


def bound_from_payload(payload: dict, spec: TargetSpec) -> BoundResult:
    return BoundResult(
        payload["method"],
        _assignment_from_payload(payload["assignment"], spec),
    )


def run_bound_request(args: tuple[TargetSpec, str]) -> Optional[dict]:
    """Pool entry point: one upper-bound construction, or None if it
    does not apply to this target (mirrors the serial ``try/except``)."""
    spec, method = args
    try:
        return bound_payload(UB_METHODS[method](spec))
    except SynthesisError:
        return None
