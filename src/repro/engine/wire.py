"""Shared wire schema primitives: assignments, attempts, probe outcomes,
spec snapshots.

One serialization, two consumers.  The payload forms defined here are
used verbatim by

* :mod:`repro.engine.cache` / :mod:`repro.engine.suite` — payloads
  persisted in the on-disk result cache (:func:`outcome_payload` is one
  LM probe's entry), and
* :mod:`repro.api.schema` — the public ``SynthesisResponse`` JSON wire
  format (:mod:`repro.server` serves exactly these shapes over HTTP).

Keeping them in one module means an API response embeds the same
attempt/assignment objects a cache entry stores — there is no second
schema to drift.

The *spec snapshot* is deliberately smaller than a full
:class:`~repro.core.target.TargetSpec`: just the truth-table bits (and
don't-cares) needed to replay a stored assignment against the function
it claims to realize.  ``janus cache verify`` uses it to audit a cache
without any out-of-band information.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DimensionError
from repro.boolf.truthtable import TruthTable, _full
from repro.core.janus import LmAttempt, LmOutcome
from repro.core.target import TargetSpec
from repro.lattice.assignment import Entry, LatticeAssignment
from repro.sat.solver import SolverConfig

__all__ = [
    "assignment_to_wire",
    "assignment_from_wire",
    "attempt_to_wire",
    "attempt_from_wire",
    "outcome_payload",
    "outcome_from_payload",
    "solver_config_to_wire",
    "solver_config_from_wire",
    "spec_snapshot",
    "snapshot_tables",
]


# ------------------------------------------------------------- assignments
def assignment_to_wire(
    assignment: Optional[LatticeAssignment],
) -> Optional[dict]:
    """``{"rows", "cols", "entries": [[var|null, positive], ...]}``."""
    if assignment is None:
        return None
    return {
        "rows": assignment.rows,
        "cols": assignment.cols,
        "entries": [[e.var, e.positive] for e in assignment.entries],
    }


def assignment_from_wire(
    payload: Optional[dict],
    num_inputs: int,
    names: Optional[list] = None,
) -> Optional[LatticeAssignment]:
    """Rebuild an assignment; ``names`` are cosmetic and caller-supplied."""
    if payload is None:
        return None
    entries = [
        Entry.lit(var, positive) if var is not None else Entry.const(positive)
        for var, positive in payload["entries"]
    ]
    return LatticeAssignment(
        payload["rows"], payload["cols"], entries, num_inputs, names
    )


# ---------------------------------------------------------------- attempts
def attempt_to_wire(attempt: LmAttempt) -> dict:
    return {
        "rows": attempt.rows,
        "cols": attempt.cols,
        "status": attempt.status,
        "side": attempt.side,
        "complexity": attempt.complexity,
        "conflicts": attempt.conflicts,
        "wall_time": attempt.wall_time,
        "propagations": attempt.propagations,
        "restarts": attempt.restarts,
        "reused": attempt.reused,
        "pruned": attempt.pruned,
        "core": attempt.core,
    }


def attempt_from_wire(payload: dict, cached: bool = False) -> LmAttempt:
    # The solver-reuse fields were added in schema revision 4; entries
    # written by older code simply lack them, so they default off.
    return LmAttempt(
        rows=payload["rows"],
        cols=payload["cols"],
        status=payload["status"],
        side=payload["side"],
        complexity=payload["complexity"],
        conflicts=payload["conflicts"],
        wall_time=payload["wall_time"],
        cached=cached,
        propagations=payload.get("propagations", 0),
        restarts=payload.get("restarts", 0),
        reused=payload.get("reused", False),
        pruned=payload.get("pruned", False),
        # revision 5: which propagation core served the probe.  Older
        # entries predate the native kernel, so they were pure by
        # construction.
        core=payload.get("core", "pure"),
    )


# ---------------------------------------------------------- probe outcomes
def outcome_payload(
    outcome: LmOutcome, spec: Optional[TargetSpec] = None
) -> dict:
    """Serialize an :class:`LmOutcome` for the result cache.

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
    assignment = assignment_from_wire(
        payload["assignment"], spec.num_inputs, spec.name_list()
    )
    return LmOutcome(payload["status"], assignment, attempt)


# ------------------------------------------------------------ solver config
def solver_config_to_wire(
    config: Optional[SolverConfig],
) -> Optional[dict]:
    """The ``solver_config`` wire block; ``None`` means "default config".

    The default config is always serialized as ``null`` (never as an
    explicit field dict), so a request built before SolverConfig existed
    and one carrying the explicit default are byte-identical on the wire
    — the back-compat rule documented in ``docs/wire-schema.md``.
    """
    if config is None or config == SolverConfig():
        return None
    return {
        "restart_strategy": config.restart_strategy,
        "restart_base": config.restart_base,
        "restart_growth": config.restart_growth,
        "var_decay": config.var_decay,
        "clause_decay": config.clause_decay,
        "phase_saving": config.phase_saving,
        "reduce_base": config.reduce_base,
        "reduce_growth": config.reduce_growth,
        "max_conflicts": config.max_conflicts,
        "max_time": config.max_time,
    }


def solver_config_from_wire(payload: Optional[dict]) -> SolverConfig:
    """Rebuild a :class:`SolverConfig`; absent/null payload ⇒ default.

    Unknown fields are rejected (the schema layer turns the resulting
    ``TypeError``/``SolverError`` into a :class:`ValidationError`);
    absent fields take their defaults, so old payloads stay readable as
    new knobs are added.
    """
    if payload is None:
        return SolverConfig()
    return SolverConfig(**payload)


# ----------------------------------------------------------- spec snapshots
def _tt_hex(tt: TruthTable) -> str:
    """Truth-table bits as hex (packed little-endian by minterm index)."""
    return tt.to_bytes().hex()


def _tt_from_hex(hexbits: str, num_vars: int) -> TruthTable:
    raw = bytes.fromhex(hexbits)
    if len(raw) * 8 < 1 << num_vars:
        raise DimensionError(
            f"{len(raw)} bytes of table bits for {num_vars} variables"
        )
    return TruthTable(int.from_bytes(raw, "little") & _full(num_vars), num_vars)


def spec_snapshot(spec: TargetSpec) -> dict:
    """The minimum needed to *re-verify* a stored assignment: the onset
    (and optional don't-care set) of the target function."""
    return {
        "num_vars": spec.num_inputs,
        "tt": _tt_hex(spec.tt),
        "dc": _tt_hex(spec.dc) if spec.dc is not None else None,
    }


def snapshot_tables(snapshot: dict):
    """``(onset, upper)`` truth tables from a spec snapshot: a replayed
    assignment is correct when onset <= realized <= upper."""
    num_vars = snapshot["num_vars"]
    onset = _tt_from_hex(snapshot["tt"], num_vars)
    if snapshot.get("dc"):
        upper = onset | _tt_from_hex(snapshot["dc"], num_vars)
    else:
        upper = onset
    return onset, upper
