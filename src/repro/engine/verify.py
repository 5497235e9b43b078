"""Replay stored cache entries against their specs: ``janus cache verify``.

Cache entries written since the wire-schema consolidation carry a spec
snapshot (onset/don't-care truth-table bits) next to every stored
assignment.  Verification rebuilds each assignment, recomputes the
function it realizes by flood-fill connectivity, and checks it lies in
the admissible interval ``onset <= realized <= onset | dc`` — the same
acceptance test the synthesizer applies to fresh SAT decodes.

A mismatch means the entry would hand a wrong lattice to a warm run
(cache corruption, a key collision, or an encoder bug frozen into the
store) and is reported with its key so it can be deleted.  Entries
without a snapshot (pre-schema writes) or without an assignment
(``unsat``/``unknown`` probes, bounds reports) cannot be replayed and
are counted as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cache import ResultCache
from repro.engine.wire import assignment_from_wire, snapshot_tables

__all__ = ["VerifyReport", "verify_cache"]


@dataclass
class VerifyReport:
    """Outcome of one cache verification sweep."""

    checked: int = 0  # entries with a replayable assignment + snapshot
    verified: int = 0  # ... of those, assignments realizing their spec
    mismatched: int = 0  # ... of those, assignments that do NOT
    skipped: int = 0  # no assignment to replay (unsat/unknown/bounds)
    unverifiable: int = 0  # assignment but no spec snapshot (old format)
    corrupt: int = 0  # payloads that fail to decode at all
    mismatches: list[str] = field(default_factory=list)  # offending keys

    @property
    def ok(self) -> bool:
        return self.mismatched == 0 and self.corrupt == 0


def _entry_assignments(payload: dict):
    """Yield every (assignment_wire, snapshot|None) pair in a payload.

    Probe entries hold one assignment; suite-level ``synthesis`` entries
    hold the final assignment; ``bounds`` entries hold none.
    """
    assignment = payload.get("assignment")
    if assignment is not None:
        yield assignment, payload.get("spec")


def verify_cache(cache: ResultCache) -> VerifyReport:
    """Replay every stored assignment in ``cache`` against its spec."""
    report = VerifyReport()
    for path in cache.iter_entries():
        key = path.name[: -len(".json")]
        payload = cache.get(key)
        if payload is None:
            report.corrupt += 1
            report.mismatches.append(key)
            continue
        pairs = list(_entry_assignments(payload))
        if not pairs:
            report.skipped += 1
            continue
        for assignment_wire, snapshot in pairs:
            if snapshot is None:
                report.unverifiable += 1
                continue
            report.checked += 1
            try:
                onset, upper = snapshot_tables(snapshot)
                assignment = assignment_from_wire(
                    assignment_wire, snapshot["num_vars"]
                )
                realized = assignment.realized_truthtable()
                ok = onset.implies(realized) and realized.implies(upper)
            # janalyze: allow-broad-except replaying arbitrary (possibly
            # corrupt) cache entries — any decode/replay failure means
            # the entry is counted as mismatched, not crash the audit
            except Exception:
                ok = False
            if ok:
                report.verified += 1
            else:
                report.mismatched += 1
                report.mismatches.append(key)
    return report
