"""Single-switch fault analysis for assigned lattices.

The switching-lattice literature the paper builds on ([4]: Alexandrescu
et al., "Logic synthesis and testing techniques for switching
nano-crossbar arrays") treats manufacturing defects as *stuck* switches:

* **stuck-OFF** — the switch never conducts (behaves as constant 0);
* **stuck-ON** — the switch always conducts (behaves as constant 1).

Because an assigned lattice is just a grid of entries, injecting a fault
is replacing one entry with a constant; the faulty machine is itself a
:class:`~repro.lattice.assignment.LatticeAssignment`, so everything
(evaluation, rendering, checking) applies to it unchanged.

This module provides the standard test-engineering queries on top:

* :func:`inject` — the faulty lattice for one (cell, polarity) fault;
* :func:`fault_universe` — every single fault of a lattice;
* :func:`detecting_vectors` — input vectors whose output differs from
  the fault-free lattice (the fault's *test set*);
* :func:`fault_table` — detectability of every fault, separating
  *redundant* faults (undetectable — the realized function does not
  change) from testable ones;
* :func:`minimal_test_set` — a small set of vectors covering all
  testable faults (greedy set cover, optimal when the greedy bound
  collapses);
* :func:`fault_coverage` — coverage of a given vector set.

Faults at cells already assigned the matching constant are *vacuous*
(the machine is unchanged); they are excluded from the universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import DimensionError
from repro.lattice.assignment import CONST0, CONST1, LatticeAssignment

__all__ = [
    "Fault",
    "FaultReport",
    "inject",
    "fault_universe",
    "detecting_vectors",
    "fault_table",
    "minimal_test_set",
    "fault_coverage",
]

STUCK_OFF = "stuck-off"
STUCK_ON = "stuck-on"


@dataclass(frozen=True)
class Fault:
    """A single stuck switch: cell ``(row, col)`` stuck ON or OFF."""

    row: int
    col: int
    kind: str  # STUCK_OFF | STUCK_ON

    def __post_init__(self) -> None:
        if self.kind not in (STUCK_OFF, STUCK_ON):
            raise DimensionError(f"unknown fault kind {self.kind!r}")

    def __str__(self) -> str:
        return f"({self.row},{self.col}) {self.kind}"


def inject(assignment: LatticeAssignment, fault: Fault) -> LatticeAssignment:
    """The faulty lattice: the fault's cell replaced by a constant."""
    if not (0 <= fault.row < assignment.rows and 0 <= fault.col < assignment.cols):
        raise DimensionError(f"fault cell {fault} outside the lattice")
    replacement = CONST1 if fault.kind == STUCK_ON else CONST0
    entries = list(assignment.entries)
    entries[fault.row * assignment.cols + fault.col] = replacement
    return LatticeAssignment(
        assignment.rows,
        assignment.cols,
        entries,
        assignment.num_vars,
        assignment.names,
    )


def fault_universe(assignment: LatticeAssignment) -> list[Fault]:
    """All non-vacuous single faults, in row-major, OFF-before-ON order."""
    faults: list[Fault] = []
    for row in range(assignment.rows):
        for col in range(assignment.cols):
            entry = assignment.entry(row, col)
            if entry != CONST0:
                faults.append(Fault(row, col, STUCK_OFF))
            if entry != CONST1:
                faults.append(Fault(row, col, STUCK_ON))
    return faults


def detecting_vectors(
    assignment: LatticeAssignment, fault: Fault
) -> list[int]:
    """Input vectors on which the faulty lattice's output differs."""
    good = assignment.realized_truthtable()
    bad = inject(assignment, fault).realized_truthtable()
    return (good ^ bad).onset()


@dataclass
class FaultReport:
    """Full single-fault analysis of one lattice."""

    assignment: LatticeAssignment
    testable: dict[Fault, list[int]]  # fault -> its detecting vectors
    redundant: list[Fault]

    @property
    def num_faults(self) -> int:
        return len(self.testable) + len(self.redundant)


def fault_table(assignment: LatticeAssignment) -> FaultReport:
    """Classify every single fault as testable or redundant."""
    testable: dict[Fault, list[int]] = {}
    redundant: list[Fault] = []
    for fault in fault_universe(assignment):
        vectors = detecting_vectors(assignment, fault)
        if vectors:
            testable[fault] = vectors
        else:
            redundant.append(fault)
    return FaultReport(assignment, testable, redundant)


def minimal_test_set(report: FaultReport) -> list[int]:
    """Greedy minimum set of input vectors detecting every testable fault.

    Greedy set cover: repeatedly pick the vector detecting the most
    still-undetected faults (ties broken by smaller vector for
    determinism).  Guaranteed to cover all testable faults.
    """
    remaining = set(report.testable)
    # vector -> set of faults it detects
    by_vector: dict[int, set[Fault]] = {}
    for fault, vectors in report.testable.items():
        for vec in vectors:
            by_vector.setdefault(vec, set()).add(fault)
    tests: list[int] = []
    while remaining:
        best = max(
            by_vector,
            key=lambda v: (len(by_vector[v] & remaining), -v),
        )
        gained = by_vector[best] & remaining
        if not gained:  # pragma: no cover - defensive; cannot happen
            raise DimensionError("greedy cover stalled")
        tests.append(best)
        remaining -= gained
    return sorted(tests)


def fault_coverage(
    report: FaultReport, vectors: Iterable[int]
) -> float:
    """Fraction of testable faults detected by the given vectors (1.0 =
    full coverage; vacuously 1.0 when there are no testable faults)."""
    vector_set = set(vectors)
    if not report.testable:
        return 1.0
    detected = sum(
        1
        for fault, det in report.testable.items()
        if vector_set & set(det)
    )
    return detected / len(report.testable)
