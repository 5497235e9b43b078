"""A CDCL SAT solver with swappable propagation cores.

This is the library's replacement for glucose 4.1 (the solver the paper
uses): conflict-driven clause learning with

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimization,
* EVSIDS variable activities with phase saving,
* Luby-sequence restarts,
* learned-clause database reduction driven by LBD and activity,
* deterministic conflict budgets and optional wall-clock budgets.

The interface is deliberately small: ``add_clauses`` (``add_clause``
for one clause) + ``solve``.  Literals are signed DIMACS integers.
``solve`` returns a :class:`SolveResult` whose
``status`` is ``"sat"``, ``"unsat"`` or ``"unknown"`` (budget ran out —
the paper treats solver timeouts as "not realizable", and the JANUS driver
mirrors that policy explicitly).

Clauses may be added between ``solve`` calls; learnt clauses are kept
across calls.

Architecture: :class:`CdclSolver` is a *driver* — it owns the search
policy (decisions, restarts, budgets, the reduce schedule, proof
logging) but none of the hot loops.  Those live behind the
**PropagationCore seam**: an int-packed kernel interface
(:data:`CORE_INTERFACE`) with two byte-identical implementations,

* :class:`repro.sat.core_pure.PurePythonCore` — always available, and
  itself a rewrite of the historical loop onto a flat clause arena with
  blocker watch lists;
* ``repro.sat._native.NativeCore`` — an optional C extension compiled
  from ``src/repro/sat/_native/_kernel.c``, auto-detected at import
  with graceful fallback (see :mod:`repro.sat._native`).

Core selection: the ``core=`` constructor argument wins, then the
``JANUS_NATIVE`` environment variable (``0`` forces pure, ``1``
requires native), then auto (native when built).  Both cores produce
the same decisions, the same learnt clauses and the same
:class:`SolverStats` on every instance — the parity suite
(``tests/sat/test_native_parity.py``) and DRAT proof checking pin that
down — so every byte-identity property of the engine holds no matter
which core served a probe.  ``SolverStats.core`` records which one did.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import SolverError
from repro.sat.core_pure import PurePythonCore
from repro.sat import _native

__all__ = [
    "CdclSolver",
    "CORE_INTERFACE",
    "SolveResult",
    "SolverStats",
    "available_cores",
    "resolve_core_class",
    "solve_cnf",
]

_UNASSIGNED = -1

# The one search policy.  Luby restarts of ``RESTART_BASE`` conflicts per
# unit, EVSIDS with phase saving, and a learnt-clause database reduced at
# ``max(REDUCE_BASE, clauses // 3 + REDUCE_BASE // 2)`` learnts, growing
# by ``REDUCE_GROWTH`` after each reduction.  Faster restarts, geometric
# restarts and a larger database were measured against it (README,
# "The search policy"): none won on both cores and both hard probes, and
# only this policy decides ``b12_01`` 4x4 within 400k conflicts.
RESTART_BASE = 100
VAR_DECAY = 0.95
CLAUSE_DECAY = 0.999
REDUCE_BASE = 1000
REDUCE_GROWTH = 1.3

#: The method surface a propagation core must implement.  The pure and
#: native twins are held to this list by the janalyze
#: ``dual-source-drift`` checker and the parity test matrix.
CORE_INTERFACE: tuple[str, ...] = (
    "add_var",
    "num_vars",
    "value",
    "decision_level",
    "propagation_count",
    "num_learnts",
    "num_clauses",
    "model",
    "decide_next",
    "decay",
    "attach",
    "add_clauses",
    "enqueue",
    "propagate",
    "backtrack",
    "analyze",
    "reduce_db",
)


def available_cores() -> tuple[str, ...]:
    """Names of the propagation cores importable in this process."""
    if _native.native_available():
        return ("pure", "native")
    return ("pure",)


def resolve_core_class(core: Optional[str] = None):
    """Pick the propagation-core class for a new solver.

    ``core`` may be ``"pure"``, ``"native"`` or ``None`` (auto).  Auto
    consults ``JANUS_NATIVE`` (``0`` forces pure, ``1`` requires
    native) and otherwise uses the native kernel when it was importable
    at package import, falling back to the pure twin.
    """
    if core is None:
        env = os.environ.get("JANUS_NATIVE", "").strip()
        if env == "0":
            return PurePythonCore
        if env == "1":
            if _native.NativeCore is None:
                raise SolverError(
                    "JANUS_NATIVE=1 but the native kernel is not built "
                    f"({_native.native_import_error()}); build it with "
                    "`make native` or unset JANUS_NATIVE"
                )
            return _native.NativeCore
        return _native.NativeCore or PurePythonCore
    if core == "pure":
        return PurePythonCore
    if core == "native":
        if _native.NativeCore is None:
            raise SolverError(
                "native core requested but the extension is not built "
                f"({_native.native_import_error()}); build it with "
                "`make native`"
            )
        return _native.NativeCore
    raise SolverError(
        f"unknown propagation core {core!r}; expected 'pure', 'native' "
        "or None (auto)"
    )


@dataclass
class SolverStats:
    """Counters accumulated over a solver's lifetime."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    max_decision_level: int = 0
    core: str = "pure"  # propagation core that served this solver


@dataclass
class SolveResult:
    """Outcome of a :meth:`CdclSolver.solve` call."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[list[bool]] = None  # model[var-1] for external var ids
    stats: SolverStats = field(default_factory=SolverStats)
    wall_time: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    def value(self, var: int) -> bool:
        if self.model is None:
            raise SolverError("no model available")
        return self.model[var - 1]


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...  (MiniSat's variant.)
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style literals.

    The search policy lives here; all hot loops live in the propagation
    core behind :data:`CORE_INTERFACE` (``core=`` picks one; default is
    auto-detect, see :func:`resolve_core_class`).
    """

    def __init__(
        self,
        num_vars: int = 0,
        proof: bool = False,
        core: Optional[str] = None,
    ) -> None:
        self.ok = True
        core_cls = resolve_core_class(core)
        self.core_name: str = core_cls.core_name
        self._core = core_cls(VAR_DECAY, CLAUSE_DECAY)
        self.stats = SolverStats(core=self.core_name)
        # DRUP proof log: ("a"|"d", external-literal tuple) per event.  Only
        # *derived* clauses are logged (learnt clauses, level-0 strengthened
        # inputs, the final empty clause) plus learnt-clause deletions; this
        # is exactly the fragment :mod:`repro.sat.drat` checks.
        self.proof: Optional[list[tuple[str, tuple[int, ...]]]] = (
            [] if proof else None
        )
        for _ in range(num_vars):
            self._core.add_var()

    # ----------------------------------------------------------- interface
    def new_var(self) -> int:
        """Allocate a variable; returns its external (1-based) id."""
        self._core.add_var()
        return self._core.num_vars()

    @staticmethod
    def _to_external(internal: int) -> int:
        var = (internal >> 1) + 1
        return -var if internal & 1 else var

    def _log_proof(self, kind: str, internal_lits: Sequence[int]) -> None:
        if self.proof is not None:
            self.proof.append(
                (kind, tuple(self._to_external(l) for l in internal_lits))
            )

    def _sync_stats(self) -> None:
        self.stats.propagations = self._core.propagation_count()

    def add_clause(self, ext_lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        return self.add_clauses((ext_lits,))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses in order; returns False once the formula is UNSAT.

        The one ingest path: the core sorts and deduplicates each clause,
        drops tautologies and level-0-satisfied clauses, strips level-0
        false literals, propagates units as they arrive and attaches the
        rest.  Strengthened clauses (and the empty clause of an ingest
        conflict) go to the DRUP proof log.
        """
        if not self.ok:
            return False
        core = self._core
        if core.decision_level():
            raise SolverError("clauses must be added at decision level 0")
        derived: Optional[list[list[int]]] = (
            [] if self.proof is not None else None
        )
        try:
            self.ok = core.add_clauses(clauses, derived)
        except ValueError as exc:
            raise SolverError(str(exc)) from None
        finally:
            for lits in derived or ():
                self._log_proof("a", lits)
            self._sync_stats()
        return self.ok

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        max_time: Optional[float] = None,
    ) -> SolveResult:
        """Search for a model; honour conflict/time budgets.

        ``None`` means no budget.  Budgets are per call: a reused solver
        gets a fresh conflict allowance on every ``solve``, so each round
        of an add-clauses-and-solve loop gets the same deterministic
        budget a one-shot solve has.
        """
        start = time.monotonic()
        try:
            result = self._solve(start, max_conflicts, max_time)
        finally:
            self._sync_stats()
        result.wall_time = time.monotonic() - start
        return result

    # ------------------------------------------------------------ internals
    def _reduce_db(self) -> None:
        """Drop the weaker half of the learned clauses."""
        deleted = self._core.reduce_db()
        for lits in deleted:
            self._log_proof("d", lits)
        self.stats.deleted += len(deleted)

    def _solve(
        self,
        start: float,
        max_conflicts: Optional[int],
        max_time: Optional[float],
    ) -> SolveResult:
        if not self.ok:
            return SolveResult("unsat", stats=self.stats)
        core = self._core
        conflict = core.propagate()
        if conflict >= 0:
            self._log_proof("a", [])
            self.ok = False
            return SolveResult("unsat", stats=self.stats)

        stats = self.stats
        conflicts_start = stats.conflicts
        restart_idx = 1
        restart_limit = RESTART_BASE
        conflicts_since_restart = 0
        # Shadow of ``core.decision_level()``: the driver mirrors every
        # level change (decide, backtrack) so the hot loop never crosses
        # the seam just to read it.
        dl = 0
        max_learnts = max(
            REDUCE_BASE, (core.num_clauses() // 3) + REDUCE_BASE // 2
        )

        while True:
            conflict = core.propagate()
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                if dl == 0:
                    self._log_proof("a", [])
                    self.ok = False
                    return SolveResult("unsat", stats=stats)
                learnt, bt_level, lbd = core.analyze(conflict)
                self._log_proof("a", learnt)
                core.backtrack(bt_level)
                dl = bt_level
                if len(learnt) == 1:
                    if not core.enqueue(learnt[0], -1):
                        self._log_proof("a", [])
                        self.ok = False
                        return SolveResult("unsat", stats=stats)
                else:
                    cref = core.attach(learnt, 1, lbd)
                    stats.learned += 1
                    if not core.enqueue(learnt[0], cref):
                        raise SolverError(
                            "asserting literal rejected after backjump"
                        )
                core.decay()

                if (
                    max_conflicts is not None
                    and stats.conflicts - conflicts_start >= max_conflicts
                ):
                    core.backtrack(0)
                    return SolveResult("unknown", stats=stats)
                if max_time is not None and (
                    time.monotonic() - start
                ) > max_time:
                    core.backtrack(0)
                    return SolveResult("unknown", stats=stats)
                if conflicts_since_restart >= restart_limit:
                    stats.restarts += 1
                    restart_idx += 1
                    restart_limit = RESTART_BASE * _luby(restart_idx)
                    conflicts_since_restart = 0
                    core.backtrack(0)
                    dl = 0
                continue

            if core.num_learnts() >= max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * REDUCE_GROWTH)

            lit = core.decide_next()
            if lit < 0:
                model = core.model()
                core.backtrack(0)
                return SolveResult("sat", model=model, stats=stats)
            stats.decisions += 1
            dl += 1
            if dl > stats.max_decision_level:
                stats.max_decision_level = dl


def solve_cnf(
    cnf,
    max_conflicts: Optional[int] = None,
    max_time: Optional[float] = None,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`CdclSolver`.

    Budgets are as in :meth:`CdclSolver.solve` (``None`` = no budget).
    """
    solver = CdclSolver(num_vars=cnf.num_vars)
    if not solver.add_clauses(cnf.clauses):
        return SolveResult("unsat", stats=solver.stats)
    return solver.solve(max_conflicts=max_conflicts, max_time=max_time)
