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
    "SOLVER_PRESETS",
    "SolverConfig",
    "SolveResult",
    "SolverStats",
    "available_cores",
    "resolve_core_class",
    "solve_cnf",
]

_UNASSIGNED = -1

# Sentinel distinguishing "budget not given" from an explicit None (no
# budget) in per-call overrides.
_KEEP = object()

_RESTART_STRATEGIES = ("luby", "geometric")
_PHASE_MODES = ("save", "off")

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


@dataclass(frozen=True)
class SolverConfig:
    """Every tunable knob of :class:`CdclSolver`, as one frozen value.

    The defaults reproduce the solver's historical hardcoded behaviour
    *exactly* — ``SolverConfig()`` is byte-identical to the pre-config
    solver on every trajectory, which is what lets the engine cache and
    the byte-identity tests treat "no config" and "default config" as
    the same thing.

    Budgets (``max_conflicts`` / ``max_time``) are defaults, not caps:
    an explicit per-call or per-constructor budget always wins, so the
    JANUS engine's deterministic conflict budgets keep their authority
    over whatever a preset suggests.
    """

    restart_strategy: str = "luby"  # "luby" | "geometric"
    restart_base: int = 100
    restart_growth: float = 1.5  # geometric strategy only
    var_decay: float = 0.95
    clause_decay: float = 0.999
    phase_saving: str = "save"  # "save" | "off"
    reduce_base: int = 1000
    reduce_growth: float = 1.3
    max_conflicts: Optional[int] = None
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.restart_strategy not in _RESTART_STRATEGIES:
            raise SolverError(
                f"unknown restart_strategy {self.restart_strategy!r}; "
                f"expected one of {_RESTART_STRATEGIES}"
            )
        if self.phase_saving not in _PHASE_MODES:
            raise SolverError(
                f"unknown phase_saving {self.phase_saving!r}; "
                f"expected one of {_PHASE_MODES}"
            )
        if self.restart_base < 1:
            raise SolverError("restart_base must be >= 1")
        if self.restart_growth <= 1.0:
            raise SolverError("restart_growth must be > 1.0")
        if not 0.0 < self.var_decay <= 1.0:
            raise SolverError("var_decay must be in (0, 1]")
        if not 0.0 < self.clause_decay <= 1.0:
            raise SolverError("clause_decay must be in (0, 1]")
        if self.reduce_base < 1:
            raise SolverError("reduce_base must be >= 1")
        if self.reduce_growth < 1.0:
            raise SolverError("reduce_growth must be >= 1.0")
        if self.max_conflicts is not None and self.max_conflicts < 0:
            raise SolverError("max_conflicts must be >= 0")
        if self.max_time is not None and self.max_time < 0:
            raise SolverError("max_time must be >= 0")

    @classmethod
    def default(cls) -> "SolverConfig":
        return cls()

    @classmethod
    def preset(cls, name: str) -> "SolverConfig":
        """A named preset; raises :class:`SolverError` for unknown names."""
        try:
            return SOLVER_PRESETS[name]
        except KeyError:
            raise SolverError(
                f"unknown solver preset {name!r}; "
                f"expected one of {sorted(SOLVER_PRESETS)}"
            ) from None

    def restart_limit(self, idx: int) -> int:
        """Conflicts allowed before the ``idx``-th (1-based) restart."""
        if self.restart_strategy == "geometric":
            return int(self.restart_base * self.restart_growth ** (idx - 1))
        return self.restart_base * _luby(idx)


# The named presets the CLI (``--solver-preset``) and server (``?preset=``)
# expose.
# ``default`` is the measured pick: the PR-7 `bench_sat.py --sweep`
# matrix showed honest parity across presets on the realizability
# frontier (deterministic conflict budgets dominate), so the
# byte-identity-preserving historical tuning stays the default.
SOLVER_PRESETS: dict[str, SolverConfig] = {
    "default": SolverConfig(),
    # Rapid Luby restarts, fast-moving activities, aggressive clause-DB
    # pruning: darts for easy/shallow instances.
    "agile": SolverConfig(
        restart_base=32,
        var_decay=0.90,
        clause_decay=0.995,
        reduce_base=600,
        reduce_growth=1.2,
    ),
    # Long geometric restarts and slow decay: stays the course on
    # instances where the heuristic needs time to settle.
    "stable": SolverConfig(
        restart_strategy="geometric",
        restart_base=512,
        restart_growth=1.5,
        var_decay=0.99,
        reduce_base=2000,
    ),
    # Keeps far more learned clauses before reducing: trades memory for
    # propagation power on hard UNSAT cores.
    "heavy": SolverConfig(
        restart_base=256,
        clause_decay=0.9995,
        reduce_base=4000,
        reduce_growth=1.5,
    ),
}


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
        config: Optional[SolverConfig] = None,
        core: Optional[str] = None,
    ) -> None:
        cfg = config if config is not None else SolverConfig()
        self.config = cfg
        self.ok = True
        core_cls = resolve_core_class(core)
        self.core_name: str = core_cls.core_name
        self._core = core_cls(
            cfg.var_decay,
            cfg.clause_decay,
            1 if cfg.phase_saving == "save" else 0,
        )
        self.stats = SolverStats(core=self.core_name)
        self.max_conflicts = cfg.max_conflicts
        self.max_time = cfg.max_time
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

    def solve(self, max_conflicts=_KEEP, max_time=_KEEP) -> SolveResult:
        """Search for a model; honour conflict/time budgets.

        ``max_conflicts`` / ``max_time`` override the config's budgets
        for this call only (pass ``None`` to lift a budget).  Budgets are
        per call: a reused solver gets a fresh conflict allowance on
        every ``solve``, so each round of an add-clauses-and-solve loop
        gets the same deterministic budget a one-shot solve has.
        """
        start = time.monotonic()
        limit_conflicts = (
            self.max_conflicts if max_conflicts is _KEEP else max_conflicts
        )
        limit_time = self.max_time if max_time is _KEEP else max_time
        try:
            result = self._solve(start, limit_conflicts, limit_time)
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

        cfg = self.config
        stats = self.stats
        conflicts_start = stats.conflicts
        restart_idx = 1
        restart_limit = cfg.restart_limit(restart_idx)
        conflicts_since_restart = 0
        # Shadow of ``core.decision_level()``: the driver mirrors every
        # level change (decide, backtrack) so the hot loop never crosses
        # the seam just to read it.
        dl = 0
        # With the default config (reduce_base=1000) this is the
        # historical ``max(1000, len(clauses) // 3 + 500)`` schedule.
        max_learnts = max(
            cfg.reduce_base,
            (core.num_clauses() // 3) + cfg.reduce_base // 2,
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
                    restart_limit = cfg.restart_limit(restart_idx)
                    conflicts_since_restart = 0
                    core.backtrack(0)
                    dl = 0
                continue

            if core.num_learnts() >= max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * cfg.reduce_growth)

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
    max_conflicts=_KEEP,
    max_time=_KEEP,
    config: Optional[SolverConfig] = None,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`CdclSolver`.

    ``max_conflicts`` / ``max_time`` override the config's budgets when
    passed explicitly (``None`` lifts the budget, as in ``solve``).
    """
    solver = CdclSolver(num_vars=cnf.num_vars, config=config)
    if not solver.add_clauses(cnf.clauses):
        return SolveResult("unsat", stats=solver.stats)
    return solver.solve(max_conflicts=max_conflicts, max_time=max_time)
