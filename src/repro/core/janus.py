"""JANUS: dichotomic lattice synthesis driven by SAT (paper, Section III).

:func:`synthesize` implements the top-level algorithm:

1. compute the structural lower bound ``lb`` and the best initial upper
   bound ``ub`` over the DP/PS/DPS/IPS/IDPS/DS constructions (all bounds
   come with verified assignments);
2. while ``lb < ub``: probe the middle area ``mp``, generate the maximal
   candidate shapes of area at most ``mp``, and solve the LM problem for
   each candidate (choosing the cheaper of the primal/dual encodings); a
   SAT answer improves ``ub`` (and the stored assignment), otherwise
   ``lb`` becomes ``mp + 1``;
3. return the best verified assignment.

Solver timeouts are treated as "not realizable", exactly as the paper's
1200-second SAT limit is — which is one of the reasons JANUS is an
*approximate* algorithm.  Budgets here are expressed in conflicts (for
determinism) with an optional wall-clock cap.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Union

from repro.errors import SynthesisError
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.bounds import best_upper_bound
from repro.core.encoder import (
    EncodeOptions,
    LmEncoding,
    ShapeFamily,
    best_encoding,
    shape_family,
)
from repro.core.structural import structural_check, structural_lower_bound
from repro.core.target import TargetSpec
from repro.lattice.assignment import CONST0, CONST1, Entry, LatticeAssignment
from repro.lattice.paths import left_right_paths8, top_bottom_paths
from repro.sat.solver import CdclSolver, SolveResult, SolverConfig, solve_cnf

__all__ = [
    "IncrementalProber",
    "JanusOptions",
    "LmAttempt",
    "LmOutcome",
    "ProbeReuseStats",
    "SerialProber",
    "SERIAL_PROBER",
    "SynthesisResult",
    "solve_lm",
    "synthesize",
    "candidate_shapes",
    "fit_columns",
    "make_spec",
]


@dataclass(frozen=True)
class JanusOptions:
    """Configuration for a JANUS run (defaults follow the paper)."""

    max_conflicts: int = 60_000  # per LM SAT call; determinism-friendly
    lm_time_limit: Optional[float] = None  # optional per-call wall clock
    # CDCL tuning shared by every solver the run builds (probes, CEGAR,
    # equivalence checks).  The engine-level budgets above still win over
    # any budget the config carries.
    solver: SolverConfig = field(default_factory=SolverConfig)
    encode: EncodeOptions = field(default_factory=EncodeOptions)
    ub_methods: tuple[str, ...] = ("dp", "ps", "dps", "ips", "idps", "ds")
    sides: tuple[str, ...] = ("primal", "dual")
    verify: bool = True
    trim_solutions: bool = True  # drop inert edge lanes from SAT decodes
    max_lattice_products: int = 20_000  # skip candidate shapes richer than this
    ds_depth: int = 1  # recursion depth available to the DS bound
    exact_minimization: bool = True

    def for_subproblems(self) -> "JanusOptions":
        """Options for recursive JANUS calls inside DS / MF."""
        methods = tuple(m for m in self.ub_methods if m != "ds")
        return replace(
            self, ub_methods=methods, ds_depth=max(0, self.ds_depth - 1)
        )


@dataclass
class LmAttempt:
    """Record of one LM probe during the search."""

    rows: int
    cols: int
    status: str  # "sat" | "unsat" | "unknown" | "structural" | "skipped"
    side: Optional[str] = None
    complexity: int = 0
    conflicts: int = 0
    wall_time: float = 0.0
    cached: bool = False  # answered from a persistent result cache
    propagations: int = 0  # SAT propagations this probe cost
    restarts: int = 0  # solver restarts this probe performed
    reused: bool = False  # answered by a live per-instance solver / memo
    pruned: bool = False  # answered by shape domination, no solver at all
    core: str = "pure"  # propagation core that served the probe


@dataclass
class LmOutcome:
    status: str
    assignment: Optional[LatticeAssignment]
    attempt: LmAttempt


@dataclass
class SynthesisResult:
    """Final outcome of a JANUS run."""

    spec: TargetSpec
    assignment: LatticeAssignment
    lower_bound: int  # final (possibly search-refined) lower bound
    initial_upper_bound: int
    upper_bounds: dict[str, tuple[int, int]]
    attempts: list[LmAttempt] = field(default_factory=list)
    wall_time: float = 0.0
    method: str = "janus"
    initial_lower_bound: int = 0  # the paper's Table II "lb" column

    @property
    def rows(self) -> int:
        return self.assignment.rows

    @property
    def cols(self) -> int:
        return self.assignment.cols

    @property
    def size(self) -> int:
        """Number of switches — the LS objective."""
        return self.assignment.size

    @property
    def is_provably_minimum(self) -> bool:
        """True when the search closed the gap to the structural bound."""
        return self.size == self.lower_bound

    @property
    def shape(self) -> str:
        return f"{self.rows}x{self.cols}"

    def __repr__(self) -> str:
        return (
            f"SynthesisResult({self.spec.name!r}, {self.shape}, "
            f"size={self.size}, lb={self.lower_bound})"
        )


def make_spec(
    target: Union[TargetSpec, Sop, TruthTable, str],
    name: str = "f",
    exact: bool = True,
) -> TargetSpec:
    """Coerce any accepted target form into a :class:`TargetSpec`."""
    if isinstance(target, TargetSpec):
        return target
    if isinstance(target, Sop):
        return TargetSpec.from_sop(target, name=name, exact=exact)
    if isinstance(target, TruthTable):
        return TargetSpec.from_truthtable(target, name=name, exact=exact)
    if isinstance(target, str):
        return TargetSpec.from_string(target, name=name, exact=exact)
    raise SynthesisError(f"cannot interpret target of type {type(target)!r}")


# ----------------------------------------------------------------- LM probe
def _precheck_lm(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: JanusOptions,
    attempt: LmAttempt,
    start: float,
) -> Optional[LmOutcome]:
    """Solver-free checks shared by the one-shot and incremental paths."""
    if not structural_check(spec, rows, cols):
        attempt.wall_time = time.monotonic() - start
        return LmOutcome("unsat", None, attempt)
    if (
        len(top_bottom_paths(rows, cols)) > options.max_lattice_products
        and len(left_right_paths8(rows, cols)) > options.max_lattice_products
    ):
        attempt.status = "skipped"
        attempt.wall_time = time.monotonic() - start
        return LmOutcome("unknown", None, attempt)
    return None


def _choose_encoding(
    spec: TargetSpec, rows: int, cols: int, options: JanusOptions
) -> tuple[Optional[LmEncoding], list[LmEncoding]]:
    enc_options = replace(
        options.encode, max_products=options.max_lattice_products
    )
    return best_encoding(spec, rows, cols, enc_options, sides=options.sides)


def _decode_sat(
    spec: TargetSpec,
    chosen: LmEncoding,
    result: SolveResult,
    options: JanusOptions,
) -> LatticeAssignment:
    assignment = chosen.decode(result)
    if options.verify and not spec.accepts(assignment.realized_truthtable()):
        raise SynthesisError(
            f"decoded {chosen.rows}x{chosen.cols} assignment "
            f"({chosen.side} side) does not realize {spec.name}: encoder bug"
        )
    if options.trim_solutions:
        assignment = assignment.trimmed()
    return assignment


def solve_lm(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: JanusOptions = JanusOptions(),
) -> LmOutcome:
    """Decide one LM instance: structural check, encode both sides, solve
    the cheaper one, decode and verify."""
    start = time.monotonic()
    attempt = LmAttempt(rows=rows, cols=cols, status="structural")
    early = _precheck_lm(spec, rows, cols, options, attempt, start)
    if early is not None:
        return early

    chosen, built = _choose_encoding(spec, rows, cols, options)
    if chosen is None:
        if any(e.infeasible for e in built):
            attempt.status = "unsat"
            attempt.wall_time = time.monotonic() - start
            return LmOutcome("unsat", None, attempt)
        attempt.status = "skipped"
        attempt.wall_time = time.monotonic() - start
        return LmOutcome("unknown", None, attempt)

    attempt.side = chosen.side
    attempt.complexity = chosen.complexity
    result = solve_cnf(
        chosen.cnf,
        max_conflicts=options.max_conflicts,
        max_time=options.lm_time_limit,
        config=options.solver,
    )
    attempt.conflicts = result.stats.conflicts
    attempt.propagations = result.stats.propagations
    attempt.restarts = result.stats.restarts
    attempt.core = result.stats.core
    attempt.status = result.status
    attempt.wall_time = time.monotonic() - start
    if not result.is_sat:
        return LmOutcome(result.status, None, attempt)
    assignment = _decode_sat(spec, chosen, result, options)
    return LmOutcome("sat", assignment, attempt)


# ----------------------------------------------------------------- probers
class SerialProber:
    """Default LM probe strategy: solve instances one at a time, in order.

    The JANUS driver talks to its SAT backend exclusively through this
    three-method interface, which is what lets
    :class:`repro.engine.ParallelEngine` substitute a process-pool/cached
    implementation without touching the search logic.  Any replacement must
    preserve the *serial semantics*: ``first_sat`` returns the first shape
    (in the given order) that answers SAT, and appends one attempt per
    probed shape, stopping at the winner — so results stay byte-identical
    to this prober no matter how the probes are scheduled physically.
    """

    def solve(
        self,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions,
    ) -> LmOutcome:
        return solve_lm(spec, rows, cols, options)

    def upper_bounds(self, spec: TargetSpec, methods: tuple[str, ...]):
        return best_upper_bound(spec, methods)

    def first_sat(
        self,
        spec: TargetSpec,
        shapes: list[tuple[int, int]],
        options: JanusOptions,
        attempts: list[LmAttempt],
    ) -> Optional[LatticeAssignment]:
        """Probe ``shapes`` in order; return the first SAT assignment.

        ``shapes`` is all a prober learns about the search: a parallel
        prober may race them, but never probes a shape it was not given.
        """
        for rows, cols in shapes:
            outcome = self.solve(spec, rows, cols, options)
            attempts.append(outcome.attempt)
            if outcome.status == "sat":
                return outcome.assignment
        return None


SERIAL_PROBER = SerialProber()


# ------------------------------------------------------- incremental prober
@dataclass
class ProbeReuseStats:
    """Counters for one :class:`IncrementalProber` lifetime."""

    probes: int = 0  # solve()/decide() calls
    memo_hits: int = 0  # exact (shape, options) repeats replayed
    pruned_shapes: int = 0  # probes answered by shape domination/floors
    family_unsat: int = 0  # probes refuted on a live family solver
    family_sat: int = 0  # status-only probes satisfied on a family solver
    family_fallbacks: int = 0  # family probes that had to re-solve cold
    cold_solves: int = 0  # probes decided by the one-shot path
    core_widened: int = 0  # UNSAT cores that enlarged the refuted shape


@dataclass
class _FamilyState:
    """A live solver deciding one shape family."""

    family: ShapeFamily
    solver: CdclSolver
    selectors_installed: bool = False

    def ensure_selectors(self) -> None:
        if self.selectors_installed:
            return
        # Installed lazily so the bootstrap solve is literally the
        # one-shot solve: same clauses, same trajectory, same model.
        for clause in self.family.selector_clauses:
            if not self.solver.add_clause(clause):
                break  # solver already UNSAT outright; probes stay sound
        self.selectors_installed = True


class _InstanceState:
    """Everything one target function accumulates across probes."""

    def __init__(self) -> None:
        self.memo: dict[tuple[int, int], LmOutcome] = {}
        self.refuted: list[tuple[int, int]] = []  # maximal UNSAT shapes
        self.realized: list[tuple[int, int]] = []  # minimal SAT shapes
        self.families: list[_FamilyState] = []

    def dominated(self, rows: int, cols: int) -> bool:
        return any(rows <= r and cols <= c for r, c in self.refuted)

    def realizable(self, rows: int, cols: int) -> bool:
        """Monotone SAT floor: a recorded solution at a component-wise
        smaller shape extends by inert lanes, so the status is known."""
        return any(rows >= r and cols >= c for r, c in self.realized)

    def record_realized(self, rows: int, cols: int) -> None:
        if self.realizable(rows, cols):
            return
        self.realized = [
            (r, c) for r, c in self.realized if not (r >= rows and c >= cols)
        ]
        self.realized.append((rows, cols))

    def record_refuted(self, rows: int, cols: int) -> None:
        if self.dominated(rows, cols):
            return
        self.refuted = [
            (r, c) for r, c in self.refuted if not (r <= rows and c <= cols)
        ]
        self.refuted.append((rows, cols))

    def covering_family(self, rows: int, cols: int) -> Optional[_FamilyState]:
        for fam in self.families:
            if fam.family.covers(rows, cols):
                return fam
        return None


class IncrementalProber(SerialProber):
    """LM probe backend that keeps one SAT solver alive per instance.

    Drop-in :class:`SerialProber` replacement implementing the
    incremental probe protocol:

    * **Memoized repeats** — an exact ``(shape, options)`` repeat replays
      the recorded outcome (budget-capped "unknown"s only when the budget
      is a deterministic conflict count, mirroring the result cache's
      reproducibility policy).
    * **Domination pruning** — realizability is monotone in each
      dimension, so a shape component-wise below a recorded UNSAT shape
      is refuted without any solver work.
    * **Family probing** — the first solved shape's CNF stays loaded in
      a live :class:`~repro.sat.solver.CdclSolver`; smaller shapes are
      probed on it via :class:`~repro.core.encoder.ShapeFamily` selector
      assumptions, reusing its learned clauses, activities and saved
      phases.  A family UNSAT is final (the restriction is
      equisatisfiable), and its assumption core can refute a strictly
      larger rectangle of shapes than the one probed.
    * **Cold confirmation** — any probe the above cannot *refute* runs
      the exact one-shot path (:func:`solve_lm`'s encode/solve/decode),
      so every SAT assignment the driver ever sees is byte-identical to
      the serial prober's.

    The result contract: the driver's decisions depend on probe statuses
    only through "sat vs not sat" plus the found assignment's size, SAT
    outcomes are always produced by the one-shot path, and refutations
    are semantically sound — so :func:`synthesize` returns the same
    lattice with this prober as with :data:`SERIAL_PROBER`, only cheaper.
    Attempt *metadata* may differ where it reflects how the answer was
    obtained (a domination prune reports ``unsat`` with no side; a family
    refutation may answer ``unsat`` where the budget-capped one-shot
    solve would have reported ``unknown`` — the driver treats both as
    "not realizable").
    """

    def __init__(self, max_instances: int = 8, max_families: int = 4,
                 reuse: bool = True) -> None:
        self.max_instances = max_instances
        self.max_families = max_families
        self.reuse = reuse
        self.stats = ProbeReuseStats()
        self._states: OrderedDict[tuple, _InstanceState] = OrderedDict()

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _options_key(options: JanusOptions) -> str:
        return json.dumps(asdict(options), sort_keys=True, default=str)

    def _state(self, spec: TargetSpec, options: JanusOptions) -> _InstanceState:
        key = (
            spec.num_inputs,
            spec.tt.values.tobytes(),
            spec.dc.values.tobytes() if spec.dc is not None else None,
            tuple((c.pos, c.neg) for c in spec.isop.cubes),
            self._options_key(options),
        )
        state = self._states.get(key)
        if state is None:
            state = _InstanceState()
            self._states[key] = state
            while len(self._states) > self.max_instances:
                self._states.popitem(last=False)
        else:
            self._states.move_to_end(key)
        return state

    # --------------------------------------------------------------- probes
    def solve(
        self,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions,
    ) -> LmOutcome:
        start = time.monotonic()
        self.stats.probes += 1
        state = self._state(spec, options)

        memo = state.memo.get((rows, cols))
        if memo is not None and (
            memo.status != "unknown" or options.lm_time_limit is None
        ):
            self.stats.memo_hits += 1
            # Replays cost nothing: report zero work (the serial path
            # would have re-paid the original counters) and flag reuse.
            attempt = replace(
                memo.attempt,
                reused=True,
                conflicts=0,
                propagations=0,
                restarts=0,
                wall_time=time.monotonic() - start,
            )
            return LmOutcome(memo.status, memo.assignment, attempt)

        attempt = LmAttempt(rows=rows, cols=cols, status="structural")
        early = _precheck_lm(spec, rows, cols, options, attempt, start)
        if early is not None:
            state.memo[(rows, cols)] = early
            return early

        if state.dominated(rows, cols):
            self.stats.pruned_shapes += 1
            attempt.status = "unsat"
            attempt.pruned = True
            attempt.reused = True
            attempt.wall_time = time.monotonic() - start
            outcome = LmOutcome("unsat", None, attempt)
            state.memo[(rows, cols)] = outcome
            return outcome

        if self.reuse:
            fam = state.covering_family(rows, cols)
            if fam is not None:
                outcome = self._family_probe(
                    fam, state, spec, rows, cols, options, attempt, start
                )
                if outcome is not None:
                    return outcome
                # Fall through carrying the family probe's cost in
                # ``attempt`` so the fallback's accounting is honest.
                return self._cold_solve(
                    state, spec, rows, cols, options, start, attempt
                )

        return self._cold_solve(state, spec, rows, cols, options, start)

    def decide(
        self,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions = JanusOptions(),
    ) -> str:
        """Status-only realizability query: "does some ``rows x cols``
        lattice realize the target?"

        Unlike :meth:`solve`, no witness is produced, which unlocks two
        shortcuts :meth:`solve` cannot take: the *upward* monotone floor
        (a solution recorded at a smaller shape extends by inert lanes,
        so any larger shape is ``sat`` without touching a solver) and
        *trusting family SAT answers* (the family solver's model is on
        the envelope variable space and is never decoded, so :meth:`solve`
        must re-solve cold for the byte-identical witness — a pure
        status query has no such obligation).  This is the query the
        realizability-frontier analyses (and ``bench_incremental``) run
        in bulk.
        """
        start = time.monotonic()
        self.stats.probes += 1
        state = self._state(spec, options)
        if state.realizable(rows, cols):
            self.stats.pruned_shapes += 1
            return "sat"
        memo = state.memo.get((rows, cols))
        if memo is not None and (
            memo.status != "unknown" or options.lm_time_limit is None
        ):
            self.stats.memo_hits += 1
            return memo.status
        attempt = LmAttempt(rows=rows, cols=cols, status="structural")
        early = _precheck_lm(spec, rows, cols, options, attempt, start)
        if early is not None:
            state.memo[(rows, cols)] = early
            return early.status
        if state.dominated(rows, cols):
            self.stats.pruned_shapes += 1
            return "unsat"
        if self.reuse:
            fam = state.covering_family(rows, cols)
            if fam is not None:
                outcome = self._family_probe(
                    fam, state, spec, rows, cols, options, attempt, start,
                    accept_sat=True,
                )
                if outcome is not None:
                    return outcome.status
        return self._cold_solve(
            state, spec, rows, cols, options, start, attempt
        ).status

    def _family_probe(
        self,
        fam: _FamilyState,
        state: _InstanceState,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions,
        attempt: LmAttempt,
        start: float,
        accept_sat: bool = False,
    ) -> Optional[LmOutcome]:
        """Try to decide the shape on the live family solver.

        An UNSAT answer is always used: it is semantically final.  A SAT
        answer is used only for status-only queries (``accept_sat``,
        from :meth:`decide`) — its model lives on the envelope variable
        space and is never decoded, so witness-producing probes return
        ``None`` and re-solve on the one-shot path, whose model is the
        byte-identity reference.  Budget-capped answers always fall back.
        """
        fam.ensure_selectors()
        solver = fam.solver
        before_conflicts = solver.stats.conflicts
        before_props = solver.stats.propagations
        before_restarts = solver.stats.restarts
        result = solver.solve(
            fam.family.assumptions(rows, cols),
            max_conflicts=options.max_conflicts,
            max_time=options.lm_time_limit,
        )
        attempt.conflicts = solver.stats.conflicts - before_conflicts
        attempt.propagations = solver.stats.propagations - before_props
        attempt.restarts = solver.stats.restarts - before_restarts
        attempt.core = solver.stats.core
        if result.is_sat and accept_sat:
            self.stats.family_sat += 1
            state.record_realized(rows, cols)
            attempt.status = "sat"
            attempt.side = fam.family.base.side
            attempt.complexity = fam.family.base.complexity
            attempt.reused = True
            attempt.wall_time = time.monotonic() - start
            # Deliberately NOT memoized: the memo feeds solve(), which
            # must never serve a witness-less "sat".
            return LmOutcome("sat", None, attempt)
        if not result.is_unsat:
            self.stats.family_fallbacks += 1
            return None
        self.stats.family_unsat += 1
        r_ref, c_ref = fam.family.refuted_shape(result.core, rows, cols)
        if (r_ref, c_ref) != (rows, cols):
            self.stats.core_widened += 1
        state.record_refuted(r_ref, c_ref)
        attempt.status = "unsat"
        attempt.side = fam.family.base.side
        attempt.complexity = fam.family.base.complexity
        attempt.reused = True
        attempt.wall_time = time.monotonic() - start
        outcome = LmOutcome("unsat", None, attempt)
        state.memo[(rows, cols)] = outcome
        return outcome

    def _cold_solve(
        self,
        state: _InstanceState,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions,
        start: float,
        attempt: Optional[LmAttempt] = None,
    ) -> LmOutcome:
        """The one-shot path, with the solver retained as a new family.

        Loading the chosen CNF into a fresh retained solver and solving
        it is *exactly* what :func:`repro.sat.solver.solve_cnf` does, so
        the outcome (status, model, statistics) is identical to the
        serial prober's — the retained solver is a free byproduct.

        ``attempt`` carries cost already spent on this probe (a family
        probe that could not refute it); counters accumulate on top.
        """
        if attempt is None:
            attempt = LmAttempt(rows=rows, cols=cols, status="structural")
        chosen, built = _choose_encoding(spec, rows, cols, options)
        if chosen is None:
            if any(e.infeasible for e in built):
                attempt.status = "unsat"
                attempt.wall_time = time.monotonic() - start
                outcome = LmOutcome("unsat", None, attempt)
            else:
                attempt.status = "skipped"
                attempt.wall_time = time.monotonic() - start
                outcome = LmOutcome("unknown", None, attempt)
            state.memo[(rows, cols)] = outcome
            return outcome

        self.stats.cold_solves += 1
        attempt.side = chosen.side
        attempt.complexity = chosen.complexity
        family = (
            shape_family(chosen)
            if self.reuse and state.covering_family(rows, cols) is None
            else None
        )
        if family is not None:
            solver = CdclSolver(
                num_vars=chosen.cnf.num_vars, config=options.solver
            )
            result: Optional[SolveResult] = None
            for clause in chosen.cnf.clauses:
                if not solver.add_clause(clause):
                    result = SolveResult("unsat", stats=solver.stats)
                    break
            if result is None:
                result = solver.solve(
                    max_conflicts=options.max_conflicts,
                    max_time=options.lm_time_limit,
                )
            state.families.append(_FamilyState(family, solver))
            if len(state.families) > self.max_families:
                state.families.pop(0)
        else:
            result = solve_cnf(
                chosen.cnf,
                max_conflicts=options.max_conflicts,
                max_time=options.lm_time_limit,
                config=options.solver,
            )
        attempt.conflicts += result.stats.conflicts
        attempt.propagations += result.stats.propagations
        attempt.restarts += result.stats.restarts
        attempt.core = result.stats.core
        attempt.status = result.status
        attempt.wall_time = time.monotonic() - start
        if result.is_unsat:
            state.record_refuted(rows, cols)
        if not result.is_sat:
            outcome = LmOutcome(result.status, None, attempt)
            state.memo[(rows, cols)] = outcome
            return outcome
        assignment = _decode_sat(spec, chosen, result, options)
        state.record_realized(rows, cols)
        outcome = LmOutcome("sat", assignment, attempt)
        state.memo[(rows, cols)] = outcome
        return outcome


# ------------------------------------------------------------ search pieces
def candidate_shapes(area: int, lower_bound: int = 1) -> list[tuple[int, int]]:
    """Maximal lattice shapes of area at most ``area``.

    Realizability is monotone in each dimension separately (a constant-0
    column or constant-1 bottom row never changes the realized function),
    so probing only shapes maximal under component-wise domination decides
    "is there a solution with at most ``area`` switches".  Shapes whose
    area falls below the lower bound cannot host a solution and are
    dropped.  Balanced shapes come first: they have the richest lattice
    functions (Table I) and are the most likely SAT answers.
    """
    raw = {}
    for m in range(1, area + 1):
        n = area // m
        raw[(m, n)] = m * n
    shapes = [
        (m, n)
        for (m, n) in raw
        if raw[(m, n)] >= lower_bound
        and not any(
            (mm >= m and nn >= n and (mm, nn) != (m, n)) for (mm, nn) in raw
        )
    ]
    return sorted(shapes, key=lambda s: (-(s[0] * s[1]), abs(s[0] - s[1])))


def fit_columns(
    spec: TargetSpec,
    rows: int,
    max_cols: int,
    options: JanusOptions = JanusOptions(),
    attempts: Optional[list[LmAttempt]] = None,
    prober: Optional[SerialProber] = None,
) -> Optional[LatticeAssignment]:
    """Smallest-width realization on a fixed number of rows.

    Binary search over the column count (realizability is monotone in the
    width); returns ``None`` when even ``rows x max_cols`` is not solved
    within budgets.  Used by the DS bound, JANUS-MF and the [11]-style
    baseline.
    """
    prober = prober or SERIAL_PROBER
    lo, hi = 1, max_cols
    best: Optional[LatticeAssignment] = None
    # First make sure the widest lattice works at all.
    outcome = prober.solve(spec, rows, max_cols, options)
    if attempts is not None:
        attempts.append(outcome.attempt)
    if outcome.status != "sat":
        return None
    best = outcome.assignment
    hi = max_cols - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        outcome = prober.solve(spec, rows, mid, options)
        if attempts is not None:
            attempts.append(outcome.attempt)
        if outcome.status == "sat":
            best = outcome.assignment
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _trivial_result(spec: TargetSpec) -> Optional[SynthesisResult]:
    """Constants and single products skip the search entirely."""
    if spec.tt.is_zero():
        la = LatticeAssignment(1, 1, [CONST0], spec.num_inputs, spec.name_list())
        return SynthesisResult(
            spec, la, 1, 1, {"trivial": (1, 1)}, initial_lower_bound=1
        )
    if spec.tt.is_one():
        la = LatticeAssignment(1, 1, [CONST1], spec.num_inputs, spec.name_list())
        return SynthesisResult(
            spec, la, 1, 1, {"trivial": (1, 1)}, initial_lower_bound=1
        )
    if spec.num_products == 1:
        cube = spec.isop.cubes[0]
        if cube.is_tautology():
            # Possible with don't-cares: constant 1 lies in the interval.
            la = LatticeAssignment(
                1, 1, [CONST1], spec.num_inputs, spec.name_list()
            )
            return SynthesisResult(
                spec, la, 1, 1, {"trivial": (1, 1)}, initial_lower_bound=1
            )
        entries = [Entry.lit(v, pos) for v, pos in cube.literals()]
        la = LatticeAssignment(
            len(entries), 1, entries, spec.num_inputs, spec.name_list()
        )
        if not spec.accepts(la.realized_truthtable()):
            raise SynthesisError("single-product column failed verification")
        k = len(entries)
        return SynthesisResult(
            spec, la, k, k, {"trivial": (k, 1)}, initial_lower_bound=k
        )
    return None


# ------------------------------------------------------------------- driver
def synthesize(
    target: Union[TargetSpec, Sop, TruthTable, str],
    name: str = "f",
    options: JanusOptions = JanusOptions(),
    prober: Optional[SerialProber] = None,
) -> SynthesisResult:
    """Run JANUS on a target function and return the best found lattice.

    ``prober`` selects the LM probe backend; the default solves serially
    in-process.  Pass a :class:`repro.engine.ParallelEngine` to race the
    candidate shapes of each dichotomic step across worker processes
    and/or answer repeated probes from a persistent cache — the search
    decisions (and therefore the result) are identical either way.
    """
    start = time.monotonic()
    prober = prober or SERIAL_PROBER
    spec = make_spec(target, name=name, exact=options.exact_minimization)
    trivial = _trivial_result(spec)
    if trivial is not None:
        trivial.wall_time = time.monotonic() - start
        return trivial

    lb = structural_lower_bound(spec)
    initial_lb = lb

    methods = options.ub_methods
    if options.ds_depth <= 0:
        methods = tuple(m for m in methods if m != "ds")
    basic_methods = tuple(m for m in methods if m != "ds")
    best_bound, all_bounds = prober.upper_bounds(spec, basic_methods)
    if "ds" in methods:
        from repro.core.decompose import ub_ds  # lazy: DS calls back into JANUS

        try:
            ds_bound = ub_ds(spec, options, prober=prober)
            all_bounds["ds"] = ds_bound
            if ds_bound.size < best_bound.size:
                best_bound = ds_bound
        except SynthesisError:
            pass

    upper_bounds = {k: (v.rows, v.cols) for k, v in all_bounds.items()}
    best_assignment = best_bound.assignment
    ub = best_bound.size
    initial_ub = ub
    attempts: list[LmAttempt] = []

    while lb < ub:
        mp = (lb + ub) // 2
        found = prober.first_sat(
            spec, candidate_shapes(mp, lb), options, attempts
        )
        if found is not None:
            best_assignment = found
            ub = found.size
        else:
            lb = mp + 1

    result = SynthesisResult(
        spec=spec,
        assignment=best_assignment,
        lower_bound=lb,
        initial_upper_bound=initial_ub,
        upper_bounds=upper_bounds,
        attempts=attempts,
        initial_lower_bound=initial_lb,
    )
    result.wall_time = time.monotonic() - start
    return result
