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

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.errors import SynthesisError
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.bounds import best_upper_bound
from repro.core.encoder import EncodeOptions, best_encoding
from repro.core.structural import structural_check, structural_lower_bound
from repro.core.target import TargetSpec
from repro.lattice.assignment import CONST0, CONST1, Entry, LatticeAssignment
from repro.lattice.paths import left_right_paths8, top_bottom_paths
from repro.sat.solver import SolverConfig, solve_cnf

__all__ = [
    "JanusOptions",
    "LmAttempt",
    "LmOutcome",
    "SerialProber",
    "SERIAL_PROBER",
    "SynthesisResult",
    "solve_lm",
    "synthesize",
    "candidate_shapes",
    "fit_columns",
    "make_spec",
]


# Probe statuses that settle a shape: a budget-limited ``unknown`` or a
# ``skipped`` probe leaves it open.
_DECIDED = ("sat", "unsat", "structural")


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
    # Always False: every probe is a one-shot solve.  Kept so stored
    # payloads and the wire schema stay stable.
    reused: bool = False
    pruned: bool = False
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
        """True when the run proved that no smaller lattice exists.

        Either the size meets the structural bound, or the search closed
        the gap and every probe was decided (a proof relative to the LM
        encoding).  ``lower_bound`` also rises past ``unknown`` and
        ``skipped`` probes, so a run that hit a budget proves nothing
        beyond its structural bound.
        """
        if self.size == self.initial_lower_bound:
            return True
        return self.size == self.lower_bound and all(
            a.status in _DECIDED for a in self.attempts
        )

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

    enc_options = replace(
        options.encode, max_products=options.max_lattice_products
    )
    chosen, built = best_encoding(
        spec, rows, cols, enc_options, sides=options.sides
    )
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
    assignment = chosen.decode(result)
    if options.verify and not spec.accepts(assignment.realized_truthtable()):
        raise SynthesisError(
            f"decoded {chosen.rows}x{chosen.cols} assignment "
            f"({chosen.side} side) does not realize {spec.name}: encoder bug"
        )
    if options.trim_solutions:
        assignment = assignment.trimmed()
    return LmOutcome("sat", assignment, attempt)


# ----------------------------------------------------------------- probers
class SerialProber:
    """Default LM probe strategy: solve instances one at a time, in order.

    The JANUS driver talks to its SAT backend exclusively through this
    three-method interface, which is what lets
    :class:`repro.engine.ParallelEngine` substitute a cached
    implementation without touching the search logic.  Any replacement must
    preserve the *serial semantics*: ``first_sat`` returns the first shape
    (in the given order) that answers SAT, and appends one attempt per
    probed shape, stopping at the winner — so results stay byte-identical
    to this prober no matter where an outcome comes from.
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

        ``shapes`` is all a prober learns about the search: a prober
        never probes a shape it was not given.
        """
        for rows, cols in shapes:
            outcome = self.solve(spec, rows, cols, options)
            attempts.append(outcome.attempt)
            if outcome.status == "sat":
                return outcome.assignment
        return None


SERIAL_PROBER = SerialProber()


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
    in-process.  Pass a :class:`repro.engine.ParallelEngine` to answer
    repeated probes from a persistent cache — the search decisions (and
    therefore the result) are identical either way.
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
