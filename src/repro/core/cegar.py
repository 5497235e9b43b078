"""Lazy (CEGAR) solving of the LM problem.

The paper's encoding instantiates a constraint block for *every*
truth-table entry up front (grouped by TL pattern).  That is wasteful
when a handful of entries already pins the mapping down — which is
typical: most entries are satisfied by most mappings.

This module solves LM by counterexample-guided abstraction refinement:

1. start from the mapping variables and their exactly-one constraints
   only (every assignment of literals to switches is a candidate);
2. ask the incremental CDCL solver for a candidate mapping;
3. *verify* the decoded lattice against the target with the independent
   flood-fill evaluator; if it realizes the target, done;
4. otherwise take one violated truth-table entry, add exactly that
   entry's constraint block (the same clauses the eager encoder would
   have emitted for its TL pattern), and repeat.

Soundness is inherited from the eager encoder: the abstraction's clause
set is always a subset of the full encoding, so an UNSAT answer is a
real refutation; a SAT answer is only accepted after the checker passes.
Termination: each refinement adds a block for a *new* TL pattern, and
there are finitely many patterns (at which point the abstraction equals
the full encoding).

The refinement works on the primal side (the decoded candidate is
verified directly; no dual constant-flip involved).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SynthesisError
from repro.core.encoder import EncodeOptions, _target_literal_set
from repro.core.target import TargetSpec
from repro.lattice.assignment import CONST0, CONST1, Entry, LatticeAssignment
from repro.lattice.paths import top_bottom_paths
from repro.sat.cnf import Cnf
from repro.sat.encodings import exactly_one
from repro.sat.solver import CdclSolver, SolverConfig

__all__ = ["CegarStats", "CegarOutcome", "solve_lm_cegar", "solve_lm_lazy"]


@dataclass
class CegarStats:
    """Work counters for one CEGAR run."""

    iterations: int = 0
    one_blocks: int = 0
    zero_blocks: int = 0
    clauses: int = 0
    wall_time: float = 0.0


@dataclass
class CegarOutcome:
    """Result of :func:`solve_lm_cegar`.

    ``status`` is ``"sat"`` (``assignment`` holds a verified lattice),
    ``"unsat"`` (refuted — with the usual caveat that a solver budget
    exhaustion surfaces as ``"unknown"``), or ``"unknown"``.
    """

    status: str
    assignment: Optional[LatticeAssignment] = None
    stats: CegarStats = field(default_factory=CegarStats)


def solve_lm_cegar(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: EncodeOptions = EncodeOptions(),
    max_conflicts: Optional[int] = 200_000,
    max_iterations: Optional[int] = None,
    max_time: Optional[float] = None,
    config: Optional[SolverConfig] = None,
) -> CegarOutcome:
    """Decide the LM instance lazily; see the module docstring.

    ``max_conflicts`` budgets each incremental solver call and ``max_time``
    caps the whole refinement loop (checked between iterations and passed
    through to the solver), so one hard instance cannot run away with
    its caller.  ``config``
    tunes the underlying CDCL solver; the explicit budgets here still
    override any the config carries.
    """
    start = time.monotonic()
    stats = CegarStats()

    tl = _target_literal_set(spec.isop)
    lit_entries = [e for e in tl if not e.is_const]
    const0_idx = tl.index(CONST0)
    const1_idx = tl.index(CONST1)
    num_cells = rows * cols
    if len(top_bottom_paths(rows, cols)) > options.max_products:
        stats.wall_time = time.monotonic() - start
        return CegarOutcome("unknown", stats=stats)
    products = top_bottom_paths(rows, cols)
    product_cells = [
        [i for i in range(num_cells) if mask >> i & 1] for mask in products
    ]
    levels = [[r * cols + c for c in range(cols)] for r in range(rows)]
    cross = [
        [(r * cols + c, (r + 1) * cols + c) for c in range(cols)]
        for r in range(rows - 1)
    ]

    cnf = Cnf()
    mapping: dict[tuple[int, int], int] = {}
    for cell in range(num_cells):
        for j in range(len(tl)):
            mapping[(cell, j)] = cnf.pool.var(("m", cell, j))
    for cell in range(num_cells):
        exactly_one(
            cnf,
            [mapping[(cell, j)] for j in range(len(tl))],
            method=options.eo_method,
        )

    solver = CdclSolver(config=config)
    fed = 0

    def feed() -> bool:
        """Push clauses added to ``cnf`` since the last call; False on
        trivial UNSAT."""
        nonlocal fed
        ok = True
        while fed < len(cnf.clauses):
            ok = solver.add_clause(cnf.clauses[fed]) and ok
            fed += 1
        return ok

    def add_zero_block(pattern: tuple[bool, ...]) -> None:
        false_idx = [j for j, val in enumerate(pattern) if not val]
        false_idx.append(const0_idx)
        for cells in product_cells:
            cnf.add([mapping[(i, j)] for i in cells for j in false_idx])
        stats.zero_blocks += 1

    def add_one_block(pattern: tuple[bool, ...], pid: int) -> None:
        true_idx = [j for j, val in enumerate(pattern) if val]
        true_idx.append(const1_idx)
        v_vars = []
        for cell in range(num_cells):
            v = cnf.pool.var(("v", pid, cell))
            v_vars.append(v)
            cnf.add([-v] + [mapping[(cell, j)] for j in true_idx])
        selectors = []
        for p_idx, cells in enumerate(product_cells):
            s = cnf.pool.var(("s", pid, p_idx))
            selectors.append(s)
            for i in cells:
                cnf.add([-s, v_vars[i]])
        cnf.add(selectors)
        if options.row_facts:
            for level_cells in levels:
                cnf.add([v_vars[i] for i in level_cells])
            for b_idx, pairs in enumerate(cross):
                b_vars = []
                for k, (a, b) in enumerate(pairs):
                    bv = cnf.pool.var(("b", pid, b_idx, k))
                    b_vars.append(bv)
                    cnf.add([-bv, v_vars[a]])
                    cnf.add([-bv, v_vars[b]])
                cnf.add(b_vars)
        stats.one_blocks += 1

    def decode(model: list[bool]) -> LatticeAssignment:
        entries: list[Entry] = []
        for cell in range(num_cells):
            chosen: Optional[Entry] = None
            for j, tl_entry in enumerate(tl):
                if model[mapping[(cell, j)] - 1]:
                    chosen = tl_entry
                    break
            if chosen is None:  # pragma: no cover - exactly-one forbids it
                raise SynthesisError(f"cell {cell} unmapped")
            entries.append(chosen)
        return LatticeAssignment(
            rows, cols, entries, spec.num_inputs, spec.name_list()
        )

    constrained: set[tuple[bool, ...]] = set()
    limit = max_iterations if max_iterations is not None else 1 << 62

    while stats.iterations < limit:
        if max_time is not None and time.monotonic() - start > max_time:
            break
        stats.iterations += 1
        if not feed():
            stats.clauses = len(cnf.clauses)
            stats.wall_time = time.monotonic() - start
            return CegarOutcome("unsat", stats=stats)
        result = solver.solve(max_conflicts=max_conflicts, max_time=max_time)
        if result.status == "unknown":
            break
        if result.is_unsat:
            stats.clauses = len(cnf.clauses)
            stats.wall_time = time.monotonic() - start
            return CegarOutcome("unsat", stats=stats)

        candidate = decode(result.model)
        realized = candidate.realized_truthtable()
        # Violations against the target interval [tt, upper].
        missing = spec.tt - realized  # required 1, realized 0
        excess = realized - spec.upper  # required 0, realized 1
        if missing.is_zero() and excess.is_zero():
            stats.clauses = len(cnf.clauses)
            stats.wall_time = time.monotonic() - start
            return CegarOutcome("sat", assignment=candidate, stats=stats)

        refined = False
        for table, is_one in ((missing, True), (excess, False)):
            for entry in table.onset():
                pattern = tuple(e.evaluate(entry) for e in lit_entries)
                key = (is_one,) + pattern
                if key in constrained:
                    continue
                constrained.add(key)
                if is_one:
                    add_one_block(pattern, pid=stats.one_blocks)
                else:
                    add_zero_block(pattern)
                refined = True
                break  # one new block per counterexample table
            if refined:
                break
        if not refined:  # pragma: no cover - defensive
            raise SynthesisError(
                "candidate violates the target but every violated pattern "
                "is already constrained"
            )

    stats.clauses = len(cnf.clauses)
    stats.wall_time = time.monotonic() - start
    return CegarOutcome("unknown", stats=stats)


def solve_lm_lazy(spec: TargetSpec, rows: int, cols: int, options=None):
    """CEGAR-backed drop-in for :func:`repro.core.janus.solve_lm`.

    Accepts the same :class:`~repro.core.janus.JanusOptions` and returns
    the same :class:`~repro.core.janus.LmOutcome`, which is what lets the
    ``cegar`` backend (:mod:`repro.api.backends`) run the unchanged
    dichotomic search with this decision procedure per LM instance.
    """
    from dataclasses import replace

    from repro.core.janus import JanusOptions, LmAttempt, LmOutcome
    from repro.core.structural import structural_check

    if options is None:
        options = JanusOptions()
    start = time.monotonic()
    attempt = LmAttempt(rows=rows, cols=cols, status="structural", side="cegar")
    if not structural_check(spec, rows, cols):
        attempt.wall_time = time.monotonic() - start
        return LmOutcome("unsat", None, attempt)
    enc_options = replace(
        options.encode, max_products=options.max_lattice_products
    )
    outcome = solve_lm_cegar(
        spec,
        rows,
        cols,
        enc_options,
        max_conflicts=options.max_conflicts,
        max_time=options.lm_time_limit,
        config=options.solver,
    )
    attempt.status = outcome.status
    attempt.wall_time = time.monotonic() - start
    assignment = outcome.assignment
    if assignment is not None and options.trim_solutions:
        assignment = assignment.trimmed()
    return LmOutcome(outcome.status, assignment, attempt)
