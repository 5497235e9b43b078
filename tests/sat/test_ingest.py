"""The bulk clause ingest and the inlined VSIDS sift-up.

``CdclSolver.add_clauses`` is the solver's one ingest path and
``add_clause`` is its one-clause case.  These tests hold it to the
historical clause-by-clause semantics, written out below as a reference
over the core's primitive methods: sort and deduplicate, skip
tautologies and level-0-satisfied clauses, drop level-0-false literals
(logging the strengthened clause), propagate units at once, attach the
rest.  Stats, DRUP proof, core state and the whole solve trajectory must
agree, on every core that is built.

The second half pins solve trajectories with both decay constants
patched to 0.5 (``VAR_DECAY`` / ``CLAUSE_DECAY``, which the driver hands
to the core): activities double every conflict, so both
activity rescales (at 1e100, about every 332 conflicts) fire several
times and the inlined sift-ups run on rescaled keys.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.errors import SolverError
from repro.sat import solver as solver_module
from repro.sat.solver import CdclSolver, available_cores

CORES = available_cores()


def reference_add_clause(solver: CdclSolver, ext_lits) -> bool:
    """Clause-by-clause ingest, spelled out over the core's primitive
    methods (``value``, ``enqueue``, ``propagate``, ``attach``)."""
    if not solver.ok:
        return False
    core = solver._core
    for lit in ext_lits:
        if lit == 0:
            raise SolverError("literal 0 is not allowed")
    top = max((abs(lit) for lit in ext_lits), default=0)
    while core.num_vars() < top:
        core.add_var()
    lits = sorted({(abs(e) - 1) * 2 + (e < 0) for e in ext_lits})
    out: list[int] = []
    for lit in lits:
        if lit ^ 1 in out:
            return True
        val = core.value(lit)
        if val == 1:
            return True
        if val == 0:
            continue
        out.append(lit)
    if len(out) < len(lits):
        solver._log_proof("a", out)
    if not out:
        solver.ok = False
        return False
    if len(out) == 1:
        core.enqueue(out[0], -1)
        if core.propagate() >= 0:
            solver._log_proof("a", [])
            solver.ok = False
            return False
        return True
    core.attach(out, 0, 0)
    return True


def random_cnf(seed: int) -> list[list[int]]:
    """Units (so later literals go false or true at level 0), duplicate
    literals, tautologies and repeated clauses, over a small universe."""
    rng = random.Random(seed)
    num_vars = rng.randint(4, 30)
    clauses = []
    for _ in range(rng.randint(5, 120)):
        kind = rng.random()
        width = 1 if kind < 0.12 else rng.choice([2, 2, 3, 3, 3, 4, 6])
        clause = [
            rng.choice((-1, 1)) * rng.randint(1, num_vars)
            for _ in range(width)
        ]
        if kind > 0.9:
            clause.append(-clause[0])  # tautology
        elif kind > 0.8:
            clause.append(clause[-1])  # duplicate literal
        if clauses and rng.random() < 0.05:
            clause = list(clauses[-1])  # repeated clause
        clauses.append(clause)
    return clauses


def observe(solver: CdclSolver, ok: bool) -> dict:
    """Everything observable after ingest, then after a solve."""
    after_ingest = {
        "ok": ok,
        "num_vars": solver._core.num_vars(),
        "num_clauses": solver._core.num_clauses(),
        "propagations": solver._core.propagation_count(),
        "proof": list(solver.proof),
    }
    result = solver.solve(max_conflicts=2000)
    stats = asdict(solver.stats)
    stats.pop("core")
    return {
        "ingest": after_ingest,
        "status": result.status,
        "model": result.model,
        "stats": stats,
        "proof": list(solver.proof),
    }


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("seed", range(60))
def test_bulk_ingest_matches_clause_by_clause(core, seed):
    clauses = random_cnf(seed)
    runs = []
    for mode in ("bulk", "single", "reference"):
        solver = CdclSolver(num_vars=3, proof=True, core=core)
        if mode == "bulk":
            ok = solver.add_clauses(clauses)
        else:
            add = solver.add_clause if mode == "single" else (
                lambda c, s=solver: reference_add_clause(s, c)
            )
            ok = True
            for clause in clauses:
                ok = add(clause) and ok
        runs.append(observe(solver, ok))
    assert runs[0] == runs[1] == runs[2]


def test_seeds_cover_every_ingest_case():
    """The random CNFs above really reach each simplification branch."""
    seen = set()
    for seed in range(60):
        solver = CdclSolver(proof=True, core="pure")
        for clause in random_cnf(seed):
            before = len(solver.proof)
            if not solver.add_clause(clause):
                seen.add("unsat")
                break
            if len(set(clause)) < len(clause):
                seen.add("duplicate")
            if any(-lit in clause for lit in clause):
                seen.add("tautology")
            if len(solver.proof) > before:
                seen.add("strengthened")
    assert seen == {"duplicate", "tautology", "strengthened", "unsat"}


@pytest.mark.parametrize("core", CORES)
def test_literal_zero_raises_after_earlier_clauses(core):
    bulk = CdclSolver(proof=True, core=core)
    with pytest.raises(SolverError, match="literal 0"):
        bulk.add_clauses([[1, 2], [-1], [2, 0, 3], [4, 5]])
    single = CdclSolver(proof=True, core=core)
    single.add_clause([1, 2])
    single.add_clause([-1])
    assert observe(bulk, True) == observe(single, True)


@pytest.mark.parametrize("core", CORES)
def test_ingest_stops_at_the_first_unsat_clause(core):
    solver = CdclSolver(proof=True, core=core)
    assert not solver.add_clauses([[1], [-1, 2], [-2], [3, 4], [5, 6, 7]])
    assert solver._core.num_vars() == 2  # [3, 4] was never read
    assert solver.proof == [("a", (2,)), ("a", ())]
    assert not solver.add_clauses([[8, 9]])
    assert solver.solve().status == "unsat"


# ------------------------------------------------- activity-rescale pins
def rand3sat(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [
        [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 3)
        ]
        for _ in range(num_clauses)
    ]


def pigeonhole(holes: int) -> list[list[int]]:
    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


RESCALE_PINS = [
    pytest.param(
        pigeonhole(6),
        "unsat",
        dict(conflicts=1168, decisions=1428, propagations=14175, restarts=6,
             learned=1163, deleted=499, max_decision_level=19),
        "27492c07a10b4bd04aac872874025261135d3aa49c734b77cc90736149be8285",
        None,
        id="php6",
    ),
    pytest.param(
        rand3sat(110, 462, 0),
        "sat",
        dict(conflicts=866, decisions=1122, propagations=21039, restarts=6,
             learned=866, deleted=0, max_decision_level=21),
        "6535b1ba434f44b3b52c1dc6c86c4fed5992b0d2633280e841cf9836bd5e3240",
        "7539acfc10c4cb2ee9c2871d2c3d415134fd3e22a297958f7a347404730a8f71",
        id="r3-110",
    ),
]


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("clauses,status,stats,proof_sha,model_sha",
                         RESCALE_PINS)
def test_rescale_heavy_trajectory_is_pinned(
    monkeypatch, core, clauses, status, stats, proof_sha, model_sha
):
    monkeypatch.setattr(solver_module, "VAR_DECAY", 0.5)
    monkeypatch.setattr(solver_module, "CLAUSE_DECAY", 0.5)
    solver = CdclSolver(proof=True, core=core)
    assert solver.add_clauses(clauses)
    result = solver.solve()
    # 2 ** 332 > 1e100: each activity stream rescales about every 332
    # conflicts, so these runs cross the rescale path at least twice.
    assert stats["conflicts"] > 2 * 332
    got = asdict(solver.stats)
    got.pop("core")
    assert (result.status, got) == (status, stats)
    assert _sha(solver.proof) == proof_sha
    if model_sha is not None:
        assert _sha(result.model) == model_sha
