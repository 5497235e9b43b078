"""Byte-identity between the pure and native propagation cores.

The native kernel is only allowed to make the solver *faster*, never
*different*: for any workload, preset, and budget, both cores must
produce the same decisions, the same learnt clauses, the same
statistics, the same models, the same UNSAT assumption cores, and the
same DRUP proof — byte for byte.  These tests pin that contract, plus
the selection seam around it (``JANUS_NATIVE``, missing-extension
fallback, pickle round-trips of the batch shard task).

When the extension is not built, the parity matrix skips (there is
nothing to compare against) but the fallback tests still run — a
pure-only checkout must pass this file.
"""

from __future__ import annotations

import functools
import json
import pickle
import random
from dataclasses import asdict, replace

import pytest

from repro.api.schema import RequestOptions, SynthesisRequest
from repro.api.session import _run_shard
from repro.errors import SolverError
from repro.sat import _native, check_refutation
from repro.sat.solver import (
    SOLVER_PRESETS,
    CdclSolver,
    PurePythonCore,
    available_cores,
    resolve_core_class,
)

NATIVE = "native" in available_cores()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native kernel not built (run `make native`)"
)


# ------------------------------------------------------------- workloads
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


def trajectory(core, clauses, preset="default", assumptions=(), **budgets):
    """Everything observable about one solve, as plain data."""
    solver = CdclSolver(
        config=replace(SOLVER_PRESETS[preset], **budgets),
        core=core,
        proof=True,
    )
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    result = (
        solver.solve(assumptions=list(assumptions))
        if ok
        else None
    )
    return {
        "added_ok": ok,
        "status": result.status if result else "unsat",
        "model": result.model if result else None,
        "unsat_core": result.core if result else None,
        "stats": {
            k: v
            for k, v in asdict(solver.stats).items()
            if k != "core"  # the one field allowed to differ
        },
        "proof": list(solver.proof),
    }


CASES = [
    pytest.param(rand3sat(40, 168, seed), (), id=f"r3-{seed}")
    for seed in range(6)
] + [
    pytest.param(pigeonhole(4), (), id="php4"),
    pytest.param(rand3sat(40, 160, 99), (1, -2, 3, -4, 5), id="assumptions"),
]


# ------------------------------------------------------- the parity matrix
@needs_native
@pytest.mark.parametrize("preset", sorted(SOLVER_PRESETS))
@pytest.mark.parametrize("clauses,assumptions", CASES)
def test_trajectory_identity(preset, clauses, assumptions):
    pure = trajectory("pure", clauses, preset, assumptions)
    native = trajectory("native", clauses, preset, assumptions)
    assert pure == native


@needs_native
def test_analyze_at_levels_beyond_var_count():
    """Satisfied/duplicate assumptions open *empty* decision levels, so
    a conflict can be analyzed at a level far beyond the variable
    count.  Regression: the native kernel sized its per-level LBD stamp
    array by variable capacity and wrote out of bounds here; it must be
    sized by decision level."""
    clauses = [[-1, 2], [-3, 4], [-3, -4]]
    # 1 decides level 1 and implies 2; every repeated "2" is already
    # satisfied and opens an empty level; 3 then conflicts at a level
    # ~500 with only 4 variables allocated.
    assumptions = [1] + [2] * 500 + [3]
    pure = trajectory("pure", clauses, assumptions=assumptions)
    native = trajectory("native", clauses, assumptions=assumptions)
    assert pure == native
    assert native["status"] == "unsat"
    assert 3 in (native["unsat_core"] or [])


@needs_native
def test_stats_report_which_core_served():
    clauses = rand3sat(20, 84, 0)
    assert trajectory is not None  # keep imports honest
    for core in ("pure", "native"):
        solver = CdclSolver(core=core)
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.stats.core == core


@needs_native
@pytest.mark.parametrize("seed", range(4))
def test_unsat_proofs_match_and_check(seed):
    clauses = rand3sat(30, 180, 1000 + seed)  # dense: usually unsat
    pure = trajectory("pure", clauses)
    native = trajectory("native", clauses)
    assert pure == native
    if pure["status"] == "unsat" and pure["added_ok"]:
        check = check_refutation(clauses, pure["proof"])
        assert check.valid
        assert check_refutation(clauses, native["proof"]).valid


@needs_native
def test_budget_cutoffs_agree():
    clauses = pigeonhole(7)  # hard enough to hit a small budget
    pure = trajectory("pure", clauses, max_conflicts=200)
    native = trajectory("native", clauses, max_conflicts=200)
    assert pure["status"] == "unknown"
    assert pure == native


@needs_native
def test_incremental_reuse_stays_identical():
    clauses = rand3sat(30, 120, 7)
    solvers = {
        core: CdclSolver(core=core, config=SOLVER_PRESETS["stable"])
        for core in ("pure", "native")
    }
    for solver in solvers.values():
        for clause in clauses:
            solver.add_clause(clause)
    for assumptions in ([1, 2], [-1, -2, -3], [], [5, -6]):
        results = {
            core: solver.solve(assumptions=assumptions)
            for core, solver in solvers.items()
        }
        assert results["pure"].status == results["native"].status
        assert results["pure"].model == results["native"].model
        assert results["pure"].core == results["native"].core
        pure_stats = asdict(results["pure"].stats)
        native_stats = asdict(results["native"].stats)
        pure_stats.pop("core"), native_stats.pop("core")
        assert pure_stats == native_stats


# ------------------------------------------------------ the selection seam
def test_env_zero_forces_pure(monkeypatch):
    monkeypatch.setenv("JANUS_NATIVE", "0")
    assert resolve_core_class() is PurePythonCore
    assert CdclSolver().core_name == "pure"


@needs_native
def test_env_one_requires_native(monkeypatch):
    monkeypatch.setenv("JANUS_NATIVE", "1")
    assert CdclSolver().core_name == "native"


def test_env_one_without_extension_raises(monkeypatch):
    monkeypatch.setenv("JANUS_NATIVE", "1")
    monkeypatch.setattr(_native, "NativeCore", None)
    with pytest.raises(SolverError, match="make native"):
        resolve_core_class()


def test_missing_extension_falls_back_to_pure(monkeypatch):
    monkeypatch.delenv("JANUS_NATIVE", raising=False)
    monkeypatch.setattr(_native, "NativeCore", None)
    assert resolve_core_class() is PurePythonCore
    clauses = rand3sat(15, 40, 3)
    solver = CdclSolver()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    assert result.stats.core == "pure"


def test_unknown_core_name_rejected():
    with pytest.raises(SolverError, match="unknown propagation core"):
        CdclSolver(core="cython")


# -------------------------------------------------- pickle seam round-trip
@pytest.mark.parametrize("env", ["0", ""])
def test_batch_shard_task_pickle_round_trip(monkeypatch, env):
    """A batch shard task carries only the request's JSON, never a pinned
    core; each process resolves its own — parity makes the answer
    identical either way."""
    if env:
        monkeypatch.setenv("JANUS_NATIVE", env)
    else:
        monkeypatch.delenv("JANUS_NATIVE", raising=False)
    task = functools.partial(_run_shard, cache=None, memory=None, npn=False)
    body = SynthesisRequest.from_target(
        "cd + c'd' + abe", options=RequestOptions(max_conflicts=5_000)
    ).to_json()
    thawed_task, thawed_body = pickle.loads(pickle.dumps((task, body)))
    assert thawed_body == body
    runs = []
    for run, item in ((task, body), (thawed_task, thawed_body)):
        text, events = run(item)
        wire = json.loads(text)
        del wire["wall_time"], wire["stats"]
        for attempt in wire["attempts"]:
            del attempt["wall_time"]
        runs.append(wire)
        assert events[0]["event"] == "synthesis_started"
        assert events[-1]["event"] == "synthesis_finished"
    first, second = runs
    assert first == second
    assert any(a["status"] == "sat" for a in first["attempts"])
    expected = "pure" if env == "0" or not NATIVE else "native"
    solved = [a for a in first["attempts"] if a["status"] != "structural"]
    assert solved and all(a["core"] == expected for a in solved)
