"""The one CDCL search policy: constants, cache-key material, budgets.

The policy (Luby restarts, EVSIDS with phase saving, the reduce
schedule) is a set of module constants in :mod:`repro.sat.solver`.  The
probe and suite cache keys still carry the ``solver_config`` block that
used to tune it, frozen at the same values, so keys written before the
policy was fixed keep matching.  This file pins the two together and
checks what the policy must still deliver: deterministic trajectories,
per-call budgets and DRAT-checkable refutations.
"""

import dataclasses
import random

import pytest

from repro.core.janus import JanusOptions
from repro.engine.signature import options_fingerprint
from repro.sat import CdclSolver, check_refutation, solve_cnf
from repro.sat import solver as solver_module
from repro.sat.cnf import Cnf, VarPool


def php_clauses(holes: int) -> list[list[int]]:
    """Pigeonhole principle: holes+1 pigeons into ``holes`` holes — UNSAT."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def trajectory(clauses, **kwargs):
    """Everything observable about one solve, for identity comparisons."""
    solver = CdclSolver(**kwargs)
    solver.add_clauses(clauses)
    result = solver.solve()
    return result.status, result.model, dataclasses.asdict(solver.stats)


def test_key_material_matches_the_policy_constants():
    block = options_fingerprint(JanusOptions())["solver_config"]
    assert block == {
        "restart_strategy": "luby",
        "restart_base": solver_module.RESTART_BASE,
        "restart_growth": 1.5,
        "var_decay": solver_module.VAR_DECAY,
        "clause_decay": solver_module.CLAUSE_DECAY,
        "phase_saving": "save",
        "reduce_base": solver_module.REDUCE_BASE,
        "reduce_growth": solver_module.REDUCE_GROWTH,
        "max_conflicts": None,
        "max_time": None,
    }
    assert "solver" not in options_fingerprint(JanusOptions())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trajectory_is_deterministic(seed):
    clauses = random_3cnf(12, 50, seed)
    assert trajectory(clauses) == trajectory(clauses)


def test_unsat_trajectory_emits_valid_refutation():
    clauses = php_clauses(3)
    solver = CdclSolver(proof=True)
    solver.add_clauses(clauses)
    assert solver.solve().is_unsat
    check = check_refutation(clauses, solver.proof)
    assert check.valid, check.reason


def test_solve_cnf_takes_per_call_budgets():
    pool = VarPool()
    a, b = pool.fresh(), pool.fresh()
    cnf = Cnf(pool)
    cnf.add([a, b])
    cnf.add([-a])
    budgeted = solve_cnf(cnf, max_conflicts=1)
    assert budgeted.status == "sat"
    assert budgeted.value(b)

    pool = VarPool()
    for _ in range(6 * 5):
        pool.fresh()
    hard = Cnf(pool)
    for clause in php_clauses(5):
        hard.add(clause)
    assert solve_cnf(hard, max_conflicts=1).status == "unknown"
    assert solve_cnf(hard, max_time=0.0).status == "unknown"
    assert solve_cnf(hard).status == "unsat"
