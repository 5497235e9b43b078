"""Solver-level contracts the incremental probe engine stands on:
per-call budgets on a reused solver, learned-clause retention across
assumption probes, and final-conflict cores that stay usable probe after
probe."""

import pytest

from repro.sat import CdclSolver, SolverConfig


def _php_clauses(holes: int) -> tuple[list[list[int]], int]:
    """Pigeonhole PHP(holes+1, holes): small but nontrivially UNSAT."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses, pigeons * holes


class TestPerCallBudgets:
    def test_budget_applies_per_call_not_per_lifetime(self):
        clauses, _ = _php_clauses(5)
        solver = CdclSolver(config=SolverConfig(max_conflicts=2))
        for clause in clauses:
            solver.add_clause(clause)
        # The tiny config budget makes each call give up...
        assert solver.solve().status == "unknown"
        # ...and a fresh allowance applies on the next call, so repeated
        # calls keep making progress instead of dying instantly.
        assert solver.solve().status == "unknown"
        # A per-call override lifts the cap for one call only.
        assert solver.solve(max_conflicts=None).status == "unsat"

    def test_per_call_override_tightens(self):
        clauses, _ = _php_clauses(5)
        solver = CdclSolver()  # no lifetime budget
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_conflicts=1).status == "unknown"
        # The override does not stick: the unbudgeted default returns.
        assert solver.solve().status == "unsat"

    def test_per_call_time_budget(self):
        clauses, _ = _php_clauses(7)
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve(max_time=0.0).status == "unknown"


class TestLearnedClauseRetention:
    def test_reprobe_same_assumptions_is_cheap(self):
        """An assumption-UNSAT probe leaves its learned clauses behind;
        re-probing the same assumptions must cost almost nothing."""
        clauses, num_vars = _php_clauses(4)
        sel = num_vars + 1  # guard literal activating the PHP clauses
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause([-sel] + clause)
        first = solver.solve([sel])
        assert first.is_unsat
        conflicts_first = solver.stats.conflicts
        assert conflicts_first > 0
        second = solver.solve([sel])
        assert second.is_unsat
        # The replay rides on retained learned clauses: at most a couple
        # of conflicts, not a second refutation from scratch.
        assert solver.stats.conflicts - conflicts_first <= conflicts_first // 4
        # And the solver is still usable without the guard.
        assert solver.solve([-sel]).is_sat

    def test_learnts_survive_between_calls(self):
        clauses, _ = _php_clauses(4)
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve(max_conflicts=8)
        learned_mid = solver.stats.learned
        assert learned_mid > 0
        solver.solve(max_conflicts=8)
        assert solver.stats.learned >= learned_mid

    def test_phase_saving_reuses_previous_model_region(self):
        """A satisfiable re-probe after a model was found should be far
        cheaper than the first probe (saved phases steer straight back)."""
        clauses, num_vars = _php_clauses(4)
        # Satisfiable variant: drop one pigeon's at-least-one clause.
        solver = CdclSolver()
        for clause in clauses[1:]:
            solver.add_clause(clause)
        first = solver.solve()
        assert first.is_sat
        decisions_first = solver.stats.decisions
        second = solver.solve()
        assert second.is_sat
        assert solver.stats.decisions - decisions_first <= decisions_first


class TestCoresAcrossProbes:
    def test_core_identifies_the_guilty_selector(self):
        """Guarded sub-formulas: the core names only the selector whose
        formula is contradictory, probe after probe."""
        solver = CdclSolver()
        # Selector 1 guards an UNSAT pair, selector 2 a satisfiable one.
        solver.add_clause([-1, 3])
        solver.add_clause([-1, -3])
        solver.add_clause([-2, 4])
        result = solver.solve([2, 1])
        assert result.is_unsat
        assert result.core is not None
        assert 1 in result.core
        assert 2 not in result.core
        # The untouched selector still works on its own.
        assert solver.solve([2]).is_sat
        # And the guilty one keeps producing a core on re-probe.
        again = solver.solve([2, 1])
        assert again.is_unsat and 1 in again.core

    def test_clause_addition_between_assumption_probes(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve([-1]).is_sat
        solver.add_clause([-2, 3])
        result = solver.solve([-1, -3])
        assert result.is_unsat
        assert set(result.core) <= {-1, -3}

    @pytest.mark.parametrize("holes", [3, 4])
    def test_budgeted_probe_then_full_refutation(self, holes):
        """A budget-capped probe must leave the solver consistent for a
        follow-up full probe of the same assumptions."""
        clauses, num_vars = _php_clauses(holes)
        sel = num_vars + 1
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause([-sel] + clause)
        capped = solver.solve([sel], max_conflicts=1)
        assert capped.status in ("unknown", "unsat")
        full = solver.solve([sel])
        assert full.is_unsat
        assert full.core is not None and set(full.core) <= {sel}
