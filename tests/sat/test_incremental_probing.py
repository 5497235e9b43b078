"""Solver-level contracts a reused solver keeps (one that solves, adds
clauses and solves again): per-call budgets and learned-clause
retention across calls."""

from repro.sat import CdclSolver


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
        solver = CdclSolver()
        for clause in clauses:
            solver.add_clause(clause)
        # The tiny budget makes each call give up...
        assert solver.solve(max_conflicts=2).status == "unknown"
        # ...and a fresh allowance applies on the next call: each call
        # runs exactly its own budget, not what is left of a lifetime one.
        before = solver.stats.conflicts
        assert solver.solve(max_conflicts=2).status == "unknown"
        assert solver.stats.conflicts - before == 2
        # No budget lifts the cap.
        assert solver.solve().status == "unsat"

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
