"""Tests for the CDCL solver, including brute-force cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.sat import CdclSolver, Cnf, solve_cnf
from repro.sat.solver import _luby


def brute_force_sat(clauses: list[list[int]], num_vars: int):
    """Reference decision by exhaustive enumeration."""
    for assignment in range(1 << num_vars):
        if all(
            any(
                (lit > 0) == bool(assignment >> (abs(lit) - 1) & 1)
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False


def check_model(clauses, model):
    return all(
        any((lit > 0) == model[abs(lit) - 1] for lit in clause)
        for clause in clauses
    )


def solve_clauses(clauses, num_vars):
    solver = CdclSolver(num_vars=num_vars)
    for clause in clauses:
        if not solver.add_clause(clause):
            return "unsat", None
    result = solver.solve()
    return result.status, result.model


clause_lists = st.lists(
    st.lists(
        st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=25,
)


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(clause_lists)
    def test_status_and_model(self, clauses):
        want = brute_force_sat(clauses, 6)
        status, model = solve_clauses(clauses, 6)
        assert (status == "sat") == want
        if status == "sat":
            assert check_model(clauses, model)

    def test_many_seeded_random_3sat(self):
        for trial in range(150):
            rng = np.random.default_rng(trial)
            clauses = []
            for _ in range(26):
                k = int(rng.integers(1, 4))
                vs = rng.choice(7, size=k, replace=False) + 1
                signs = rng.integers(0, 2, size=k) * 2 - 1
                clauses.append([int(v * s) for v, s in zip(vs, signs)])
            want = brute_force_sat(clauses, 7)
            status, model = solve_clauses(clauses, 7)
            assert (status == "sat") == want, f"trial {trial}"
            if status == "sat":
                assert check_model(clauses, model), f"trial {trial}"


class TestStructuredInstances:
    def test_pigeonhole_unsat(self):
        # PHP(n+1, n): n+1 pigeons into n holes — classically hard UNSAT.
        n = 5
        cnf = Cnf()
        p = [[cnf.pool.var((i, j)) for j in range(n)] for i in range(n + 1)]
        for i in range(n + 1):
            cnf.add(p[i])
        for j in range(n):
            for i in range(n + 1):
                for k in range(i + 1, n + 1):
                    cnf.add([-p[i][j], -p[k][j]])
        assert solve_cnf(cnf).status == "unsat"

    def test_graph_coloring_sat(self):
        cnf = Cnf()
        num, colors = 20, 3
        var = [[cnf.pool.var((i, c)) for c in range(colors)] for i in range(num)]
        rng = np.random.default_rng(3)
        edges = {(i, (i + 1) % num) for i in range(num)}  # a cycle: 3-colorable
        for i in range(num):
            cnf.add(var[i])
        for a, b in edges:
            for c in range(colors):
                cnf.add([-var[a][c], -var[b][c]])
        result = solve_cnf(cnf)
        assert result.is_sat

    def test_empty_formula_sat(self):
        assert CdclSolver(num_vars=3).solve().status == "sat"

    def test_single_unit(self):
        s = CdclSolver()
        assert s.add_clause([2])
        r = s.solve()
        assert r.is_sat and r.value(2)

    def test_contradictory_units(self):
        s = CdclSolver()
        s.add_clause([1])
        assert not s.add_clause([-1])

    def test_tautological_clause_ignored(self):
        s = CdclSolver()
        assert s.add_clause([1, -1])
        assert s.solve().is_sat

    def test_duplicate_literals_deduped(self):
        s = CdclSolver()
        assert s.add_clause([1, 1, 1])
        r = s.solve()
        assert r.is_sat and r.value(1)

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            CdclSolver().add_clause([0])


class TestBudgets:
    def _php(self, n):
        cnf = Cnf()
        p = [[cnf.pool.var((i, j)) for j in range(n)] for i in range(n + 1)]
        for i in range(n + 1):
            cnf.add(p[i])
        for j in range(n):
            for i in range(n + 1):
                for k in range(i + 1, n + 1):
                    cnf.add([-p[i][j], -p[k][j]])
        return cnf

    def test_conflict_budget_unknown(self):
        result = solve_cnf(self._php(6), max_conflicts=20)
        assert result.status == "unknown"

    def test_time_budget_unknown(self):
        result = solve_cnf(self._php(8), max_time=0.01)
        assert result.status in ("unknown", "unsat")

    def test_stats_populated(self):
        result = solve_cnf(self._php(4))
        assert result.status == "unsat"
        assert result.stats.conflicts > 0
        assert result.stats.propagations > 0
        assert result.wall_time >= 0


class TestModelAccess:
    def test_value_without_model_raises(self):
        s = CdclSolver()
        s.add_clause([1])
        s.add_clause([-1])
        with pytest.raises(SolverError):
            s.solve().value(1)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_monotone_peaks(self):
        peaks = [_luby((1 << k) - 1) for k in range(1, 8)]
        assert peaks == [1 << (k - 1) for k in range(1, 8)]
