"""Incremental-solving regression tests.

``CdclSolver`` supports the solve / add_clause / solve pattern, so its
contract gets its own test file: clause additions after a solve must be
honoured, models must stay consistent, and learnt clauses must never
change satisfiability.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sat import CdclSolver


def brute_force_sat(clauses, num_vars):
    for bits in itertools.product([False, True], repeat=num_vars):
        def true(lit):
            val = bits[abs(lit) - 1]
            return val if lit > 0 else not val

        if all(any(true(l) for l in c) for c in clauses):
            return True
    return False


class TestIncrementalBasics:
    def test_tightening_to_unsat(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve().is_sat
        solver.add_clause([-1])
        assert solver.solve().is_sat
        solver.add_clause([-2])
        assert solver.solve().is_unsat
        # Once UNSAT, always UNSAT.
        assert solver.solve().is_unsat

    def test_models_respect_late_clauses(self):
        solver = CdclSolver()
        solver.add_clause([1, 2, 3])
        first = solver.solve()
        assert first.is_sat
        # Ban the returned model, ask again; repeat until UNSAT.  Counts
        # exactly the 7 models of (1|2|3).
        count = 0
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            count += 1
            assert count <= 7, "more models than the formula has"
            banned = [
                -(v + 1) if result.model[v] else (v + 1) for v in range(3)
            ]
            solver.add_clause(banned)
        assert count == 7

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_monolithic(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = 6
        clauses = []
        for _ in range(16):
            width = int(rng.integers(1, 4))
            variables = rng.choice(num_vars, size=width, replace=False)
            clauses.append(
                [int(v + 1) * (1 if rng.random() < 0.5 else -1) for v in variables]
            )
        # Incremental: solve after every third clause.
        solver = CdclSolver()
        ok = True
        for i, clause in enumerate(clauses):
            ok = solver.add_clause(clause) and ok
            if i % 3 == 2 and ok:
                solver.solve()
        final = (
            solver.solve().is_sat if ok and solver.ok else False
        )
        assert final == brute_force_sat(clauses, num_vars)
