"""Tests for the k-cardinality encodings (sequential counter, totalizer).

Each encoding is validated by exhaustive model enumeration: over n input
variables, the number of models projected onto the inputs must equal the
number of 0/1 vectors satisfying the bound.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.sat import (
    CdclSolver,
    Cnf,
    Totalizer,
    at_least_k_totalizer,
    at_most_k_sequential,
    at_most_k_totalizer,
    exactly_k,
)


def count_projected_models(cnf: Cnf, num_inputs: int) -> int:
    """Count assignments of vars 1..num_inputs extendable to a model."""
    count = 0
    for bits in itertools.product([False, True], repeat=num_inputs):
        solver = CdclSolver()
        for clause in cnf:
            solver.add_clause(clause)
        for i, bit in enumerate(bits):
            solver.add_clause([(i + 1) if bit else -(i + 1)])
        if solver.solve().is_sat:
            count += 1
    return count


def binomial_at_most(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(0, min(k, n) + 1))


class TestAtMostKSequential:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (4, 2), (5, 3), (6, 2)])
    def test_projected_model_count(self, n, k):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(n)]
        at_most_k_sequential(cnf, lits, k)
        assert count_projected_models(cnf, n) == binomial_at_most(n, k)

    def test_k_zero_forces_all_false(self):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(3)]
        at_most_k_sequential(cnf, lits, 0)
        assert count_projected_models(cnf, 3) == 1

    def test_k_negative_rejected(self):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(2)]
        with pytest.raises(EncodingError):
            at_most_k_sequential(cnf, lits, -1)

    def test_k_ge_n_unconstrained(self):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(3)]
        at_most_k_sequential(cnf, lits, 3)
        assert cnf.num_clauses == 0


class TestTotalizer:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (4, 2), (5, 3), (5, 4)])
    def test_at_most_projected_model_count(self, n, k):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(n)]
        at_most_k_totalizer(cnf, lits, k)
        assert count_projected_models(cnf, n) == binomial_at_most(n, k)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 5)])
    def test_at_least_projected_model_count(self, n, k):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(n)]
        at_least_k_totalizer(cnf, lits, k)
        expected = sum(math.comb(n, j) for j in range(k, n + 1))
        assert count_projected_models(cnf, n) == expected

    @pytest.mark.parametrize("n,k", [(3, 0), (4, 2), (5, 5)])
    def test_exactly_k_projected_model_count(self, n, k):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(n)]
        exactly_k(cnf, lits, k)
        assert count_projected_models(cnf, n) == math.comb(n, k)

    def test_outputs_are_a_unary_counter(self):
        # With inputs fixed, output j must be true iff at least j+1 inputs
        # are true.
        n = 4
        for true_count in range(n + 1):
            cnf = Cnf()
            lits = [cnf.pool.fresh() for _ in range(n)]
            tot = Totalizer(cnf, lits)
            solver = CdclSolver()
            for clause in cnf:
                solver.add_clause(clause)
            for i, lit in enumerate(lits):
                solver.add_clause([lit if i < true_count else -lit])
            result = solver.solve()
            assert result.is_sat
            for j, out in enumerate(tot.outputs):
                assert result.value(out) == (true_count >= j + 1)

    def test_at_least_over_capacity_rejected(self):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(2)]
        with pytest.raises(EncodingError):
            at_least_k_totalizer(cnf, lits, 3)

    def test_empty_input_rejected(self):
        with pytest.raises(EncodingError):
            Totalizer(Cnf(), [])

    def test_exactly_k_out_of_range_rejected(self):
        cnf = Cnf()
        lits = [cnf.pool.fresh() for _ in range(2)]
        with pytest.raises(EncodingError):
            exactly_k(cnf, lits, 3)


class TestEncodingAgreement:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_sequential_and_totalizer_agree(self, n, k):
        counts = []
        for encoder in (at_most_k_sequential, at_most_k_totalizer):
            cnf = Cnf()
            lits = [cnf.pool.fresh() for _ in range(n)]
            encoder(cnf, lits, k)
            counts.append(count_projected_models(cnf, n))
        assert counts[0] == counts[1] == binomial_at_most(n, k)
