"""Tests for D-reducible-function detection and synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolf import Sop, TruthTable
from repro.core import (
    affine_hull,
    is_dreducible,
    reduce_dreducible,
    synthesize_dreducible,
)
from repro.errors import SynthesisError


class TestAffineHull:
    def test_zero_function_rejected(self):
        with pytest.raises(SynthesisError):
            affine_hull(TruthTable.zeros(3))

    def test_single_minterm_hull_is_a_point(self):
        tt = TruthTable.from_minterms([5], 3)
        hull = affine_hull(tt)
        assert hull.dimension == 0
        assert hull.contains(5)
        assert not hull.contains(4)

    def test_hull_contains_all_onset(self):
        tt = TruthTable.from_minterms([1, 3, 9, 11], 4)
        hull = affine_hull(tt)
        for m in tt.onset():
            assert hull.contains(m)

    def test_full_function_hull_is_whole_cube(self):
        tt = TruthTable.ones(3)
        assert affine_hull(tt).dimension == 3

    def test_characteristic_matches_contains(self):
        tt = TruthTable.from_minterms([1, 3, 9], 4)
        hull = affine_hull(tt)
        chi = hull.characteristic()
        for m in range(16):
            assert chi.evaluate(m) == hull.contains(m)

    def test_constraints_define_the_space(self):
        from repro.boolf.gf2 import dot

        tt = TruthTable.from_minterms([2, 6, 10, 14], 4)
        hull = affine_hull(tt)
        constraints = hull.constraints()
        assert len(constraints) == 4 - hull.dimension
        for m in range(16):
            satisfied = all(dot(mask, m) == bit for mask, bit in constraints)
            assert satisfied == hull.contains(m)


class TestDetection:
    def test_cube_function_is_dreducible(self):
        # f = a b: onset {3} inside a 0-dim affine space of B^2... but over
        # 3 vars the onset {3, 7} has dimension 1 < 3.
        tt = TruthTable.from_minterms([3, 7], 3)
        assert is_dreducible(tt)

    def test_parity_is_dreducible(self):
        # The odd-weight vectors form an affine coset of the even-weight
        # subspace, so parity is the extreme D-reducible case: chi_A is
        # the function itself and the projection is constant 1.
        tt = TruthTable.from_values([bin(m).count("1") % 2 for m in range(8)], 3)
        assert is_dreducible(tt)
        assert affine_hull(tt).dimension == 2

    def test_majority_is_not_dreducible(self):
        tt = TruthTable.from_minterms([3, 5, 6, 7], 3)
        assert not is_dreducible(tt)

    def test_zero_function_not_dreducible(self):
        assert not is_dreducible(TruthTable.zeros(2))


class TestReduction:
    def test_embed_project_roundtrip(self):
        tt = TruthTable.from_minterms([1, 3, 9, 11, 5], 4)
        red = reduce_dreducible(tt)
        for y in range(1 << red.hull.dimension):
            assert red.project(red.embed(y)) == y

    def test_composition_identity(self):
        tt = TruthTable.from_minterms([1, 3, 9, 11], 4)
        red = reduce_dreducible(tt)
        for m in range(16):
            assert red.compose(m) == tt.evaluate(m)

    def test_constraint_classification(self):
        # Onset with x0 = 1 fixed: one cube constraint.
        tt = TruthTable.from_minterms([1, 3, 5, 7], 3)
        red = reduce_dreducible(tt)
        assert (0, 1) in red.cube_constraints
        assert not red.exor_constraints

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_composition_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        # Random function restricted to the affine space x0 ^ x1 = 1.
        tt = TruthTable.from_minterms(
            [m for m in range(16)
             if ((m ^ (m >> 1)) & 1) == 1 and rng.random() < 0.5],
            4,
        )
        if tt.is_zero():
            return
        red = reduce_dreducible(tt)
        for m in range(16):
            assert red.compose(m) == tt.evaluate(m)


class TestSynthesis:
    def test_fixed_variable_function(self):
        # f = a(b + c'): onset within the x0 = 1 half-cube.
        sop = Sop.from_string("ab + ac'")
        result = synthesize_dreducible(sop)
        assert result.reduction.hull.dimension == 2
        assert result.realized_truthtable() == sop.to_truthtable()
        assert result.num_exor_gates == 0

    def test_exor_constrained_function(self):
        # Onset on the affine space a ^ b = 1, c free.
        tt = TruthTable.from_minterms([1, 2, 5, 6], 3)
        result = synthesize_dreducible(tt)
        assert result.reduction.hull.dimension <= 2
        assert result.realized_truthtable() == tt
        assert result.num_exor_gates >= 1

    def test_not_properly_dreducible_still_correct(self):
        sop = Sop.from_string("ab + a'c + bc'")
        result = synthesize_dreducible(sop)
        assert result.reduction.hull.dimension == 3
        assert result.realized_truthtable() == sop.to_truthtable()
