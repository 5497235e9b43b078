"""Tests for autosymmetric-function detection and synthesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.boolf import Sop, TruthTable
from repro.core import (
    autosymmetry_degree,
    linear_space,
    reduce_autosymmetric,
    synthesize_autosymmetric,
)
from repro.boolf.gf2 import in_span


def xor_function(num_vars: int) -> TruthTable:
    return TruthTable.from_values(
        [bin(m).count("1") % 2 == 1 for m in range(1 << num_vars)], num_vars
    )


class TestLinearSpace:
    def test_xor_is_fully_autosymmetric(self):
        # x0 ^ x1 ^ x2 satisfies f(x ^ a) = f(x) for every even-weight a:
        # L_f has dimension n-1.
        tt = xor_function(3)
        assert autosymmetry_degree(tt) == 2

    def test_generic_function_not_autosymmetric(self):
        tt = TruthTable.from_minterms([0, 1, 2, 4], 3)
        assert autosymmetry_degree(tt) == 0

    def test_constant_function_has_full_space(self):
        assert autosymmetry_degree(TruthTable.ones(3)) == 3
        assert autosymmetry_degree(TruthTable.zeros(3)) == 3

    def test_membership_definition(self):
        tt = xor_function(4)
        basis = linear_space(tt)
        for alpha in range(1, 16):
            invariant = all(
                tt.evaluate(m ^ alpha) == tt.evaluate(m) for m in range(16)
            )
            assert in_span(alpha, basis) == invariant


class TestReduction:
    def test_restriction_dimension(self):
        tt = xor_function(3)
        red = reduce_autosymmetric(tt)
        assert red.degree == 2
        assert red.restriction.num_vars == 1

    def test_composition_identity(self):
        tt = xor_function(4)
        red = reduce_autosymmetric(tt)
        for m in range(16):
            assert red.compose(m) == tt.evaluate(m)

    def test_trivial_reduction_for_k0(self):
        tt = TruthTable.from_minterms([0, 1, 2, 4], 3)
        red = reduce_autosymmetric(tt)
        assert red.degree == 0
        assert red.restriction == tt
        assert red.functionals == [1, 2, 4]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_composition_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        base = TruthTable.random(2, rng)
        # Lift to 4 vars through XOR preprocessing to force autosymmetry:
        # g(x) = base(x0^x1, x2^x3) is >= 2-autosymmetric.
        tt = TruthTable.from_function(
            lambda x: base.evaluate(x[0] ^ x[1] | (x[2] ^ x[3]) << 1), 4
        )
        assert autosymmetry_degree(tt) >= 2
        red = reduce_autosymmetric(tt)
        for m in range(16):
            assert red.compose(m) == tt.evaluate(m)


class TestSynthesis:
    def test_xor_synthesis_verifies(self):
        result = synthesize_autosymmetric(xor_function(3))
        assert result.reduction.degree == 2
        # The restriction is a single variable: a 1x1 lattice suffices.
        assert result.lattice_size == 1
        assert result.num_exor_gates >= 1

    def test_affine_target(self):
        # f = (a ^ b)(c ^ d): 2-autosymmetric, restriction is y0*y1.
        tt = TruthTable.from_function(lambda x: (x[0] ^ x[1]) & (x[2] ^ x[3]), 4)
        result = synthesize_autosymmetric(tt)
        assert result.reduction.degree == 2
        assert result.realized_truthtable() == tt
        # AND of two literals fits on a 2x1 lattice.
        assert result.lattice_size == 2

    def test_non_autosymmetric_degrades_gracefully(self):
        sop = Sop.from_string("ab + cd'")
        result = synthesize_autosymmetric(sop)
        assert result.reduction.degree == 0
        assert result.num_exor_gates == 0
        assert result.realized_truthtable() == sop.to_truthtable()
