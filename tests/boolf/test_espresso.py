"""Tests for the full espresso loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolf import Cube, Sop, TruthTable
from repro.boolf.espresso import (
    espresso,
    essential_primes,
    expand_pass,
    irredundant_pass,
    reduce_pass,
)
from repro.boolf.minimize import exact_min_sop
from repro.boolf.primes import is_prime


def random_table(num_vars: int, seed: int, density: float = 0.5) -> TruthTable:
    rng = np.random.default_rng(seed)
    return TruthTable.random(num_vars, rng, density)


class TestPasses:
    def test_expand_produces_primes(self):
        tt = Sop.from_string("ab + ab' + a'b").to_truthtable()
        cubes = list(Sop.from_string("ab + ab' + a'b").cubes)
        expanded = expand_pass(cubes, tt)
        for cube in expanded:
            assert is_prime(cube, tt)

    def test_expand_merges_minterm_cover(self):
        # The minterm cover of f = a expands to the single prime 'a'.
        a = Cube.from_literals([(0, True)], 2)
        tt = TruthTable.from_cube(a)
        minterms = [Cube.from_minterm(m, 2) for m in tt.onset()]
        assert expand_pass(minterms, tt) == [a]

    def test_irredundant_covers_exactly(self):
        sop = Sop.from_string("ab + bc + ac + abc")
        tt = sop.to_truthtable()
        kept = irredundant_pass(list(sop.cubes), tt)
        assert TruthTable.from_cubes(kept, 3) == tt
        assert len(kept) <= 3

    def test_essentials_of_majority(self):
        # All three primes of majority are essential.
        sop = Sop.from_string("ab + bc + ac")
        tt = sop.to_truthtable()
        ess = essential_primes(list(sop.cubes), tt)
        assert sorted(ess) == sorted(sop.cubes)

    def test_no_essentials_in_cyclic_cover(self):
        # The classic cyclic core f = Sum(0,1,2,5,6,7): every minterm is
        # covered by exactly two of the six primes, so none is essential.
        from repro.boolf.primes import prime_implicants

        tt = TruthTable.from_minterms([0, 1, 2, 5, 6, 7], 3)
        primes = prime_implicants(tt)
        assert len(primes) == 6
        ess = essential_primes(list(primes), tt)
        assert ess == []

    def test_reduce_keeps_cover(self):
        sop = Sop.from_string("ab + bc + ac")
        tt = sop.to_truthtable()
        reduced = reduce_pass(list(sop.cubes), tt)
        assert TruthTable.from_cubes(reduced, 3) == tt

    def test_reduce_drops_redundant_cube(self):
        sop = Sop.from_string("ab + ab")
        tt = sop.to_truthtable()
        reduced = reduce_pass(list(sop.cubes), tt)
        assert len(reduced) == 1


class TestEspresso:
    def test_constants(self):
        assert espresso(TruthTable.zeros(3)).is_zero()
        assert espresso(TruthTable.ones(3)).is_one()

    def test_overlapping_dc_rejected(self):
        tt = TruthTable.from_minterms([1], 2)
        with pytest.raises(ValueError):
            espresso(tt, dc=tt)

    def test_equivalent_and_irredundant(self):
        sop = Sop.from_string("ab'c + a'bc + abc + ab c'".replace(" ", ""))
        tt = sop.to_truthtable()
        result = espresso(tt)
        assert result.to_truthtable() == tt
        assert result.is_irredundant()
        for cube in result.cubes:
            assert is_prime(cube, tt)

    def test_with_dont_cares(self):
        on = TruthTable.from_minterms([1, 4, 7], 3)
        dc = TruthTable.from_minterms([2, 5], 3)
        result = espresso(on, dc)
        realized = result.to_truthtable()
        assert on.implies(realized)
        assert realized.implies(on | dc)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_functions_equivalent(self, num_vars, seed):
        tt = random_table(num_vars, seed)
        result = espresso(tt)
        assert result.to_truthtable() == tt
        assert result.is_irredundant()

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_close_to_exact_minimum(self, num_vars, seed):
        tt = random_table(num_vars, seed)
        if tt.is_zero() or tt.is_one():
            return
        heuristic = espresso(tt)
        exact = exact_min_sop(tt)
        assert len(heuristic) >= len(exact)  # sanity: exact is minimum
        # Dense random functions are espresso's worst case; the greedy
        # expand's envelope at these sizes runs up to ~45% over minimum
        # (e.g. 10 products vs an exact 7 at 5 vars, seed 2305).
        assert len(heuristic) <= len(exact) + max(3, len(exact) // 2)

    def test_improves_on_bad_initial_cover(self):
        # f = a: a cover fragmented into 4 minterm cubes over 3 vars must
        # collapse back to the single-literal prime.
        tt = Sop.from_string("a").to_truthtable()
        result = espresso(tt)
        assert len(result) == 1
        assert result.cubes[0].num_literals == 1
