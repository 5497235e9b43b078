"""Tests for the two-level minimizer (the espresso stand-in)."""

import itertools

import pytest
from hypothesis import given

from repro.boolf import (
    TruthTable,
    exact_min_sop,
    isop,
    minimize,
    prime_implicants,
)
from repro.api.schema import SynthesisRequest
from tests.conftest import truthtables


def brute_force_min_products(tt: TruthTable) -> int:
    """Reference minimum cover size via exhaustive prime subsets."""
    if tt.is_zero():
        return 0
    primes = prime_implicants(tt)
    tables = [TruthTable.from_cube(p) for p in primes]
    for k in range(1, len(primes) + 1):
        for combo in itertools.combinations(range(len(primes)), k):
            union = TruthTable.zeros(tt.num_vars)
            for i in combo:
                union = union | tables[i]
            if union == tt:
                return k
    raise AssertionError("primes cannot cover the function")


class TestMinimize:
    @given(truthtables(4))
    def test_result_realizes_function(self, tt):
        assert minimize(tt).to_truthtable() == tt

    @given(truthtables(3))
    def test_exact_cardinality(self, tt):
        cover = exact_min_sop(tt) if not tt.is_zero() else minimize(tt)
        assert cover.num_products == brute_force_min_products(tt)

    @given(truthtables(4))
    def test_never_worse_than_isop(self, tt):
        assert minimize(tt).num_products <= isop(tt).num_products

    def test_constants(self):
        assert minimize(TruthTable.zeros(3)).is_zero()
        assert minimize(TruthTable.ones(3)).is_one()

    def test_majority(self):
        maj = TruthTable.from_function(lambda b: b[0] + b[1] + b[2] >= 2, 3)
        cover = minimize(maj)
        assert cover.num_products == 3
        assert cover.degree == 2

    def test_xor3(self):
        xor = TruthTable.from_function(lambda b: b[0] ^ b[1] ^ b[2], 3)
        cover = minimize(xor)
        assert cover.num_products == 4  # XOR has no sharing in SOP
        assert cover.degree == 3

    def test_dont_cares_used(self):
        on = TruthTable.from_minterms([0, 3], 2)
        dc = TruthTable.from_minterms([1, 2], 2)
        cover = minimize(on, dc)
        assert cover.num_products == 1
        assert cover.cubes[0].is_tautology()

    def test_overlapping_dc_rejected(self):
        tt = TruthTable.from_minterms([1], 2)
        with pytest.raises(ValueError):
            minimize(tt, tt)

    def test_heuristic_mode(self):
        tt = TruthTable.from_function(
            lambda b: (b[0] and b[1]) or (b[2] and b[3]), 4
        )
        cover = minimize(tt, exact=False)
        assert cover.to_truthtable() == tt

    def test_names_propagate(self):
        cover = minimize(TruthTable.variable(0, 2), names=["x", "y"])
        assert cover.to_string() == "x"



class TestPrimeLimitFallback:
    """Past the exact path's prime limit, ``minimize`` runs espresso."""

    @staticmethod
    def popcount_band() -> TruthTable:
        # 3 <= popcount <= 7 over 10 inputs: 912 minterms, 4,200 primes.
        return TruthTable.from_function(lambda b: 3 <= sum(b) <= 7, 10)

    def test_cover_realizes_the_function(self):
        tt = self.popcount_band()
        assert len(prime_implicants(tt)) > 4000
        with pytest.raises(ValueError, match="primes exceed"):
            exact_min_sop(tt)
        assert minimize(tt).to_truthtable() == tt

    def test_wire_target_builds_a_spec(self):
        tt = self.popcount_band()
        request = SynthesisRequest.from_target(tt)
        spec = request.to_spec()
        assert spec.isop.to_truthtable() == tt
        assert spec.dual_isop.to_truthtable() == tt.dual()
