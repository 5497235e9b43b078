"""Unit and property tests for repro.boolf.truthtable.

The property tests check every operation against a plain-list reference:
``values(tt)`` is the list of entry values, minterm 0 first, and each
expected result is computed from it entry by entry.
"""

import pytest
from hypothesis import given, strategies as st

from repro.boolf import Cube, TruthTable
from repro.errors import DimensionError
from tests.conftest import cubes, truthtables


def values(tt: TruthTable) -> list[bool]:
    return [bool(tt.bits >> m & 1) for m in range(1 << tt.num_vars)]


class TestBuilders:
    def test_zeros_ones(self):
        assert TruthTable.zeros(3).is_zero()
        assert TruthTable.ones(3).is_one()
        assert not TruthTable.zeros(3).is_one()

    def test_variable_projection(self):
        v = TruthTable.variable(1, 3)
        for m in range(8):
            assert v.evaluate(m) == bool(m >> 1 & 1)

    def test_from_minterms(self):
        tt = TruthTable.from_minterms([0, 3], 2)
        assert tt.onset() == [0, 3]
        assert tt.offset() == [1, 2]

    def test_from_function(self):
        tt = TruthTable.from_function(lambda bits: bits[0] ^ bits[1], 2)
        assert tt.onset() == [1, 2]

    @given(cubes(4))
    def test_from_cube_matches_evaluate(self, c):
        tt = TruthTable.from_cube(c)
        for m in range(16):
            assert tt.evaluate(m) == c.evaluate(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            TruthTable(1 << 4, 2)
        with pytest.raises(DimensionError):
            TruthTable(-1, 2)

    def test_non_int_bits_rejected(self):
        with pytest.raises(TypeError):
            TruthTable([False, True, False, False], 2)

    def test_from_values(self):
        tt = TruthTable.from_values([False, True, True, False], 2)
        assert tt.bits == 0b0110
        with pytest.raises(DimensionError):
            TruthTable.from_values([True] * 5, 2)

    def test_from_minterms_out_of_range(self):
        with pytest.raises(DimensionError):
            TruthTable.from_minterms([4], 2)

    def test_excessive_vars_rejected(self):
        with pytest.raises(DimensionError):
            TruthTable.zeros(30)


class TestCofactors:
    @given(truthtables(4))
    def test_shannon_expansion(self, tt):
        for var in range(4):
            c0 = tt.restrict(var, False)
            c1 = tt.restrict(var, True)
            x = TruthTable.variable(var, 4)
            recon = (x & c1) | (~x & c0)
            assert recon == tt

    def test_cofactor_drops_variable(self):
        tt = TruthTable.variable(0, 3)
        assert tt.cofactor(0, True).is_one()
        assert tt.cofactor(0, False).is_zero()

    @given(truthtables(4))
    def test_depends_on_consistent_with_support(self, tt):
        sup = tt.support()
        for v in range(4):
            assert (v in sup) == tt.depends_on(v)

    def test_cofactor_out_of_range(self):
        with pytest.raises(DimensionError):
            TruthTable.zeros(2).cofactor(5, True)


class TestDuality:
    @given(truthtables(4))
    def test_dual_involution(self, tt):
        assert tt.dual().dual() == tt

    @given(truthtables(4))
    def test_dual_definition(self, tt):
        d = tt.dual()
        full = (1 << 4) - 1
        for m in range(16):
            assert d.evaluate(m) == (not tt.evaluate(full ^ m))

    def test_self_dual_majority(self):
        maj = TruthTable.from_function(lambda b: b[0] + b[1] + b[2] >= 2, 3)
        assert maj.dual() == maj

    def test_dual_of_and_is_or(self):
        a, b = TruthTable.variable(0, 2), TruthTable.variable(1, 2)
        assert (a & b).dual() == (a | b)


class TestAlgebra:
    @given(truthtables(3), truthtables(3))
    def test_de_morgan(self, f, g):
        assert ~(f & g) == (~f | ~g)
        assert ~(f | g) == (~f & ~g)

    @given(truthtables(3), truthtables(3))
    def test_implies(self, f, g):
        assert (f & g).implies(f)
        assert f.implies(f | g)

    @given(truthtables(3))
    def test_xor_self_is_zero(self, f):
        assert (f ^ f).is_zero()

    def test_sub_is_and_not(self):
        f = TruthTable.from_minterms([0, 1, 2], 2)
        g = TruthTable.from_minterms([1], 2)
        assert (f - g).onset() == [0, 2]

    def test_universe_mismatch(self):
        with pytest.raises(DimensionError):
            TruthTable.zeros(2) & TruthTable.zeros(3)


class TestStructure:
    def test_lift_preserves_function(self):
        tt = TruthTable.variable(0, 2)
        lifted = tt.lift(4)
        for m in range(16):
            assert lifted.evaluate(m) == bool(m & 1)

    def test_lift_shrink_rejected(self):
        with pytest.raises(DimensionError):
            TruthTable.zeros(3).lift(2)

    def test_cube_is_implicant(self):
        tt = TruthTable.from_minterms([2, 3], 2)  # f = b
        assert tt.cube_is_implicant(Cube.from_literals([(1, True)], 2))
        assert not tt.cube_is_implicant(Cube.from_literals([(0, True)], 2))

    @given(truthtables(3))
    def test_key_is_stable(self, tt):
        assert tt.key() == tt.key()
        copy = TruthTable.from_values(list(tt), tt.num_vars)
        assert copy.key() == tt.key()

    def test_key_separates_universes(self):
        # Same packed bits, different universes: x'y' over two inputs vs
        # x'y'z' over three.  Memos keyed on key() must not conflate them.
        narrow = TruthTable.from_minterms([0], 2)
        wide = TruthTable.from_minterms([0], 3)
        assert narrow.to_bytes() == wide.to_bytes()
        assert narrow.key() != wide.key()

    def test_to_bytes_is_packed_little_endian(self):
        tt = TruthTable.from_minterms([0, 9], 4)
        assert tt.to_bytes() == bytes([0x01, 0x02])
        assert TruthTable.ones(0).to_bytes() == b"\x01"

    def test_count_ones(self):
        assert TruthTable.from_minterms([1, 5, 7], 3).count_ones() == 3

    def test_compose_complement_inputs(self):
        tt = TruthTable.variable(0, 2)
        comp = tt.compose_complement_inputs()
        for m in range(4):
            assert comp.evaluate(m) == tt.evaluate(3 ^ m)

    def test_random_density(self, rng):
        dense = TruthTable.random(8, rng, density=0.9)
        sparse = TruthTable.random(8, rng, density=0.1)
        assert dense.count_ones() > sparse.count_ones()

    def test_iter_and_repr(self):
        tt = TruthTable.from_minterms([1], 2)
        assert list(tt) == [False, True, False, False]
        assert "TruthTable" in repr(tt)
        assert "ones" in repr(TruthTable.zeros(7))


class TestListReference:
    @given(truthtables(4), truthtables(4))
    def test_bitwise_operations(self, f, g):
        a, b = values(f), values(g)
        assert values(f & g) == [x and y for x, y in zip(a, b)]
        assert values(f | g) == [x or y for x, y in zip(a, b)]
        assert values(f ^ g) == [x != y for x, y in zip(a, b)]
        assert values(f - g) == [x and not y for x, y in zip(a, b)]
        assert values(~f) == [not x for x in a]
        assert f.implies(g) == all(y for x, y in zip(a, b) if x)
        assert f.overlaps(g) == any(x and y for x, y in zip(a, b))

    @given(truthtables(4))
    def test_accessors(self, f):
        a = values(f)
        assert list(f) == a
        assert f.onset() == [m for m, x in enumerate(a) if x]
        assert f.offset() == [m for m, x in enumerate(a) if not x]
        assert f.count_ones() == sum(a)
        assert all(f.evaluate(m) == x for m, x in enumerate(a))
        assert TruthTable.from_values(a, 4) == f

    @given(truthtables(4), st.integers(0, 3), st.booleans())
    def test_cofactor_and_restrict(self, f, var, value):
        a = values(f)
        low = (1 << var) - 1
        expected = [
            a[(m & ~low) << 1 | value << var | m & low] for m in range(8)
        ]
        assert values(f.cofactor(var, value)) == expected
        assert values(f.restrict(var, value)) == [
            a[m & ~(1 << var) | value << var] for m in range(16)
        ]
        assert f.depends_on(var) == any(
            a[m] != a[m ^ 1 << var] for m in range(16)
        )

    @given(truthtables(4), st.integers(0, 15))
    def test_flip_inputs_dual_and_complement(self, f, mask):
        a = values(f)
        assert values(f.flip_inputs(mask)) == [a[m ^ mask] for m in range(16)]
        assert values(f.compose_complement_inputs()) == a[::-1]
        assert values(f.dual()) == [not x for x in a[::-1]]

    @given(truthtables(3))
    def test_lift(self, f):
        a = values(f)
        assert values(f.lift(5)) == a * 4

    @given(truthtables(6), st.integers(0, 63))
    def test_six_input_transforms(self, f, mask):
        # A six-input table is one 64-bit word.
        a = values(f)
        assert values(f.flip_inputs(mask)) == [a[m ^ mask] for m in range(64)]
