"""Tests for the unate covering solver.

Rows are the bits of an int; column ``k`` is ``columns[k]``, the mask of
the rows it covers.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.boolf.cover import CoverBudget, min_cover


def mask(*rows):
    return sum(1 << r for r in rows)


def brute_force_min(columns, rows):
    for k in range(len(columns) + 1):
        for combo in itertools.combinations(range(len(columns)), k):
            covered = 0
            for c in combo:
                covered |= columns[c]
            if not rows & ~covered:
                return k
    raise AssertionError("uncoverable")


def covered_by(columns, cover):
    covered = 0
    for c in cover:
        covered |= columns[c]
    return covered


class TestMinCover:
    def test_essential_extraction(self):
        columns = [mask(1), mask(1, 2), mask(3)]
        cover = min_cover(columns, mask(1, 2, 3))
        assert set(cover) == {1, 2}

    def test_uncoverable_raises(self):
        with pytest.raises(ValueError):
            min_cover([mask(1)], mask(2))

    def test_zero_columns_take_no_part(self):
        assert set(min_cover([0, mask(0), 0, mask(1)], mask(0, 1))) == {1, 3}

    @given(
        st.lists(
            st.frozensets(st.integers(0, 5), min_size=0, max_size=4),
            min_size=1,
            max_size=7,
        )
    )
    def test_optimal_vs_brute_force(self, col_sets):
        columns = [mask(*cells) for cells in col_sets]
        rows = 0
        for cells in columns:
            rows |= cells
        cover = min_cover(columns, rows)
        assert not rows & ~covered_by(columns, cover)
        assert len(cover) == brute_force_min(columns, rows)

    def test_budget_returns_incumbent(self):
        columns = [mask(i, (i + 1) % 8) for i in range(8)]
        budget = CoverBudget(max_nodes=1)
        cover = min_cover(columns, mask(*range(8)), budget)
        assert not mask(*range(8)) & ~covered_by(columns, cover)

    def test_cyclic_core(self):
        # A cyclic covering instance with no essentials: minimum is 3.
        columns = [mask(i, (i + 1) % 6) for i in range(6)]
        cover = min_cover(columns, mask(*range(6)))
        assert len(cover) == 3
