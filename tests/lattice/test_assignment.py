"""Tests for lattice assignments and the connectivity checker.

The key property: evaluating an assigned lattice by union-find/flood-fill
connectivity must agree with evaluating it through the enumerated minimal
paths — two independent implementations of the same semantics.
"""

import numpy as np
import pytest

from repro.boolf import TruthTable, parse_sop
from repro.errors import DimensionError
from repro.lattice import (
    CONST0,
    CONST1,
    Entry,
    LatticeAssignment,
    left_right_paths8,
    top_bottom_paths,
)


def random_assignment(rng, rows, cols, num_vars) -> LatticeAssignment:
    entries = []
    for _ in range(rows * cols):
        kind = rng.integers(0, 4)
        if kind == 0:
            entries.append(CONST0)
        elif kind == 1:
            entries.append(CONST1)
        else:
            entries.append(
                Entry.lit(int(rng.integers(0, num_vars)), bool(rng.integers(0, 2)))
            )
    return LatticeAssignment(rows, cols, entries, num_vars)


def eval_via_paths(la: LatticeAssignment, minterm: int, dual_side=False) -> bool:
    paths = (
        left_right_paths8(la.rows, la.cols)
        if dual_side
        else top_bottom_paths(la.rows, la.cols)
    )
    conducting = la.conducting_mask(minterm)
    return any(mask & conducting == mask for mask in paths)


class TestEntry:
    def test_literal_evaluation(self):
        e = Entry.lit(1, True)
        assert e.evaluate(0b10)
        assert not e.evaluate(0b01)
        assert Entry.lit(1, False).evaluate(0b01)

    def test_constants(self):
        assert CONST1.evaluate(0)
        assert not CONST0.evaluate(0)
        assert CONST0.is_const

    def test_to_string(self):
        assert Entry.lit(0, True).to_string() == "a"
        assert Entry.lit(0, False).to_string() == "a'"
        assert CONST0.to_string() == "0"
        assert Entry.lit(0, True).to_string(["clk"]) == "clk"

    def test_negative_var_rejected(self):
        with pytest.raises(DimensionError):
            Entry.lit(-1)


class TestCheckerAgreesWithPaths:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)])
    def test_top_bottom_equivalence(self, rng, shape):
        for _ in range(15):
            la = random_assignment(rng, *shape, num_vars=3)
            for m in range(8):
                assert la.evaluate(m) == eval_via_paths(la, m)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4)])
    def test_left_right_equivalence(self, rng, shape):
        for _ in range(15):
            la = random_assignment(rng, *shape, num_vars=3)
            for m in range(8):
                assert la.evaluate_dual_side(m) == eval_via_paths(
                    la, m, dual_side=True
                )

    def test_duality_of_literal_assignments(self, rng):
        """For literal-only assignments, TB function == dual of LR8
        function (composition commutes because literals complement with
        their inputs)."""
        for _ in range(10):
            entries = [
                Entry.lit(int(rng.integers(0, 3)), bool(rng.integers(0, 2)))
                for _ in range(9)
            ]
            la = LatticeAssignment(3, 3, entries, 3)
            assert la.realized_truthtable() == la.realized_dual_side_truthtable().dual()

    def test_duality_with_constants_needs_flip(self, rng):
        """With constants, duality holds after complementing the constant
        cells — the rule the dual-side decoder implements."""
        for _ in range(20):
            la = random_assignment(rng, 3, 3, num_vars=3)
            flipped_entries = [
                (CONST0 if e.positive else CONST1) if e.is_const else e
                for e in la.entries
            ]
            flipped = LatticeAssignment(3, 3, flipped_entries, 3)
            assert (
                flipped.realized_truthtable()
                == la.realized_dual_side_truthtable().dual()
            )


class TestBitParallelRealization:
    """The all-inputs-at-once flood fill behind ``realized_truthtable``
    must agree with the per-input-vector ``evaluate`` on every vector."""

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 5), (5, 4)]
    )
    @pytest.mark.parametrize("num_vars", [1, 3, 5])
    def test_matches_per_minterm_evaluate(self, rng, shape, num_vars):
        for _ in range(12):
            la = random_assignment(rng, *shape, num_vars=num_vars)
            vectors = range(1 << num_vars)
            assert la.realized_truthtable() == TruthTable.from_values(
                map(la.evaluate, vectors), num_vars
            )
            assert la.realized_dual_side_truthtable() == TruthTable.from_values(
                map(la.evaluate_dual_side, vectors), num_vars
            )

    def test_snaking_path_needs_several_sweeps(self):
        # One conducting serpentine from the bottom-left corner up to
        # the top-right one, under input a only: reached only after the
        # flood fill has walked back up against the sweep order.
        a, off = Entry.lit(0, True), CONST0
        rows = [
            [off, off, off, off, a],
            [a, a, a, off, a],
            [a, off, a, off, a],
            [a, off, a, a, a],
            [a, off, off, off, off],
        ]
        la = LatticeAssignment(5, 5, [e for row in rows for e in row], 1)
        assert la.realized_truthtable() == TruthTable.from_values(
            [la.evaluate(0), la.evaluate(1)], 1
        )
        assert la.realized_truthtable() == TruthTable.variable(0, 1)


class TestRealization:
    def test_fig1d_4x2(self):
        """Paper Fig. 1(d): f = abcd + a'b'c'd' on a 4x2 lattice."""
        f = parse_sop("abcd + a'b'c'd'")
        entries = [
            Entry.lit(0, True), Entry.lit(0, False),
            Entry.lit(1, True), Entry.lit(1, False),
            Entry.lit(2, True), Entry.lit(2, False),
            Entry.lit(3, True), Entry.lit(3, False),
        ]
        la = LatticeAssignment(4, 2, entries, 4, f.names)
        assert la.realizes(f.to_truthtable())

    def test_constant_lattice(self):
        la = LatticeAssignment(2, 2, [CONST1] * 4, 2)
        assert la.realized_truthtable().is_one()
        la0 = LatticeAssignment(2, 2, [CONST0] * 4, 2)
        assert la0.realized_truthtable().is_zero()

    def test_realizes_rejects_wrong_universe(self):
        la = LatticeAssignment(1, 1, [CONST1], 2)
        with pytest.raises(DimensionError):
            la.realizes(TruthTable.ones(3))

    def test_entry_count_checked(self):
        with pytest.raises(DimensionError):
            LatticeAssignment(2, 2, [CONST1] * 3, 1)

    def test_entry_variable_range_checked(self):
        with pytest.raises(DimensionError):
            LatticeAssignment(1, 1, [Entry.lit(5)], 2)


class TestSurgery:
    def test_transpose_involution(self, rng):
        la = random_assignment(rng, 3, 4, 3)
        assert la.transposed().transposed() == la

    def test_padded_bottom_preserves_function(self, rng):
        """Appending constant-1 rows never changes the TB function."""
        for _ in range(20):
            la = random_assignment(rng, 3, 3, 3)
            padded = la.padded_bottom(2, CONST1)
            assert padded.rows == 5
            assert padded.realized_truthtable() == la.realized_truthtable()

    def test_zero_padding_blocks(self):
        la = LatticeAssignment(1, 1, [CONST1], 1)
        padded = la.padded_bottom(1, CONST0)
        assert padded.realized_truthtable().is_zero()

    def test_hstack_with_isolation_is_or(self, rng):
        for _ in range(20):
            a = random_assignment(rng, 3, 2, 3)
            b = random_assignment(rng, 3, 3, 3)
            stacked = LatticeAssignment.hstack([a, b], isolation=CONST0)
            want = a.realized_truthtable() | b.realized_truthtable()
            assert stacked.realized_truthtable() == want

    def test_hstack_pads_shorter_parts(self, rng):
        a = random_assignment(rng, 2, 2, 2)
        b = random_assignment(rng, 4, 2, 2)
        stacked = LatticeAssignment.hstack([a, b], isolation=CONST0)
        assert stacked.rows == 4
        assert stacked.cols == 5
        want = a.realized_truthtable() | b.realized_truthtable()
        assert stacked.realized_truthtable() == want

    def test_hstack_universe_mismatch(self, rng):
        a = random_assignment(rng, 2, 2, 2)
        b = random_assignment(rng, 2, 2, 3)
        with pytest.raises(DimensionError):
            LatticeAssignment.hstack([a, b])

    def test_hstack_empty(self):
        with pytest.raises(DimensionError):
            LatticeAssignment.hstack([])

    def test_negative_padding_rejected(self, rng):
        la = random_assignment(rng, 2, 2, 2)
        with pytest.raises(DimensionError):
            la.padded_bottom(-1)


class TestTrimming:
    def test_trims_zero_edge_columns(self):
        la = LatticeAssignment(
            2, 3,
            [CONST0, Entry.lit(0), CONST0,
             CONST0, Entry.lit(1), CONST0],
            2,
        )
        trimmed = la.trimmed()
        assert trimmed.cols == 1
        assert trimmed.realized_truthtable() == la.realized_truthtable()

    def test_trims_one_edge_rows(self):
        la = LatticeAssignment(
            3, 1,
            [CONST1, Entry.lit(0), CONST1],
            1,
        )
        trimmed = la.trimmed()
        assert trimmed.rows == 1
        assert trimmed.realized_truthtable() == la.realized_truthtable()

    def test_keeps_interior_isolation(self):
        # A middle all-0 column separates two blocks; it must stay.
        la = LatticeAssignment(
            1, 3,
            [Entry.lit(0), CONST0, Entry.lit(1)],
            2,
        )
        assert la.trimmed().cols == 3

    def test_trim_preserves_function_random(self, rng):
        for _ in range(15):
            la = random_assignment(rng, 3, 3, 3)
            padded = LatticeAssignment.hstack(
                [la], isolation=None
            ).padded_bottom(1, CONST1)
            trimmed = padded.trimmed()
            assert trimmed.realized_truthtable() == la.realized_truthtable()


class TestText:
    def test_to_text_shape(self):
        la = LatticeAssignment(
            2, 2, [Entry.lit(0), CONST0, CONST1, Entry.lit(1, False)], 2
        )
        lines = la.to_text().splitlines()
        assert len(lines) == 2
        assert "a" in lines[0]
        assert "b'" in lines[1]

    def test_repr(self):
        la = LatticeAssignment(1, 2, [CONST0, CONST1], 1)
        assert "1x2" in repr(la)
