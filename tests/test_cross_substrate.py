"""Cross-substrate consistency checks.

The library has independent ways to talk about a lattice's behaviour:
path enumeration (`repro.lattice.paths`), the path SOPs built from it
(`repro.lattice.function`) and flood-fill evaluation of assignments
(`repro.lattice.assignment`).  These tests pin them against each other,
minterm by minterm, on every lattice up to 3x3 — in particular the
Altun-Riedel duality theorem (the dual of the 4-connected top-bottom
lattice function is the 8-connected left-right function), which the
whole dual-side encoding rests on.  The dual is computed here as
``not f(not x)`` per minterm, so the check depends neither on
``TruthTable.dual`` nor on the encoder.
"""

import pytest

from repro.lattice import (
    Entry,
    LatticeAssignment,
    lattice_dual_function,
    lattice_function,
    left_right_paths8,
    top_bottom_paths,
)

SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]


def identity_lattice(rows: int, cols: int) -> LatticeAssignment:
    """Switch (r, c) assigned its own variable — realizes f_{rows x cols}."""
    size = rows * cols
    return LatticeAssignment(
        rows, cols, [Entry.lit(i) for i in range(size)], size
    )


def conducts(paths: list[int], minterm: int) -> bool:
    """Whether some path has every switch on under ``minterm`` (switch i
    is variable i)."""
    return any(mask & minterm == mask for mask in paths)


def minterm_dual(values: list[bool]) -> list[bool]:
    """``not f(not x)`` for every minterm ``x`` of ``f``'s value list."""
    full = len(values) - 1
    return [not values[m ^ full] for m in range(len(values))]


def table_values(tt) -> list[bool]:
    return [bool(tt.bits >> m & 1) for m in range(1 << tt.num_vars)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_paths_vs_floodfill(shape):
    rows, cols = shape
    sop = lattice_function(rows, cols)
    realized = identity_lattice(rows, cols).realized_truthtable()
    assert sop.to_truthtable() == realized


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_duality_theorem_via_minterms(shape):
    # dual(f_mxn), evaluated as not f(not x) over the top-bottom paths,
    # must equal the 8-connected left-right path enumeration and the
    # dual SOP built from it.
    rows, cols = shape
    minterms = range(1 << (rows * cols))
    primal = [conducts(top_bottom_paths(rows, cols), m) for m in minterms]
    dual = minterm_dual(primal)
    assert dual == [conducts(left_right_paths8(rows, cols), m) for m in minterms]
    dual_sop = lattice_dual_function(rows, cols)
    assert dual == [dual_sop.evaluate(m) for m in minterms]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_duality_theorem_via_floodfill(shape):
    # The physical reading: left-right 8-connected conduction of the
    # identity lattice is the dual function.
    rows, cols = shape
    lattice = identity_lattice(rows, cols)
    dual_tt = lattice_dual_function(rows, cols).to_truthtable()
    assert lattice.realized_dual_side_truthtable() == dual_tt
    primal = table_values(lattice.realized_truthtable())
    assert table_values(lattice.realized_dual_side_truthtable()) == (
        minterm_dual(primal)
    )


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_paths_vs_sop_by_minterms(shape):
    # f built from its paths and f built from its SOP agree on every
    # minterm, and so does flood-fill of the identity lattice.
    rows, cols = shape
    minterms = range(1 << (rows * cols))
    paths = [conducts(top_bottom_paths(rows, cols), m) for m in minterms]
    sop = lattice_function(rows, cols)
    assert paths == [sop.evaluate(m) for m in minterms]
    realized = identity_lattice(rows, cols).realized_truthtable()
    assert paths == table_values(realized)


def test_paper_footnote_dual_products():
    # Footnote 1 of the paper lists the 17 dual products of f_3x3; path
    # enumeration, the dual SOP and flood-fill must agree on the count
    # and the function.
    dual = lattice_dual_function(3, 3)
    assert dual.num_products == 17
    assert len(left_right_paths8(3, 3)) == 17
    primal = table_values(identity_lattice(3, 3).realized_truthtable())
    expected = minterm_dual(primal)
    assert [dual.evaluate(m) for m in range(1 << 9)] == expected
    assert sum(expected) == dual.to_truthtable().count_ones()
