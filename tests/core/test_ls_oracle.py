"""LS-level oracle: brute-force minimal lattices for tiny functions.

`tests/core/test_lm_exhaustive.py` validates single LM probes against
brute force; this file validates the *synthesis* level.  For 2-variable
functions the full design space is enumerable: every lattice shape by
ascending area, every assignment of {all 4 literals, 0, 1} to its cells.
The resulting true minimum is compared against the dichotomic search.

JANUS draws assignments from the minimized cover's literals only, so its
search space is a subset of the oracle's; the assertions are
``janus >= oracle`` always (nobody beats the optimum) and
``janus == oracle`` for these sizes (the paper's claim that solutions
are near-minimum collapses to equality on trivial instances).
"""

import itertools

import pytest

from repro.boolf import TruthTable
from repro.core import JanusOptions, make_spec, synthesize
from repro.lattice import CONST0, CONST1, Entry, LatticeAssignment


def shapes_by_area(max_area: int):
    shapes = [
        (r, c)
        for r in range(1, max_area + 1)
        for c in range(1, max_area + 1)
        if r * c <= max_area
    ]
    return sorted(shapes, key=lambda s: (s[0] * s[1], s[0]))


def brute_force_minimum(tt: TruthTable, max_area: int = 6):
    """Smallest lattice area realizing ``tt`` with any literal/constant
    assignment, or None if none exists within ``max_area``."""
    entries_pool = [
        Entry.lit(v, pos) for v in range(tt.num_vars) for pos in (True, False)
    ] + [CONST0, CONST1]
    for rows, cols in shapes_by_area(max_area):
        cells = rows * cols
        for combo in itertools.product(entries_pool, repeat=cells):
            lattice = LatticeAssignment(rows, cols, list(combo), tt.num_vars)
            if lattice.realized_truthtable() == tt:
                return rows * cols
    return None


@pytest.mark.parametrize("bits", range(1, 15))
def test_janus_matches_oracle_on_all_2var_functions(bits):
    # All non-constant 2-variable functions (0b0001 .. 0b1110).
    tt = TruthTable(bits, 2)
    oracle = brute_force_minimum(tt, max_area=6)
    assert oracle is not None, "every 2-var function fits within area 6"
    result = synthesize(make_spec(tt), options=JanusOptions(max_conflicts=50_000))
    assert result.size >= oracle  # sanity: cannot beat the true optimum
    assert result.size == oracle


def test_oracle_agrees_with_known_sizes():
    # Spot checks of the oracle itself.
    assert brute_force_minimum(TruthTable.from_minterms([3], 2)) == 2  # ab
    assert brute_force_minimum(TruthTable.from_minterms([1, 2, 3], 2)) == 2  # a+b
    assert (
        brute_force_minimum(TruthTable.from_minterms([1, 2], 2)) == 4
    )  # a xor b
