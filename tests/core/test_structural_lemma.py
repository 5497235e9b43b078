"""The structural lemma (paper, Section III-A) checked against the encoding.

``structural_check`` rejects a shape without solving: every product of
the cover (and of its dual) needs a distinct lattice path at least as
long.  Most UNSAT probes of a run are decided this way, so here the LM
encoding itself must agree: for one function of every NPN class and
every shape of area at most 9 that the check rejects, the cheaper side's
CNF is UNSAT.

The 3-input sweep (13 classes, 217 rejected shapes) runs with the test
suite.  The 4-input sweep (221 classes, 4,774 rejected shapes) takes
minutes on the pure core, so it runs as a script:

    PYTHONPATH=src python tests/core/test_structural_lemma.py 4
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro.boolf import Sop, TruthTable
from repro.core.encoder import best_encoding
from repro.core.janus import JanusOptions, make_spec, solve_lm
from repro.core.structural import structural_check
from repro.core.target import TargetSpec
from repro.errors import DimensionError
from repro.sat.solver import solve_cnf

MAX_AREA = 9
SHAPES = [
    (rows, cols)
    for rows in range(1, MAX_AREA + 1)
    for cols in range(1, MAX_AREA + 1)
    if rows * cols <= MAX_AREA
]


def npn_representatives(num_vars: int) -> list[int]:
    """The smallest truth table of every non-constant NPN class."""
    size = 1 << num_vars
    full = (1 << size) - 1
    images = []  # one minterm map per input permutation and polarity
    for perm in itertools.permutations(range(num_vars)):
        for mask in range(size):
            image = []
            for m in range(size):
                flipped = m ^ mask
                image.append(sum(
                    1 << perm[i] for i in range(num_vars) if flipped >> i & 1
                ))
            images.append(image)
    seen = bytearray(1 << size)
    reps = []
    for bits in range(1, full):
        if seen[bits]:
            continue
        reps.append(bits)
        for image in images:
            moved = sum(1 << image[m] for m in range(size) if bits >> m & 1)
            seen[moved] = seen[moved ^ full] = 1
    return reps


def rejected_probes(num_vars: int):
    """(spec, rows, cols) for every shape ``structural_check`` rejects."""
    for bits in npn_representatives(num_vars):
        spec = make_spec(TruthTable(bits, num_vars), name=f"npn{bits:x}")
        for rows, cols in SHAPES:
            if not structural_check(spec, rows, cols):
                yield spec, rows, cols


def encoded_status(spec: TargetSpec, rows: int, cols: int) -> str:
    """What the LM encoding alone says about ``spec`` on rows x cols."""
    chosen, _ = best_encoding(spec, rows, cols)
    if chosen is None:
        return "unbuilt"
    return solve_cnf(chosen.cnf, max_conflicts=None).status


def test_npn_class_counts():
    assert len(npn_representatives(2)) == 3
    assert len(npn_representatives(3)) == 13


def test_encoding_confirms_every_3_input_rejection():
    probes = list(rejected_probes(3))
    assert len(probes) == 217
    wrong = [
        (spec.name, rows, cols, status)
        for spec, rows, cols in probes
        if (status := encoded_status(spec, rows, cols)) != "unsat"
    ]
    assert wrong == []


def test_infeasible_exit_needs_a_cover_that_misses_its_table():
    # A live spec whose cover (a) does not realize its table (a xor b):
    # minterms a=1,b=0 and a=1,b=1 agree on every cover literal but not
    # on the required output, on both sides, so no mapping exists and
    # the probe is decided UNSAT before any CNF is built.
    cover = Sop.from_string("a", names=["a", "b"])
    spec = TargetSpec(
        name="broken",
        tt=TruthTable.from_function(lambda x: x[0] != x[1], 2),
        isop=cover,
        dual_isop=cover,
    )
    with pytest.raises(DimensionError):
        spec.validate()
    assert structural_check(spec, 2, 2)
    chosen, built = best_encoding(spec, 2, 2)
    assert chosen is None
    assert all(enc.infeasible for enc in built)
    outcome = solve_lm(spec, 2, 2, JanusOptions())
    assert (outcome.status, outcome.attempt.status) == ("unsat", "unsat")
    assert outcome.attempt.side is None


def main(argv: list[str]) -> int:
    num_vars = int(argv[1]) if len(argv) > 1 else 4
    checked = 0
    for spec, rows, cols in rejected_probes(num_vars):
        status = encoded_status(spec, rows, cols)
        if status != "unsat":
            print(f"{spec.name} {rows}x{cols}: {status}, not unsat")
            return 1
        checked += 1
    print(f"{num_vars}-input: all {checked} rejected shapes are UNSAT")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
