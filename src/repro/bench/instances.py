"""Benchmark instances for the paper's evaluation (Tables II and III).

The paper evaluates on 48 single-output slices of LGSynth91 PLA benchmarks
plus three multi-output benchmarks.  The original PLA files are not
shipped here (offline environment), so instances are reconstructed:

* ``squar5`` exactly, from its arithmetic definition (output k is bit
  ``k + 2`` of the square of the 5-bit input; bits 0-1 are the trivial
  ``x0`` and constant 0 the benchmark omits);
* the ``clpl`` slices exactly, from their carry-lookahead cascade
  structure ``f = a1 + b1 a2 + b1 b2 a3 + ...`` (the published
  #inputs/#pi/degree signatures match this shape precisely);
* every other named instance by a seeded synthesizer that searches for an
  irredundant minimum cover with the instance's published signature
  (#inputs, #prime implicants, degree).  The LS search behaviour is driven
  by exactly these parameters, so the comparison's shape survives the
  substitution; per-instance lattice sizes will differ from the paper and
  are reported side by side.

``PAPER_TABLE2`` transcribes the paper's Table II so harnesses can print
published-vs-measured columns; ``PAPER_TABLE3`` does the same for
Table III.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import UnsatisfiableSignatureError
from repro.boolf.cube import Cube
from repro.boolf.minimize import minimize
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.target import TargetSpec

__all__ = [
    "PaperRow",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "instance_names",
    "build_instance",
    "build_multi_instance",
    "squar5_outputs",
    "clpl_output",
    "synth_signature",
]


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table II (published values)."""

    name: str
    num_inputs: int
    num_products: int
    degree: int
    lb: int
    oub: int
    nub: int
    cpu_bounds: float
    sol_pcircuit: str  # method [9]
    sol_heuristic: str  # method [11]
    cpu_heuristic: float
    sol_approx: str  # approximate [6]
    cpu_approx: float
    sol_exact: str  # exact [6]
    cpu_exact: float
    sol_janus: str
    cpu_janus: float

    @property
    def janus_size(self) -> int:
        r, c = self.sol_janus.split("x")
        return int(r) * int(c)


def _row(name, ni, pi, deg, lb, oub, nub, cpu_b, s9, s11, c11, sa, ca, se, ce, sj, cj):
    return PaperRow(name, ni, pi, deg, lb, oub, nub, cpu_b, s9, s11, c11, sa, ca,
                    se, ce, sj, cj)


#: Table II of the paper, transcribed.  CPU columns are the authors'
#: seconds on a 28-core Xeon with a 6-hour limit (21600.0 = timed out).
PAPER_TABLE2: list[PaperRow] = [
    _row("5xp1_1", 7, 11, 5, 16, 105, 32, 4.1, "5x10", "5x5", 501.2, "6x5", 21600.0, "5x5", 21600.0, "4x6", 2023.2),
    _row("5xp1_3", 6, 14, 5, 15, 135, 40, 57.3, "4x11", "5x27", 21600.0, "11x4", 21600.0, "11x4", 21600.0, "4x9", 19745.8),
    _row("b12_00", 6, 4, 4, 9, 24, 20, 0.2, "4x3", "4x3", 0.3, "4x3", 0.6, "4x3", 2.1, "4x3", 0.3),
    _row("b12_01", 7, 7, 4, 12, 35, 20, 0.2, "4x4", "4x4", 1.1, "4x4", 1.6, "5x3", 8.5, "5x3", 1.1),
    _row("b12_02", 8, 7, 5, 12, 42, 24, 0.8, "5x8", "4x4", 5.7, "5x4", 3.7, "4x4", 35.4, "4x4", 4.1),
    _row("b12_03", 4, 4, 2, 6, 6, 6, 0.1, "2x5", "3x2", 0.1, "3x2", 0.2, "3x2", 0.1, "3x2", 0.1),
    _row("b12_06", 9, 9, 6, 15, 44, 24, 4.3, "5x4", "5x4", 23.8, "5x4", 4.6, "5x4", 139.3, "5x4", 23.8),
    _row("b12_07", 7, 6, 4, 16, 24, 24, 0.3, "6x8", "3x6", 1.1, "5x4", 2.5, "3x6", 5.4, "3x6", 1.5),
    _row("c17_01", 4, 4, 2, 6, 6, 6, 0.1, "3x2", "3x2", 0.1, "3x2", 0.2, "3x2", 0.1, "3x2", 0.1),
    _row("clpl_00", 7, 4, 4, 12, 16, 15, 0.2, "4x5", "3x4", 0.4, "3x4", 0.3, "3x4", 1.3, "3x4", 0.3),
    _row("clpl_03", 11, 6, 6, 16, 36, 24, 0.6, "6x9", "3x6", 19.6, "3x6", 2.3, "3x6", 200.0, "3x6", 84.9),
    _row("clpl_04", 9, 5, 5, 15, 25, 18, 0.3, "5x8", "3x5", 5.0, "3x5", 1.3, "3x5", 25.3, "3x5", 1.3),
    _row("dc1_00", 4, 4, 3, 9, 16, 15, 0.2, "4x4", "3x3", 0.1, "3x3", 0.4, "3x3", 0.4, "3x3", 0.2),
    _row("dc1_02", 4, 4, 3, 12, 16, 15, 0.2, "3x5", "3x4", 0.1, "3x4", 0.3, "4x3", 0.2, "4x3", 0.3),
    _row("dc1_03", 4, 4, 4, 9, 20, 18, 0.2, "4x5", "4x3", 0.2, "4x3", 0.4, "4x3", 0.5, "4x3", 0.3),
    _row("ex5_06", 7, 8, 3, 16, 32, 24, 0.3, "3x10", "3x6", 1.2, "3x7", 12.0, "3x6", 7.2, "3x6", 2.1),
    _row("ex5_07", 8, 10, 4, 24, 40, 27, 0.7, "3x13", "4x6", 19.7, "3x9", 332.2, "4x6", 473.2, "3x8", 2.5),
    _row("ex5_08", 8, 7, 3, 20, 21, 21, 0.2, "3x9", "3x7", 0.0, "3x7", 9.3, "3x7", 51.2, "3x7", 7.2),
    _row("ex5_09", 8, 10, 4, 24, 40, 30, 12.3, "3x11", "4x6", 5.7, "3x8", 108.2, "4x6", 454.6, "3x8", 17.6),
    _row("ex5_10", 6, 7, 3, 16, 21, 21, 0.2, "3x9", "3x6", 0.7, "3x6", 1.4, "3x6", 3.8, "3x6", 0.5),
    _row("ex5_12", 8, 9, 3, 15, 25, 20, 0.2, "5x9", "3x5", 1.8, "3x5", 1.7, "3x5", 13.7, "3x5", 12.6),
    _row("ex5_13", 8, 9, 3, 24, 36, 27, 0.9, "3x13", "3x8", 10.0, "4x6", 57.6, "4x6", 190.2, "3x8", 2.8),
    _row("ex5_14", 8, 8, 2, 16, 16, 16, 0.2, "3x11", "2x8", 0.9, "2x8", 1.2, "2x8", 6.7, "2x8", 0.2),
    _row("ex5_15", 8, 12, 4, 20, 72, 33, 3.1, "4x13", "4x7", 48.5, "6x12", 21600.0, "6x5", 21600.0, "3x8", 2562.4),
    _row("ex5_17", 8, 14, 4, 20, 105, 42, 23.2, "4x10", "4x7", 1425.6, "10x6", 21600.0, "6x6", 21600.0, "3x9", 4377.6),
    _row("ex5_19", 8, 6, 3, 16, 18, 18, 0.1, "5x7", "3x6", 1.4, "3x6", 1.1, "3x6", 6.9, "3x6", 0.4),
    _row("ex5_21", 8, 10, 3, 20, 57, 30, 0.5, "4x9", "3x7", 8.2, "4x7", 1364.6, "3x7", 280.9, "3x7", 790.8),
    _row("ex5_22", 7, 6, 3, 16, 33, 21, 0.2, "3x8", "3x6", 1.3, "3x6", 2.0, "3x6", 8.4, "3x6", 1.2),
    _row("ex5_23", 8, 12, 4, 24, 92, 36, 39.0, "4x11", "4x8", 2465.0, "11x5", 21600.0, "3x9", 15418.6, "3x9", 3726.4),
    _row("ex5_24", 8, 14, 5, 20, 105, 33, 7.0, "5x14", "15x7", 21600.0, "3x11", 21600.0, "4x7", 21600.0, "3x8", 1638.8),
    _row("ex5_25", 8, 8, 3, 20, 40, 27, 0.3, "3x8", "3x7", 16.4, "3x7", 6.4, "3x7", 79.4, "3x7", 152.7),
    _row("ex5_26", 8, 10, 3, 20, 57, 30, 0.7, "4x11", "3x7", 12.9, "3x9", 384.5, "3x7", 238.5, "3x7", 36.3),
    _row("ex5_27", 8, 11, 4, 20, 77, 27, 1.3, "4x10", "4x6", 58.1, "3x8", 1049.5, "4x6", 1561.3, "3x8", 1229.3),
    _row("ex5_28", 8, 9, 3, 24, 27, 27, 0.2, "3x13", "3x8", 5.3, "3x8", 180.2, "6x4", 51.5, "3x8", 1.6),
    _row("misex1_00", 4, 2, 4, 6, 8, 8, 0.1, "4x3", "4x2", 0.1, "4x2", 0.2, "4x2", 0.2, "4x2", 0.1),
    _row("misex1_01", 6, 5, 4, 12, 35, 18, 0.2, "5x5", "3x5", 1.9, "4x4", 1.7, "3x5", 7.4, "3x5", 1.1),
    _row("misex1_02", 7, 5, 5, 12, 40, 25, 0.4, "5x5", "5x4", 24.0, "5x4", 4.6, "5x4", 50.9, "5x4", 19.7),
    _row("misex1_03", 7, 4, 5, 9, 28, 20, 0.3, "4x6", "4x3", 0.9, "5x3", 1.2, "4x3", 3.9, "4x3", 0.5),
    _row("misex1_04", 4, 5, 4, 12, 25, 18, 0.2, "4x7", "3x4", 0.2, "5x3", 1.0, "3x4", 0.7, "3x4", 0.4),
    _row("misex1_05", 6, 6, 4, 12, 42, 21, 0.3, "4x6", "4x4", 4.6, "5x4", 4.9, "4x4", 13.4, "4x4", 2.1),
    _row("misex1_06", 6, 5, 4, 12, 35, 18, 0.2, "4x7", "5x3", 1.3, "5x3", 1.6, "5x3", 4.7, "5x3", 1.3),
    _row("misex1_07", 6, 4, 4, 9, 20, 18, 0.3, "5x5", "4x3", 0.7, "5x3", 1.0, "4x3", 1.6, "4x3", 0.5),
    _row("mp2d_01", 10, 8, 5, 24, 48, 30, 4.3, "4x11", "5x7", 28.7, "4x7", 291.3, "3x9", 6478.3, "3x9", 3257.3),
    _row("mp2d_02", 11, 10, 4, 28, 50, 33, 0.9, "4x13", "4x9", 33.9, "4x7", 730.7, "4x7", 4580.7, "4x7", 948.9),
    _row("mp2d_03", 10, 5, 8, 15, 72, 32, 4.5, "7x6", "5x5", 42.3, "4x6", 188.2, "6x4", 1322.7, "4x6", 271.2),
    _row("mp2d_04", 10, 6, 9, 15, 57, 36, 5.5, "7x3", "7x3", 18.9, "7x3", 58.8, "7x3", 3043.1, "7x3", 286.8),
    _row("mp2d_06", 5, 3, 5, 8, 18, 16, 0.3, "5x4", "6x2", 0.3, "7x2", 1.2, "4x3", 1.1, "6x2", 0.4),
    _row("newtag_00", 8, 8, 3, 16, 32, 24, 0.2, "3x8", "3x6", 2.7, "3x6", 2.1, "3x6", 19.0, "3x6", 2.2),
]

#: Table III of the paper: (name, #out, straightforward sol/size/CPU,
#: JANUS-MF sol/size/CPU).
PAPER_TABLE3: dict[str, dict] = {
    "bw": {"outputs": 28, "sf_sol": "5x119", "sf_size": 595, "sf_cpu": 12.7,
           "mf_sol": "3x135", "mf_size": 405, "mf_cpu": 14.1},
    "misex1": {"outputs": 7, "sf_sol": "5x31", "sf_size": 155, "sf_cpu": 25.3,
               "mf_sol": "3x42", "mf_size": 126, "mf_cpu": 30.4},
    "squar5": {"outputs": 8, "sf_sol": "5x31", "sf_size": 155, "sf_cpu": 31.7,
               "mf_sol": "3x36", "mf_size": 108, "mf_cpu": 59.7},
}


def instance_names() -> list[str]:
    return [row.name for row in PAPER_TABLE2]


def _paper_row(name: str) -> PaperRow:
    for row in PAPER_TABLE2:
        if row.name == name:
            return row
    raise KeyError(f"unknown instance {name!r}")


# ------------------------------------------------------------ exact rebuilds
def clpl_output(num_products: int) -> Sop:
    """A clpl slice: the carry-lookahead cascade with ``k`` products.

    ``f = a1 + b1 a2 + b1 b2 a3 + ... + b1..b_{k-1} a_k`` over
    ``2k - 1`` variables; product i has i literals, so #pi = k and
    degree = k, matching the published clpl signatures exactly.
    """
    num_vars = 2 * num_products - 1
    # variables: a_i at even indices 0,2,..; b_i at odd indices 1,3,..
    cubes = []
    for i in range(num_products):
        lits = [(2 * i, True)] + [(2 * j + 1, True) for j in range(i)]
        cubes.append(Cube.from_literals(lits, num_vars))
    return Sop(cubes, num_vars)


def squar5_outputs() -> list[TruthTable]:
    """The 8 non-trivial outputs of squar5: bits 2..9 of x**2, x 5-bit."""
    outs = []
    for bit in range(2, 10):
        outs.append(
            TruthTable.from_values(((x * x) >> bit & 1 for x in range(32)), 5)
        )
    return outs


# -------------------------------------------------------- seeded synthesis
def stable_seed(name: str) -> int:
    """Process-independent seed for an instance name (crc32, not hash())."""
    return zlib.crc32(name.encode())


def synth_signature(
    num_inputs: int,
    num_products: int,
    degree: int,
    name: str = "synthetic",
    base_seed: int = 0,
    max_tries: int = 400,
) -> TargetSpec:
    """Search for a function whose minimum cover has the given signature.

    Seeded rejection sampling: propose covers, minimize exactly, accept on
    a (#pi, degree, full support) match.  Falls back to the closest
    attempt when no exact match is found within ``max_tries`` (recorded in
    the spec name with a ``~`` prefix so reports can flag it).
    """
    # An impossible signature used to surface as a raw numpy ValueError
    # from cube sampling (degree > #inputs) or an opaque fallback miss;
    # validate up front so a broken published row names itself.
    if num_inputs < 1 or num_products < 1 or degree < 1:
        raise UnsatisfiableSignatureError(
            name, num_inputs, num_products, degree,
            "every signature component must be at least 1",
        )
    if degree > num_inputs:
        raise UnsatisfiableSignatureError(
            name, num_inputs, num_products, degree,
            "a product cannot have more literals than there are inputs",
        )
    best: Optional[TargetSpec] = None
    best_err = None
    for attempt in range(max_tries):
        rng = np.random.default_rng((base_seed, attempt, num_inputs, degree))
        sop = _propose(rng, num_inputs, num_products, degree)
        tt = sop.to_truthtable()
        if tt.is_zero() or tt.is_one():
            continue
        cover = minimize(tt)
        support_ok = len(cover.support()) == num_inputs
        err = (
            abs(cover.num_products - num_products) * 10
            + abs(cover.degree - degree) * 10
            + (0 if support_ok else 5)
        )
        if err == 0:
            spec = TargetSpec(
                name=name,
                tt=tt,
                isop=cover.sorted(),
                dual_isop=minimize(tt.dual()).sorted(),
                names=None,
            )
            return spec
        if best_err is None or err < best_err:
            best_err = err
            best = TargetSpec(
                name=f"~{name}",
                tt=tt,
                isop=cover.sorted(),
                dual_isop=minimize(tt.dual()).sorted(),
                names=None,
            )
    if best is None:
        raise UnsatisfiableSignatureError(
            name, num_inputs, num_products, degree,
            f"no usable cover within {max_tries} seeded proposals",
        )
    return best


def _propose(
    rng: np.random.Generator, num_inputs: int, num_products: int, degree: int
) -> Sop:
    """Propose a cover: one product of full degree, the rest a bit smaller."""
    cubes: set[Cube] = set()
    sizes = [degree]
    lo = max(1, degree - rng.integers(0, 3))
    while len(sizes) < num_products:
        sizes.append(int(rng.integers(lo, degree + 1)))
    guard = 0
    for size in sizes:
        while guard < 10_000:
            guard += 1
            chosen = rng.choice(num_inputs, size=size, replace=False)
            polarity = rng.integers(0, 2, size=size)
            cube = Cube.from_literals(
                [(int(v), bool(p)) for v, p in zip(chosen, polarity)], num_inputs
            )
            if cube not in cubes:
                cubes.add(cube)
                break
    return Sop(sorted(cubes), num_inputs)


# ------------------------------------------------------------- public entry
@lru_cache(maxsize=None)
def build_instance(name: str) -> TargetSpec:
    """Build a Table II instance by name (exact rebuild or synthesized)."""
    row = _paper_row(name)
    if name.startswith("clpl"):
        sop = clpl_output(row.num_products)
        tt = sop.to_truthtable()
        return TargetSpec(
            name=name,
            tt=tt,
            isop=minimize(tt).sorted(),
            dual_isop=minimize(tt.dual()).sorted(),
            names=None,
        )
    return synth_signature(
        row.num_inputs,
        row.num_products,
        row.degree,
        name=name,
        base_seed=stable_seed(name),
    )


@lru_cache(maxsize=None)
def build_multi_instance(name: str) -> tuple[TargetSpec, ...]:
    """Build a Table III multi-output instance by name."""
    if name == "squar5":
        return tuple(
            TargetSpec.from_truthtable(tt, name=f"squar5_{k}")
            for k, tt in enumerate(squar5_outputs())
        )
    if name == "misex1":
        # Table III reports 7 outputs; use the first seven Table II slices.
        return tuple(build_instance(f"misex1_{k:02d}") for k in range(7))
    if name == "bw":
        # bw: 5 inputs, 28 small outputs.  Signatures chosen to mimic the
        # benchmark's profile (mostly 1-4 products of degree 2-5).
        rng = np.random.default_rng(1991)
        specs = []
        for k in range(28):
            pi = int(rng.integers(1, 5))
            deg = int(rng.integers(2, 6))
            specs.append(
                synth_signature(5, pi, min(deg, 5), name=f"bw_{k:02d}", base_seed=k)
            )
        return tuple(specs)
    raise KeyError(f"unknown multi-output instance {name!r}")
