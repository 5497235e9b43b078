"""The full espresso iteration: EXPAND / IRREDUNDANT / ESSENTIALS /
REDUCE / LASTGASP.

The espresso machinery (Brayton et al., *Logic Minimization Algorithms
for VLSI Synthesis* — the paper's reference [12]) over the library's
dense truth-table representation.  Beyond one EXPAND + IRREDUNDANT
pass (:func:`expand_pass`, :func:`irredundant_pass`) it runs:

* **ESSENTIALS** — primes covering an onset minterm no other prime
  covers are set aside and their coverage moved to the don't-care set;
* **REDUCE** — each cube is shrunk to the supercube of the onset part
  only it covers, freeing literals for the next EXPAND to climb to a
  *different* prime;
* **LASTGASP** — when an iteration stalls, every cube is maximally
  reduced *independently* (against the unreduced rest), re-expanded, and
  the new primes offered to the covering step once more.

The iteration is monotone in the cost ``(num_products, num_literals)``
and stops at the first pass that fails to improve it.  Every
intermediate cover satisfies ``tt <= cover <= tt | dc`` (asserted in
tests, property-based over random functions).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.boolf.cover import CoverBudget, min_cover
from repro.boolf.cube import Cube
from repro.boolf.isop import isop_interval
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, interval_upper

__all__ = [
    "espresso",
    "expand_pass",
    "irredundant_pass",
    "reduce_pass",
    "essential_primes",
]


def _supercube_of_minterms(minterms: Sequence[int], num_vars: int) -> Cube:
    """Smallest cube containing all the given minterms."""
    ones = minterms[0]
    zeros = ~minterms[0]
    for m in minterms[1:]:
        ones &= m
        zeros &= ~m
    mask = (1 << num_vars) - 1
    return Cube(ones & mask, zeros & mask, num_vars)


def _expand_to_prime(cube: Cube, upper: TruthTable) -> Cube:
    """Greedily drop literals while the cube stays inside ``upper``.

    Literals are tried in variable order; espresso's weighting heuristics
    matter for quality on huge covers but not at this library's sizes.
    """
    current = cube
    improved = True
    while improved:
        improved = False
        for var, _positive in list(current.literals()):
            cand = current.without(var)
            if upper.cube_is_implicant(cand):
                current = cand
                improved = True
    return current


def expand_pass(cubes: list[Cube], upper: TruthTable) -> list[Cube]:
    """EXPAND every cube to a prime of ``upper``; drop duplicates and
    single-cube absorptions."""
    expanded: list[Cube] = []
    for cube in sorted(cubes, key=lambda c: -c.num_literals):
        prime = _expand_to_prime(cube, upper)
        if not any(kept.contains(prime) for kept in expanded):
            expanded = [k for k in expanded if not prime.contains(k)]
            expanded.append(prime)
    return expanded


def irredundant_pass(
    cubes: list[Cube],
    tt: TruthTable,
    budget: Optional[CoverBudget] = None,
) -> list[Cube]:
    """Minimum subset of ``cubes`` still covering the onset of ``tt``."""
    on = tt.bits
    if not on:
        return []
    columns = [TruthTable.from_cube(cube).bits & on for cube in cubes]
    chosen = min_cover(columns, on, budget or CoverBudget(max_nodes=20_000))
    return [cubes[i] for i in sorted(chosen)]


def essential_primes(cubes: list[Cube], tt: TruthTable) -> list[Cube]:
    """Primes covering some onset minterm that no other cube covers."""
    num_vars = tt.num_vars
    tables = [TruthTable.from_cube(c) for c in cubes]
    essentials: list[Cube] = []
    for i, cube in enumerate(cubes):
        others = TruthTable.zeros(num_vars)
        for j, table in enumerate(tables):
            if j != i:
                others = others | table
        alone = (tt & tables[i]) - others
        if not alone.is_zero():
            essentials.append(cube)
    return essentials


def reduce_pass(cubes: list[Cube], tt: TruthTable) -> list[Cube]:
    """REDUCE: shrink each cube to the supercube of the onset it alone
    covers (relative to the *current*, partially reduced cover).

    Cubes are processed largest-first (the classic heuristic); cubes made
    redundant along the way are dropped.
    """
    num_vars = tt.num_vars
    order = sorted(range(len(cubes)), key=lambda i: -cubes[i].size())
    current: dict[int, Cube] = dict(enumerate(cubes))
    for i in order:
        others = TruthTable.zeros(num_vars)
        for j, cube in current.items():
            if j != i:
                others = others | TruthTable.from_cube(cube)
        needed = (tt & TruthTable.from_cube(current[i])) - others
        minterms = needed.onset()
        if not minterms:
            del current[i]
            continue
        current[i] = _supercube_of_minterms(minterms, num_vars)
    return [current[i] for i in sorted(current)]


def _cost(cubes: list[Cube]) -> tuple[int, int]:
    return len(cubes), sum(c.num_literals for c in cubes)


def _lastgasp(
    cubes: list[Cube], tt: TruthTable, upper: TruthTable
) -> list[Cube]:
    """LASTGASP: maximal independent reductions, re-expanded, offered to
    the covering step together with the current cover."""
    num_vars = tt.num_vars
    tables = [TruthTable.from_cube(c) for c in cubes]
    fresh: list[Cube] = []
    for i in range(len(cubes)):
        others = TruthTable.zeros(num_vars)
        for j, table in enumerate(tables):
            if j != i:
                others = others | table
        needed = (tt & tables[i]) - others
        minterms = needed.onset()
        if not minterms:
            continue
        reduced = _supercube_of_minterms(minterms, num_vars)
        prime = _expand_to_prime(reduced, upper)
        if prime not in cubes and prime not in fresh:
            fresh.append(prime)
    if not fresh:
        return cubes
    return irredundant_pass(cubes + fresh, tt)


def espresso(
    tt: TruthTable,
    dc: Optional[TruthTable] = None,
    names: Optional[Sequence[str]] = None,
    max_loops: int = 10,
) -> Sop:
    """Full espresso loop; returns an irredundant cover of primes with
    ``tt <= cover <= tt | dc``.

    Not guaranteed minimum (espresso never is), but at this library's
    instance sizes it matches the exact minimizer on most functions —
    measured in ``tests/boolf/test_espresso.py``.
    """
    num_vars = tt.num_vars
    upper = interval_upper(tt, dc)
    if tt.is_zero():
        return Sop.zero(num_vars, names)
    if upper.is_one():
        return Sop.one(num_vars, names)

    cover = list(isop_interval(tt, upper, names).cubes)
    cover = expand_pass(cover, upper)
    cover = irredundant_pass(cover, tt)

    # Peel off essentials: they are in every prime cover built from this
    # prime set, so the loop only has to work on the remainder.
    essentials = essential_primes(cover, tt)
    if essentials:
        covered = TruthTable.from_cubes(essentials, num_vars)
        remainder_tt = tt - covered
        remainder_upper = upper  # essentials' area acts as don't-care
        cover = [c for c in cover if c not in essentials]
        cover = irredundant_pass(cover, remainder_tt)
    else:
        remainder_tt = tt
        remainder_upper = upper

    best = list(cover)
    best_cost = _cost(best)
    for _ in range(max_loops):
        cover = reduce_pass(cover, remainder_tt)
        cover = expand_pass(cover, remainder_upper)
        cover = irredundant_pass(cover, remainder_tt)
        cost = _cost(cover)
        if cost < best_cost:
            best, best_cost = list(cover), cost
            continue
        gasped = _lastgasp(best, remainder_tt, remainder_upper)
        if _cost(gasped) < best_cost:
            cover, best, best_cost = list(gasped), list(gasped), _cost(gasped)
            continue
        break

    return Sop(sorted(essentials + best), num_vars, names)
