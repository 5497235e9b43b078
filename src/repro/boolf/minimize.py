"""Two-level logic minimization (the library's espresso stand-in).

The paper feeds JANUS target functions "with a minimum number of products
obtained using a logic minimization tool ... in ISOP form".  This module
provides that contract:

* :func:`minimize` — exact minimum-cardinality prime cover when tractable
  (prime implicants + branch-and-bound unate covering), else the
  espresso heuristic (:func:`repro.boolf.espresso.espresso`): for more
  than ``_EXACT_MAX_VARS`` inputs, ``_EXACT_MAX_MINTERMS`` onset minterms
  or ``_EXACT_MAX_PRIMES`` primes.
* :func:`exact_min_sop` — the exact path alone; raises ``ValueError``
  past the prime limit.

Every result is an irredundant cover of primes, functionally equal to the
input (asserted in tests).  Minterm sets are ints (bit ``m`` = minterm
``m``) throughout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.boolf.cover import CoverBudget, min_cover
from repro.boolf.cube import Cube
from repro.boolf.primes import prime_implicants
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, _cube_bits, interval_upper

__all__ = ["minimize", "exact_min_sop"]

# The exact path is attempted only below these sizes; beyond them the
# espresso-style heuristic takes over.  Both limits are far above anything
# the DATE-2019 benchmark suite needs.
_EXACT_MAX_VARS = 14
_EXACT_MAX_PRIMES = 4000
_EXACT_MAX_MINTERMS = 8192


def minimize(
    tt: TruthTable,
    dc: Optional[TruthTable] = None,
    names: Optional[Sequence[str]] = None,
    exact: bool = True,
    budget: Optional[CoverBudget] = None,
) -> Sop:
    """Minimum (or near-minimum) irredundant prime cover of ``tt``.

    ``dc`` optionally marks don't-care minterms.  With ``exact=True`` the
    result has the true minimum number of products whenever the instance
    fits the internal limits; otherwise a heuristic cover is returned.
    """
    num_vars = tt.num_vars
    upper = interval_upper(tt, dc)
    if tt.is_zero():
        return Sop.zero(num_vars, names)
    if upper.is_one():
        return Sop.one(num_vars, names)

    if (
        exact
        and num_vars <= _EXACT_MAX_VARS
        and tt.count_ones() <= _EXACT_MAX_MINTERMS
    ):
        primes = prime_implicants(tt, dc)
        if len(primes) <= _EXACT_MAX_PRIMES:
            return _exact_cover(tt, upper, primes, names, budget)
    # Heuristic path: the full espresso loop (EXPAND / IRREDUNDANT /
    # ESSENTIALS / REDUCE / LASTGASP).
    from repro.boolf.espresso import espresso

    return espresso(tt, dc, names)


def exact_min_sop(
    tt: TruthTable,
    dc: Optional[TruthTable] = None,
    names: Optional[Sequence[str]] = None,
    budget: Optional[CoverBudget] = None,
) -> Sop:
    """Exact minimum-cardinality prime cover via primes + unate covering.

    Raises ``ValueError`` when the prime set exceeds the internal limit;
    :func:`minimize` takes the heuristic path there instead.
    """
    primes = prime_implicants(tt, dc)
    if len(primes) > _EXACT_MAX_PRIMES:
        raise ValueError(
            f"{len(primes)} primes exceed the exact-minimization limit"
        )
    return _exact_cover(tt, interval_upper(tt, dc), primes, names, budget)


def _exact_cover(
    tt: TruthTable,
    upper: TruthTable,
    primes: list[Cube],
    names: Optional[Sequence[str]],
    budget: Optional[CoverBudget],
) -> Sop:
    """A minimum cover of ``tt`` drawn from its sorted ``primes``."""
    on = tt.bits
    columns = [_cube_bits(p.pos, p.neg, p.num_vars) & on for p in primes]
    chosen = min_cover(columns, on, budget)
    cubes = sorted(primes[i] for i in chosen)
    cubes = _prefer_fewer_literals(cubes, primes, columns, on, upper.bits)
    return Sop(cubes, tt.num_vars, names)


def _prefer_fewer_literals(
    cubes: list[Cube],
    primes: list[Cube],
    columns: list[int],
    on: int,
    upper: int,
) -> list[Cube]:
    """Secondary objective: swap any cube for an equal-coverage prime with
    fewer literals (keeps cardinality optimal, trims literal count).

    ``columns[i]`` is the onset part of ``primes[i]``; every prime is an
    implicant of ``upper``, so a swap only has to cover the onset minterms
    no other cube of the cover covers.
    """
    out = list(cubes)
    full = [_cube_bits(c.pos, c.neg, c.num_vars) for c in out]
    for idx in range(len(out)):
        rest = 0
        for j, bits in enumerate(full):
            if j != idx:
                rest |= bits
        needed = on & ~rest
        for cand, cells in zip(primes, columns):
            if cand.num_literals < out[idx].num_literals and not needed & ~cells:
                out[idx] = cand
                full[idx] = _cube_bits(cand.pos, cand.neg, cand.num_vars)
                break
    # Result must still cover tt exactly (within dc): assert cheaply.
    final = 0
    for bits in full:
        final |= bits
    if on & ~final or final & ~upper:
        return list(cubes)
    return sorted(out)
