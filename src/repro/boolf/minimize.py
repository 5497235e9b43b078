"""Two-level logic minimization (the library's espresso stand-in).

The paper feeds JANUS target functions "with a minimum number of products
obtained using a logic minimization tool ... in ISOP form".  This module
provides that contract:

* :func:`minimize` — exact minimum-cardinality prime cover when tractable
  (Quine–McCluskey primes + branch-and-bound unate covering), degrading to
  an espresso-style heuristic and finally to the Minato–Morreale ISOP.
* :func:`exact_min_sop` — the exact path, raising if it would blow up.

Every result is an irredundant cover of primes, functionally equal to the
input (asserted in tests).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.boolf.cover import CoverBudget, min_cover
from repro.boolf.cube import Cube
from repro.boolf.isop import isop_interval
from repro.boolf.primes import prime_implicants
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, interval_upper

__all__ = ["minimize", "exact_min_sop"]

# QM + exact covering is attempted only below these sizes; beyond them the
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

    if exact and _exact_feasible(tt, dc):
        try:
            return exact_min_sop(tt, dc, names, budget)
        except MemoryError:  # pragma: no cover - defensive
            pass
    # Heuristic path: the full espresso loop (EXPAND / IRREDUNDANT /
    # ESSENTIALS / REDUCE / LASTGASP).
    from repro.boolf.espresso import espresso

    return espresso(tt, dc, names)


def _exact_feasible(tt: TruthTable, dc: Optional[TruthTable]) -> bool:
    if tt.num_vars > _EXACT_MAX_VARS:
        return False
    if tt.count_ones() > _EXACT_MAX_MINTERMS:
        return False
    return True


def exact_min_sop(
    tt: TruthTable,
    dc: Optional[TruthTable] = None,
    names: Optional[Sequence[str]] = None,
    budget: Optional[CoverBudget] = None,
) -> Sop:
    """Exact minimum-cardinality prime cover via QM + unate covering.

    Raises ``ValueError`` when the prime set exceeds the internal limit;
    callers should then fall back to :func:`minimize` with ``exact=False``.
    """
    primes = prime_implicants(tt, dc)
    if len(primes) > _EXACT_MAX_PRIMES:
        raise ValueError(
            f"{len(primes)} primes exceed the exact-minimization limit"
        )
    onset = frozenset(tt.onset())
    columns = {
        i: frozenset(m for m in cube.minterms() if m in onset)
        for i, cube in enumerate(primes)
    }
    columns = {i: cells for i, cells in columns.items() if cells}
    chosen = min_cover(columns, onset, budget)
    cubes = sorted(primes[i] for i in chosen)
    cubes = _prefer_fewer_literals(cubes, primes, tt, dc)
    return Sop(cubes, tt.num_vars, names)


def _prefer_fewer_literals(
    cubes: list[Cube],
    primes: list[Cube],
    tt: TruthTable,
    dc: Optional[TruthTable],
) -> list[Cube]:
    """Secondary objective: swap any cube for an equal-coverage prime with
    fewer literals (keeps cardinality optimal, trims literal count)."""
    out = list(cubes)
    cover_tt = TruthTable.from_cubes(out, tt.num_vars)
    for idx, cube in enumerate(out):
        rest = out[:idx] + out[idx + 1 :]
        rest_tt = TruthTable.from_cubes(rest, tt.num_vars)
        needed = tt - rest_tt
        for cand in primes:
            if cand.num_literals < out[idx].num_literals and TruthTable.from_cube(
                cand
            ).implies(tt if dc is None else tt | dc):
                if needed.implies(TruthTable.from_cube(cand)):
                    out[idx] = cand
                    break
    # Result must still cover tt exactly (within dc): assert cheaply.
    final = TruthTable.from_cubes(out, tt.num_vars)
    if not (tt.implies(final) and final.implies(tt if dc is None else tt | dc)):
        return list(cubes)
    return sorted(out)
