"""Prime implicant generation (Quine–McCluskey).

``prime_implicants(on, dc)`` returns every prime implicant of the interval
``[on, on | dc]`` — cubes that are implicants of ``on | dc``, cover at least
one onset minterm, and cannot be expanded in any variable.

The implementation is the classic tabular method with implicants grouped by
popcount of their value part; suitable for the r <= 11 functions this
library targets.  For larger universes prefer :func:`repro.boolf.isop.isop`
which never enumerates the full prime set.
"""

from __future__ import annotations

from typing import Optional

from repro.boolf.cube import Cube
from repro.boolf.truthtable import TruthTable, interval_upper

__all__ = ["prime_implicants", "is_prime"]


def prime_implicants(
    on: TruthTable, dc: Optional[TruthTable] = None
) -> list[Cube]:
    """All primes of the incompletely specified function ``(on, dc)``."""
    num_vars = on.num_vars
    if dc is not None and dc.num_vars != num_vars:
        raise ValueError("on/dc universe mismatch")
    allowed = interval_upper(on, dc)
    care_on = set(on.onset())
    if allowed.is_zero():
        return []
    if allowed.is_one() and care_on:
        return [Cube.top(num_vars)]

    # Implicants as (value, mask): mask bits are free variables; the cube
    # covers minterms m with (m & ~mask) == value.
    current: dict[tuple[int, int], bool] = {
        (m, 0): False for m in allowed.onset()
    }
    primes: list[Cube] = []
    full = (1 << num_vars) - 1

    while current:
        nxt: dict[tuple[int, int], bool] = {}
        combined: set[tuple[int, int]] = set()
        by_mask: dict[int, dict[int, list[int]]] = {}
        for value, mask in current:
            by_mask.setdefault(mask, {}).setdefault(value.bit_count(), []).append(
                value
            )
        for mask, groups in by_mask.items():
            for pc in sorted(groups):
                uppers = set(groups.get(pc + 1, ()))
                for value in groups[pc]:
                    free = full & ~mask
                    v = free
                    while v:
                        bit = v & -v
                        v ^= bit
                        mate = value | bit
                        if mate in uppers:
                            combined.add((value, mask))
                            combined.add((mate, mask))
                            nxt[(value, mask | bit)] = False
                    # also merge with same-popcount partner when bit already 1
                    # is impossible; handled via mate above.
        for key in current:
            if key not in combined:
                value, mask = key
                cube = _implicant_to_cube(value, mask, num_vars)
                if any(m in care_on for m in cube.minterms()):
                    primes.append(cube)
        current = nxt

    # Deduplicate (different merge orders can produce the same implicant).
    return sorted(set(primes))


def _implicant_to_cube(value: int, mask: int, num_vars: int) -> Cube:
    full = (1 << num_vars) - 1
    fixed = full & ~mask
    return Cube(value & fixed, fixed & ~value, num_vars)


def is_prime(cube: Cube, on: TruthTable, dc: Optional[TruthTable] = None) -> bool:
    """True iff ``cube`` is an implicant of ``on|dc`` that cannot expand."""
    allowed = on if dc is None else on | dc
    if not allowed.cube_is_implicant(cube):
        return False
    for var, _positive in cube.literals():
        if allowed.cube_is_implicant(cube.without(var)):
            return False
    return True
