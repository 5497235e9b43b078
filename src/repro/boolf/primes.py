"""Prime implicant generation over packed truth tables.

``prime_implicants(on, dc)`` returns every prime implicant of the interval
``[on, on | dc]`` — cubes that are implicants of ``on | dc``, cover at least
one onset minterm, and cannot be expanded in any variable.

The generator walks the free-variable sets ``S`` level by level (the
tabular method's merge passes) but handles all cubes of one ``S`` in a
single int: bit ``m`` of ``implicants[S]`` says that the cube whose fixed
variables take ``m``'s values (``m`` has the bits of ``S`` clear) lies
inside ``on | dc``.  Adding a free variable ``x`` is one AND of the mask
with itself shifted by ``2**x``; a cube is prime when no such expansion
covers it, and it touches the onset when the same shift-OR of the onset
mask says so.  Only the final primes become :class:`Cube` objects.
"""

from __future__ import annotations

from typing import Optional

from repro.boolf.cube import Cube
from repro.boolf.truthtable import TruthTable, _full, _var_pattern, interval_upper

__all__ = ["prime_implicants", "is_prime"]


def prime_implicants(
    on: TruthTable, dc: Optional[TruthTable] = None
) -> list[Cube]:
    """All primes of the incompletely specified function ``(on, dc)``,
    sorted."""
    num_vars = on.num_vars
    if dc is not None and dc.num_vars != num_vars:
        raise ValueError("on/dc universe mismatch")
    upper = interval_upper(on, dc).bits
    table = _full(num_vars)
    lows = [table ^ _var_pattern(x, num_vars) for x in range(num_vars)]
    all_vars = (1 << num_vars) - 1
    # free set -> (implicant mask, onset-hit mask), for nonempty masks only.
    level: dict[int, tuple[int, int]] = {0: (upper, on.bits)} if upper else {}
    primes: list[Cube] = []
    while level:
        wider: dict[int, tuple[int, int]] = {}
        for free, (implicants, hits) in level.items():
            # Each wider set is built once, from its subset without its
            # highest variable.
            for x in range(free.bit_length(), num_vars):
                step = 1 << x
                merged = implicants & implicants >> step & lows[x]
                if merged:
                    wider[free | step] = (merged, (hits | hits >> step) & lows[x])
        for free, (implicants, hits) in level.items():
            expandable = 0
            for x in range(num_vars):
                entry = wider.get(free | 1 << x)  # None when x is free
                if entry is not None:
                    expandable |= entry[0] | entry[0] << (1 << x)
            anchors = implicants & hits & ~expandable
            fixed = all_vars & ~free
            while anchors:
                low = anchors & -anchors
                anchors ^= low
                value = low.bit_length() - 1
                primes.append(Cube(value, fixed & ~value, num_vars))
        level = wider
    return sorted(primes)


def is_prime(cube: Cube, on: TruthTable, dc: Optional[TruthTable] = None) -> bool:
    """True iff ``cube`` is an implicant of ``on|dc`` that cannot expand."""
    allowed = on if dc is None else on | dc
    if not allowed.cube_is_implicant(cube):
        return False
    for var, _positive in cube.literals():
        if allowed.cube_is_implicant(cube.without(var)):
            return False
    return True
