"""Minato–Morreale irredundant sum-of-products computation.

``isop(tt)`` computes an irredundant SOP of a completely specified function;
``isop_interval(lower, upper)`` computes a cover *C* with
``lower <= C <= upper`` (the incompletely-specified generalization, with
``upper - lower`` acting as the don't-care set).

This is the library's espresso stand-in for ISOP duties: the result is an
irredundant cover consisting of prime implicants of the interval.  The
recursion follows Minato's classic formulation over truth-table cofactors
and memoizes on the packed table ints, which keeps it fast for the paper's
benchmark sizes (r <= 11).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.boolf.cube import Cube
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, _cofactor_bits, _full, _var_pattern

__all__ = ["isop", "isop_interval"]


def isop(tt: TruthTable, names: Optional[Sequence[str]] = None) -> Sop:
    """Irredundant SOP of a completely specified function."""
    return isop_interval(tt, tt, names)


def isop_interval(
    lower: TruthTable, upper: TruthTable, names: Optional[Sequence[str]] = None
) -> Sop:
    """Irredundant cover C with ``lower <= C <= upper``.

    Raises ``ValueError`` if ``lower`` is not contained in ``upper``.
    """
    if lower.num_vars != upper.num_vars:
        raise ValueError("interval endpoints over different universes")
    if not lower.implies(upper):
        raise ValueError("isop_interval requires lower <= upper")
    memo: dict[tuple[int, int, int], list[Cube]] = {}
    cubes = _isop(lower.bits, upper.bits, lower.num_vars, memo)
    return Sop(cubes, lower.num_vars, names)


def _isop(lower: int, upper: int, num_vars: int, memo: dict) -> list[Cube]:
    if not lower:
        return []
    full = _full(num_vars)
    if upper == full:
        return [Cube.top(num_vars)]
    key = (lower, upper, num_vars)
    hit = memo.get(key)
    if hit is not None:
        return hit

    # Split on the highest variable on which the interval depends.
    var = num_vars - 1
    while var >= 0:
        block = 1 << var
        low = full ^ _var_pattern(var, num_vars)
        if (lower ^ lower >> block | upper ^ upper >> block) & low:
            break
        var -= 1
    if var < 0:  # constant interval handled above; defensive fallback
        memo[key] = [Cube.top(num_vars)]
        return memo[key]

    l0 = _cofactor_bits(lower, var, False, num_vars)
    l1 = _cofactor_bits(lower, var, True, num_vars)
    u0 = _cofactor_bits(upper, var, False, num_vars)
    u1 = _cofactor_bits(upper, var, True, num_vars)

    # Cubes that must carry the ~x_var literal / the x_var literal.
    c0 = _isop(l0 & ~u1, u0, num_vars - 1, memo)
    c1 = _isop(l1 & ~u0, u1, num_vars - 1, memo)

    cov0 = TruthTable.from_cubes(c0, num_vars - 1).bits
    cov1 = TruthTable.from_cubes(c1, num_vars - 1).bits

    # What remains of the onset can be covered without mentioning x_var.
    l_rest = (l0 & ~cov0) | (l1 & ~cov1)
    cd = _isop(l_rest, u0 & u1, num_vars - 1, memo)

    bit = 1 << var
    out: list[Cube] = []
    for cube in c0:
        out.append(Cube(_expand_mask(cube.pos, var), _expand_mask(cube.neg, var) | bit, num_vars))
    for cube in c1:
        out.append(Cube(_expand_mask(cube.pos, var) | bit, _expand_mask(cube.neg, var), num_vars))
    for cube in cd:
        out.append(Cube(_expand_mask(cube.pos, var), _expand_mask(cube.neg, var), num_vars))
    memo[key] = out
    return out


def _expand_mask(mask: int, var: int) -> int:
    """Insert a zero bit at position ``var`` (inverse of dropping that var)."""
    low = mask & ((1 << var) - 1)
    high = mask >> var
    return (high << (var + 1)) | low
