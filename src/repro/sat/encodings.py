"""Exactly-one CNF encodings.

The LM encoding needs exactly-one constraints over the mapping variables of
every lattice cell.  The paper uses the quadratic pairwise encoding; that
is the default here, with sequential-counter and commander alternatives for
larger groups (and for the ablation bench that compares them).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import EncodingError
from repro.sat.cnf import Cnf

__all__ = [
    "at_least_one",
    "at_most_one_pairwise",
    "at_most_one_sequential",
    "at_most_one_commander",
    "exactly_one",
]


def at_least_one(cnf: Cnf, lits: Sequence[int]) -> None:
    if not lits:
        raise EncodingError("at_least_one over an empty literal set is UNSAT")
    cnf.add(lits)


def at_most_one_pairwise(cnf: Cnf, lits: Sequence[int]) -> None:
    """O(n^2) binary clauses; no auxiliary variables (the paper's choice)."""
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            cnf.add([-lits[i], -lits[j]])


def at_most_one_sequential(cnf: Cnf, lits: Sequence[int]) -> None:
    """Sinz sequential-counter encoding: O(n) clauses, n-1 aux variables."""
    n = len(lits)
    if n <= 1:
        return
    regs = [cnf.pool.fresh() for _ in range(n - 1)]
    cnf.add([-lits[0], regs[0]])
    for i in range(1, n - 1):
        cnf.add([-lits[i], regs[i]])
        cnf.add([-regs[i - 1], regs[i]])
        cnf.add([-lits[i], -regs[i - 1]])
    cnf.add([-lits[n - 1], -regs[n - 2]])


def at_most_one_commander(
    cnf: Cnf, lits: Sequence[int], group_size: int = 4
) -> None:
    """Commander encoding: recursive grouping with commander variables."""
    n = len(lits)
    if n <= group_size + 1:
        at_most_one_pairwise(cnf, lits)
        return
    commanders: list[int] = []
    for start in range(0, n, group_size):
        group = list(lits[start : start + group_size])
        cmd = cnf.pool.fresh()
        commanders.append(cmd)
        # commander <-> OR(group); both directions keep the constraint exact.
        for lit in group:
            cnf.add([-lit, cmd])
        cnf.add([-cmd] + group)
        at_most_one_pairwise(cnf, group)
    at_most_one_commander(cnf, commanders, group_size)


def exactly_one(cnf: Cnf, lits: Sequence[int], method: str = "pairwise") -> None:
    """Exactly-one constraint using the selected AMO encoding."""
    at_least_one(cnf, lits)
    if method == "pairwise":
        at_most_one_pairwise(cnf, lits)
    elif method == "sequential":
        at_most_one_sequential(cnf, lits)
    elif method == "commander":
        at_most_one_commander(cnf, lits)
    else:
        raise EncodingError(f"unknown exactly-one method {method!r}")
