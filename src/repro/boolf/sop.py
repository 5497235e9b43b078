"""Sum-of-products covers.

An :class:`Sop` is an ordered list of :class:`~repro.boolf.cube.Cube`
products over a shared variable universe, optionally with variable names.
It is the exchange format between the minimizer, the bound constructions
and the SAT encoder: the paper manipulates target functions and lattice
functions exclusively in ISOP form.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.cube import Cube
from repro.boolf.truthtable import TruthTable

__all__ = ["Sop"]


class Sop:
    """A disjunction of cubes (products) over ``num_vars`` variables."""

    __slots__ = ("cubes", "num_vars", "names")

    def __init__(
        self,
        cubes: Iterable[Cube],
        num_vars: int,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        cubes = list(cubes)
        for cube in cubes:
            if cube.num_vars != num_vars:
                raise DimensionError(
                    f"cube universe {cube.num_vars} != sop universe {num_vars}"
                )
        self.cubes = cubes
        self.num_vars = num_vars
        self.names = list(names) if names is not None else None

    # ------------------------------------------------------------- builders
    @classmethod
    def zero(cls, num_vars: int, names: Optional[Sequence[str]] = None) -> "Sop":
        return cls([], num_vars, names)

    @classmethod
    def one(cls, num_vars: int, names: Optional[Sequence[str]] = None) -> "Sop":
        return cls([Cube.top(num_vars)], num_vars, names)

    @classmethod
    def from_string(cls, text: str, names: Optional[Sequence[str]] = None) -> "Sop":
        """Parse an SOP expression; see :mod:`repro.boolf.parse`."""
        from repro.boolf.parse import parse_sop

        return parse_sop(text, names)

    # ------------------------------------------------------------ accessors
    @property
    def num_products(self) -> int:
        return len(self.cubes)

    @property
    def degree(self) -> int:
        """Maximum number of literals over all products (0 for constants)."""
        return max((c.num_literals for c in self.cubes), default=0)

    @property
    def min_degree(self) -> int:
        """Minimum number of literals over all products."""
        return min((c.num_literals for c in self.cubes), default=0)

    @property
    def num_literals(self) -> int:
        """Total literal count across all products."""
        return sum(c.num_literals for c in self.cubes)

    def literal_set(self) -> set[tuple[int, bool]]:
        """All distinct ``(var, positive)`` literals used by the cover."""
        out: set[tuple[int, bool]] = set()
        for cube in self.cubes:
            out.update(cube.literals())
        return out

    def support(self) -> list[int]:
        sup = 0
        for cube in self.cubes:
            sup |= cube.support
        return [v for v in range(self.num_vars) if sup >> v & 1]

    def is_zero(self) -> bool:
        return not self.cubes

    def is_one(self) -> bool:
        return any(c.is_tautology() for c in self.cubes)

    # ----------------------------------------------------------- evaluation
    def evaluate(self, minterm: int) -> bool:
        return any(c.evaluate(minterm) for c in self.cubes)

    def to_truthtable(self) -> TruthTable:
        return TruthTable.from_cubes(self.cubes, self.num_vars)

    def equivalent(self, other: "Sop") -> bool:
        """Functional (not syntactic) equality."""
        if self.num_vars != other.num_vars:
            return False
        return self.to_truthtable() == other.to_truthtable()

    # ---------------------------------------------------------- refinement
    def absorbed(self) -> "Sop":
        """Remove cubes contained in another cube (single-cube absorption)."""
        kept: list[Cube] = []
        # Sorting by literal count puts potential absorbers first.
        for cube in sorted(set(self.cubes), key=lambda c: c.num_literals):
            if not any(k.contains(cube) for k in kept):
                kept.append(cube)
        return Sop(kept, self.num_vars, self.names)

    def irredundant(self) -> "Sop":
        """Remove cubes covered by the union of the others (exact check)."""
        tables = [TruthTable.from_cube(c).bits for c in self.cubes]
        keep = list(range(len(self.cubes)))
        changed = True
        while changed:
            changed = False
            for i in list(keep):
                union = 0
                for j in keep:
                    if j != i:
                        union |= tables[j]
                if not tables[i] & ~union:
                    keep.remove(i)
                    changed = True
                    break
        return Sop([self.cubes[i] for i in keep], self.num_vars, self.names)

    def is_irredundant(self) -> bool:
        return len(self.irredundant().cubes) == len(self.cubes)

    def sorted(self) -> "Sop":
        """Deterministic canonical order (by literal count, then masks)."""
        return Sop(sorted(self.cubes), self.num_vars, self.names)

    # -------------------------------------------------------------- algebra
    def __or__(self, other: "Sop") -> "Sop":
        if self.num_vars != other.num_vars:
            raise DimensionError("sop universe mismatch")
        return Sop(self.cubes + other.cubes, self.num_vars, self.names)

    def dual(self, minimum: bool = True) -> "Sop":
        """Minimized SOP of the dual function ``f^D(x) = ~f(~x)``.

        With ``minimum=True`` (default) an exact minimum cover is computed
        when tractable; otherwise the Minato–Morreale ISOP is returned.
        """
        from repro.boolf.minimize import minimize

        dual_tt = self.to_truthtable().dual()
        return minimize(dual_tt, names=self.names, exact=minimum)

    def restricted_to(self, cube_indices: Sequence[int]) -> "Sop":
        """Sub-cover containing only the selected products."""
        return Sop([self.cubes[i] for i in cube_indices], self.num_vars, self.names)

    # -------------------------------------------------------------- dunders
    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __getitem__(self, idx: int) -> Cube:
        return self.cubes[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sop):
            return NotImplemented
        return self.num_vars == other.num_vars and self.cubes == other.cubes

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(self.cubes)))

    def to_string(self) -> str:
        if not self.cubes:
            return "0"
        return " + ".join(c.to_string(self.names) for c in self.cubes)

    def __repr__(self) -> str:
        return f"Sop({self.to_string()!r}, num_vars={self.num_vars})"
