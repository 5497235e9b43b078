"""Target function specification for lattice synthesis.

A :class:`TargetSpec` bundles everything JANUS needs about a target
function: its truth table, a minimum-product ISOP (the paper obtains this
from espresso; we use :func:`repro.boolf.minimize`), the ISOP of its dual,
and the derived statistics (#inputs, #prime implicants, degree) that the
paper reports per benchmark instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.minimize import minimize
from repro.boolf.parse import parse_sop
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, interval_upper

__all__ = ["TargetSpec"]


@dataclass(frozen=True)
class TargetSpec:
    """A synthesis target: truth table plus minimized primal/dual covers.

    ``dc`` optionally marks don't-care minterms (an extension beyond the
    paper, which synthesizes completely specified functions): any realized
    function between ``tt`` and ``tt | dc`` is accepted.  The covers are
    minimized over that interval, and ``dual_isop`` is the dual of the
    *chosen* cover so the DP/DPS constructions stay consistent.
    """

    name: str
    tt: TruthTable
    isop: Sop
    dual_isop: Sop
    names: Optional[tuple[str, ...]] = None
    dc: Optional[TruthTable] = None

    # ------------------------------------------------------------- builders
    @classmethod
    def from_truthtable(
        cls,
        tt: TruthTable,
        name: str = "f",
        names: Optional[Sequence[str]] = None,
        exact: bool = True,
        dc: Optional[TruthTable] = None,
    ) -> "TargetSpec":
        """Build a spec by minimizing ``tt`` (within ``dc``) and its dual."""
        name_list = list(names) if names is not None else None
        cover = minimize(tt, dc, names=name_list, exact=exact)
        if dc is None:
            dual_cover = minimize(tt.dual(), names=name_list, exact=exact)
        else:
            # Dual of the concrete function the cover picked.
            dual_cover = minimize(
                cover.to_truthtable().dual(), names=name_list, exact=exact
            )
        return cls(
            name=name,
            tt=tt,
            isop=cover.sorted(),
            dual_isop=dual_cover.sorted(),
            names=tuple(name_list) if name_list else None,
            dc=dc if dc is not None and not dc.is_zero() else None,
        )

    @classmethod
    def from_sop(cls, sop: Sop, name: str = "f", exact: bool = True) -> "TargetSpec":
        return cls.from_truthtable(
            sop.to_truthtable(), name=name, names=sop.names, exact=exact
        )

    @classmethod
    def from_string(cls, text: str, name: str = "f", exact: bool = True) -> "TargetSpec":
        """Parse an SOP expression (see :mod:`repro.boolf.parse`)."""
        return cls.from_sop(parse_sop(text), name=name, exact=exact)

    def __post_init__(self) -> None:
        if self.isop.num_vars != self.tt.num_vars:
            raise DimensionError("isop universe differs from truth table")
        if self.dual_isop.num_vars != self.tt.num_vars:
            raise DimensionError("dual isop universe differs from truth table")

    # ------------------------------------------------------------ accessors
    @property
    def num_inputs(self) -> int:
        return self.tt.num_vars

    @property
    def num_products(self) -> int:
        """#pi in the paper's tables: products of the minimized cover."""
        return self.isop.num_products

    @property
    def num_dual_products(self) -> int:
        return self.dual_isop.num_products

    @property
    def degree(self) -> int:
        """Maximum literal count over the cover's products (paper's delta)."""
        return self.isop.degree

    @property
    def dual_degree(self) -> int:
        """Degree of the dual cover (paper's gamma)."""
        return self.dual_isop.degree

    @property
    def upper(self) -> TruthTable:
        """Largest admissible realized function: onset plus don't-cares."""
        if self.dc is None:
            return self.tt
        return self.tt | self.dc

    @property
    def is_constant(self) -> bool:
        return self.tt.is_zero() or self.tt.is_one()

    def name_list(self) -> Optional[list[str]]:
        return list(self.names) if self.names else None

    def accepts(self, realized: TruthTable) -> bool:
        """True iff ``realized`` lies in the admissible interval."""
        return self.tt.implies(realized) and realized.implies(self.upper)

    def validate(self) -> None:
        """Check internal consistency (covers match the table); for tests."""
        cover_tt = self.isop.to_truthtable()
        if not (self.tt.implies(cover_tt) and cover_tt.implies(self.upper)):
            raise DimensionError("isop does not realize the truth table")
        if self.dual_isop.to_truthtable() != cover_tt.dual():
            raise DimensionError("dual isop does not realize the dual")
        interval_upper(self.tt, self.dc, DimensionError)

    def __repr__(self) -> str:
        return (
            f"TargetSpec({self.name!r}, in={self.num_inputs}, "
            f"pi={self.num_products}, deg={self.degree})"
        )
