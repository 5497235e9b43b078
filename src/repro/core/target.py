"""Target function specification for lattice synthesis.

A :class:`TargetSpec` bundles everything JANUS needs about a target
function: its truth table, a minimum-product ISOP (the paper obtains this
from espresso; we use :func:`repro.boolf.minimize`), the ISOP of its dual,
and the derived statistics (#inputs, #prime implicants, degree) that the
paper reports per benchmark instance.

Each process minimizes a function once: :meth:`TargetSpec.from_truthtable`
keeps the covers it computed in a bounded memo (:class:`_CoverMemo`), so
a repeated request builds its spec without running the minimizer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.minimize import _EXACT_MAX_VARS, minimize
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, interval_upper

__all__ = ["TargetSpec"]

# At most this many functions keep their covers (like the engine's
# in-memory result LRU), and only tables the exact path may take, so one
# entry holds at most a 2 KiB table.
_MEMO_ENTRIES = 512
_MEMO_MAX_VARS = _EXACT_MAX_VARS


class _CoverMemo:
    """``(tt, dc, names, exact)`` -> the sorted ``(isop, dual_isop)`` pair
    :meth:`TargetSpec.from_truthtable` built for it, oldest evicted first.

    :func:`minimize` is deterministic, so an entry is exactly what a fresh
    build would compute.  The covers are shared by every spec built from
    them: read them, never mutate them (nothing in ``src/`` mutates a
    :class:`Sop`).  Thread-safe: a server's threads share the one memo.
    """

    __slots__ = ("_lock", "_data")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()  # guarded-by: _lock

    def get(self, key: tuple) -> Optional[tuple[Sop, Sop]]:
        with self._lock:
            return self._data.get(key)

    def put(self, key: tuple, covers: tuple[Sop, Sop]) -> None:
        with self._lock:
            self._data[key] = covers
            if len(self._data) > _MEMO_ENTRIES:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_COVERS = _CoverMemo()


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
        """Build a spec by minimizing ``tt`` (within ``dc``) and its dual.

        The covers come from the process-wide memo when this function
        (with these ``dc``, ``names`` and ``exact``) was built before;
        ``name`` is the caller's either way.
        """
        name_list = list(names) if names is not None else None
        names_key = tuple(name_list) if name_list is not None else None
        key = (tt, dc, names_key, exact)
        memo = tt.num_vars <= _MEMO_MAX_VARS
        covers = _COVERS.get(key) if memo else None
        if covers is None:
            cover = minimize(tt, dc, names=name_list, exact=exact)
            if dc is None:
                dual_cover = minimize(tt.dual(), names=name_list, exact=exact)
            else:
                # Dual of the concrete function the cover picked.
                dual_cover = minimize(
                    cover.to_truthtable().dual(), names=name_list, exact=exact
                )
            covers = (cover.sorted(), dual_cover.sorted())
            if memo:
                _COVERS.put(key, covers)
        return cls(
            name=name,
            tt=tt,
            isop=covers[0],
            dual_isop=covers[1],
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
        from repro.boolf.parse import parse_sop

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
