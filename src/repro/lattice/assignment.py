"""Assigned lattices and the independent connectivity checker.

A :class:`LatticeAssignment` maps every switch of an ``m x n`` lattice to a
*target literal* — a literal of the target function or a constant 0/1 —
exactly as the LM problem demands.  Its :meth:`realized_truthtable` method
evaluates the lattice the physical way: mark the conducting switches and
test 4-connected top-to-bottom connectivity by flood fill, for all input
vectors at once (each cell's state is a truth table over the inputs;
:meth:`evaluate` does the same for one input vector).  This deliberately
shares no code with the path enumerator or the SAT encoder, so it serves
as an independent referee for every solution the library produces
(bounds constructions, SAT decodes, merges).

Assignments also support the geometric surgery the bound constructions
need: horizontal stacking with isolation columns, bottom-padding with
constant-1 rows (function-preserving: a minimal top-bottom path stops at
its first bottom-plate contact, so appended all-ON rows only extend paths
straight down through constant switches), transposition, and pretty
printing in the style of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.cube import literal_name
from repro.boolf.truthtable import TruthTable, _full, _var_pattern
from repro.lattice.grid import Grid

__all__ = ["Entry", "LatticeAssignment", "CONST0", "CONST1"]


@dataclass(frozen=True)
class Entry:
    """One switch's assignment: a literal ``(var, positive)`` or a constant.

    ``var is None`` marks a constant whose value is ``positive``.
    """

    var: Optional[int]
    positive: bool

    @staticmethod
    def lit(var: int, positive: bool = True) -> "Entry":
        if var < 0:
            raise DimensionError("literal variable must be non-negative")
        return Entry(var, positive)

    @staticmethod
    def const(value: bool) -> "Entry":
        return Entry(None, bool(value))

    @property
    def is_const(self) -> bool:
        return self.var is None

    def evaluate(self, minterm: int) -> bool:
        if self.var is None:
            return self.positive
        return bool(minterm >> self.var & 1) == self.positive

    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        if self.var is None:
            return "1" if self.positive else "0"
        return literal_name(self.var, self.positive, list(names) if names else None)


CONST0 = Entry.const(False)
CONST1 = Entry.const(True)


class LatticeAssignment:
    """A fully assigned ``rows x cols`` switching lattice."""

    __slots__ = ("grid", "entries", "num_vars", "names")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Iterable[Entry],
        num_vars: int,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self.grid = Grid(rows, cols)
        self.entries = list(entries)
        if len(self.entries) != self.grid.size:
            raise DimensionError(
                f"expected {self.grid.size} entries, got {len(self.entries)}"
            )
        for entry in self.entries:
            if entry.var is not None and entry.var >= num_vars:
                raise DimensionError(
                    f"entry references variable {entry.var} outside universe"
                )
        self.num_vars = num_vars
        self.names = list(names) if names is not None else None

    # ------------------------------------------------------------ accessors
    @property
    def rows(self) -> int:
        return self.grid.rows

    @property
    def cols(self) -> int:
        return self.grid.cols

    @property
    def size(self) -> int:
        return self.grid.size

    def entry(self, row: int, col: int) -> Entry:
        return self.entries[self.grid.index(row, col)]

    # ----------------------------------------------------------- evaluation
    def conducting_mask(self, minterm: int) -> int:
        """Bitmask of switches that are ON for the given input vector."""
        mask = 0
        for i, entry in enumerate(self.entries):
            if entry.evaluate(minterm):
                mask |= 1 << i
        return mask

    def _connected(self, conducting: int, nbr: list[int], start: int, goal: int) -> bool:
        frontier = conducting & start
        if not frontier:
            return False
        reached = frontier
        while frontier:
            if reached & goal:
                return True
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= nbr[bit.bit_length() - 1]
            frontier = nxt & conducting & ~reached
            reached |= frontier
        return bool(reached & goal)

    def evaluate(self, minterm: int) -> bool:
        """Top-to-bottom 4-connected conduction for one input vector."""
        conducting = self.conducting_mask(minterm)
        return self._connected(
            conducting, self.grid.nbr4, self.grid.top_mask, self.grid.bottom_mask
        )

    def evaluate_dual_side(self, minterm: int) -> bool:
        """Left-to-right 8-connected conduction for one input vector."""
        conducting = self.conducting_mask(minterm)
        return self._connected(
            conducting, self.grid.nbr8, self.grid.left_mask, self.grid.right_mask
        )

    def _reach_table(self, nbr: list[int], start: int, goal: int) -> TruthTable:
        """Plate-to-plate conduction for every input vector at once.

        Each cell carries the truth table of the inputs under which it
        is *reached*: it conducts and touches ``start`` directly or
        through a reached neighbour.  Sweeps alternate direction until
        no table grows; every table only ever holds inputs under which
        the cell really is reached, so the fixed point is exact.  The
        result is the union of the ``goal`` cells' tables.
        """
        n = self.num_vars
        full = _full(n)
        conduct = []
        for entry in self.entries:
            if entry.var is None:
                conduct.append(full if entry.positive else 0)
            else:
                pattern = _var_pattern(entry.var, n)
                conduct.append(pattern if entry.positive else full ^ pattern)
        size = self.size
        reach = [conduct[i] if start >> i & 1 else 0 for i in range(size)]
        # Only conducting, non-seed cells can still grow.
        open_cells = [
            (i, [j for j in range(size) if nbr[i] >> j & 1])
            for i in range(size)
            if conduct[i] and not start >> i & 1
        ]
        changed = True
        while changed:
            changed = False
            for i, neighbours in open_cells:
                acc = reach[i]
                for j in neighbours:
                    acc |= reach[j]
                acc &= conduct[i]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True
            open_cells.reverse()
        bits = 0
        for i in range(size):
            if goal >> i & 1:
                bits |= reach[i]
        return TruthTable(bits, n)

    def realized_truthtable(self) -> TruthTable:
        """The function realized between the top and bottom plates."""
        grid = self.grid
        return self._reach_table(grid.nbr4, grid.top_mask, grid.bottom_mask)

    def realized_dual_side_truthtable(self) -> TruthTable:
        """The function realized between the left and right plates (8-conn)."""
        grid = self.grid
        return self._reach_table(grid.nbr8, grid.left_mask, grid.right_mask)

    def realizes(self, target: TruthTable) -> bool:
        """True iff the lattice realizes ``target`` exactly (all vectors)."""
        if target.num_vars != self.num_vars:
            raise DimensionError("target universe mismatch")
        return self.realized_truthtable() == target

    # ------------------------------------------------------------- surgery
    def transposed(self) -> "LatticeAssignment":
        entries = [
            self.entries[r * self.cols + c]
            for c in range(self.cols)
            for r in range(self.rows)
        ]
        return LatticeAssignment(
            self.cols, self.rows, entries, self.num_vars, self.names
        )

    def padded_bottom(self, extra_rows: int, fill: Entry = CONST1) -> "LatticeAssignment":
        """Append ``extra_rows`` constant rows below (function-preserving
        when ``fill`` is the constant 1; see module docstring)."""
        if extra_rows < 0:
            raise DimensionError("extra_rows must be non-negative")
        entries = list(self.entries) + [fill] * (extra_rows * self.cols)
        return LatticeAssignment(
            self.rows + extra_rows, self.cols, entries, self.num_vars, self.names
        )

    def trimmed(self) -> "LatticeAssignment":
        """Remove inert edge lanes: all-constant-0 first/last columns and
        all-constant-1 first/last rows.

        An all-OFF edge column carries no path; an all-ON edge row only
        extends every path by free switches.  Each removal is re-verified
        against the current realized function, so the result is guaranteed
        function-preserving even in degenerate corner cases.
        """
        current = self
        target = self.realized_truthtable()
        changed = True
        while changed and current.size > 1:
            changed = False
            for candidate in current._edge_trims():
                if candidate.realized_truthtable() == target:
                    current = candidate
                    changed = True
                    break
        return current

    def _edge_trims(self) -> list["LatticeAssignment"]:
        out = []
        rows, cols = self.rows, self.cols

        def col_is(col: int, entry: Entry) -> bool:
            return all(self.entry(r, col) == entry for r in range(rows))

        def row_is(row: int, entry: Entry) -> bool:
            return all(self.entry(row, c) == entry for c in range(cols))

        if cols > 1 and col_is(0, CONST0):
            out.append(self._drop_col(0))
        if cols > 1 and col_is(cols - 1, CONST0):
            out.append(self._drop_col(cols - 1))
        if rows > 1 and row_is(0, CONST1):
            out.append(self._drop_row(0))
        if rows > 1 and row_is(rows - 1, CONST1):
            out.append(self._drop_row(rows - 1))
        return out

    def _drop_col(self, col: int) -> "LatticeAssignment":
        entries = [
            self.entry(r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if c != col
        ]
        return LatticeAssignment(
            self.rows, self.cols - 1, entries, self.num_vars, self.names
        )

    def _drop_row(self, row: int) -> "LatticeAssignment":
        entries = [
            self.entry(r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if r != row
        ]
        return LatticeAssignment(
            self.rows - 1, self.cols, entries, self.num_vars, self.names
        )

    @staticmethod
    def hstack(
        parts: Sequence["LatticeAssignment"],
        isolation: Optional[Entry] = None,
        pad_fill: Entry = CONST1,
    ) -> "LatticeAssignment":
        """Place lattices side by side, optionally separated by a constant
        isolation column; shorter parts are padded at the bottom.

        With ``isolation = CONST0`` the realized function is the OR of the
        parts' functions: the all-OFF column blocks every 4-connected path
        from crossing between blocks.
        """
        if not parts:
            raise DimensionError("hstack needs at least one part")
        num_vars = parts[0].num_vars
        names = parts[0].names
        for part in parts:
            if part.num_vars != num_vars:
                raise DimensionError("hstack parts must share the variable universe")
        rows = max(part.rows for part in parts)
        padded = [part.padded_bottom(rows - part.rows, pad_fill) for part in parts]
        blocks: list[LatticeAssignment] = []
        for k, part in enumerate(padded):
            if k > 0 and isolation is not None:
                blocks.append(
                    LatticeAssignment(rows, 1, [isolation] * rows, num_vars, names)
                )
            blocks.append(part)
        cols = sum(b.cols for b in blocks)
        entries: list[Entry] = []
        for r in range(rows):
            for block in blocks:
                entries.extend(
                    block.entries[r * block.cols : (r + 1) * block.cols]
                )
        return LatticeAssignment(rows, cols, entries, num_vars, names)

    # -------------------------------------------------------------- dunders
    def to_text(self) -> str:
        cells = [
            [self.entry(r, c).to_string(self.names) for c in range(self.cols)]
            for r in range(self.rows)
        ]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(" ".join(s.rjust(width) for s in row) for row in cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeAssignment):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.entries == other.entries
            and self.num_vars == other.num_vars
        )

    def __repr__(self) -> str:
        return (
            f"LatticeAssignment({self.rows}x{self.cols}, num_vars={self.num_vars})"
        )
