"""Unate covering: pick a minimum subset of columns covering all rows.

Used by the exact two-level minimizer (rows = onset minterms, columns =
prime implicants) and by espresso's IRREDUNDANT step.  Rows are the bits
of an int, and column ``k`` is the int ``columns[k]`` whose bits are the
rows it covers; a zero column takes no part.

``min_cover`` runs essential-column extraction and row/column dominance to
a fixed point, then branch-and-bound with a maximal-independent-set lower
bound and a greedy incumbent.

Every tie breaks in the decimal-string order of row and column numbers
(``10`` sorts before ``2``), so a cover depends only on its input.
Internally rows and columns are renumbered in that order, so ascending
bit order is tie order: each column becomes a mask of row positions and
each row a mask of the column positions that cover it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

__all__ = ["min_cover", "CoverBudget"]


class CoverBudget:
    """Node budget for branch-and-bound; ``exhausted`` reports overrun."""

    def __init__(self, max_nodes: int = 200_000) -> None:
        self.max_nodes = max_nodes
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
        return not self.exhausted


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy(items: list[tuple[int, int]], rows: int) -> list[int]:
    """Greedy over ``(column, cells)`` pairs in tie order: the first
    column with the largest gain wins each round."""
    remaining = rows
    chosen: list[int] = []
    while remaining:
        best, best_cells, best_gain = None, 0, 0
        for key, cells in items:
            gain = (cells & remaining).bit_count()
            if gain > best_gain:
                best, best_cells, best_gain = key, cells, gain
        if best is None:
            raise ValueError("rows cannot be covered by the given columns")
        chosen.append(best)
        remaining &= ~best_cells
    return chosen


def min_cover(
    columns: Sequence[int],
    rows: int,
    budget: Optional[CoverBudget] = None,
) -> list[int]:
    """Minimum-cardinality cover; optimal unless the budget runs out.

    When the budget is exhausted the best incumbent found so far is
    returned (and ``budget.exhausted`` is set), so callers degrade
    gracefully to a good heuristic answer.
    """
    if budget is None:
        budget = CoverBudget()
    union = 0
    for cells in columns:
        union |= cells
    if rows & ~union:
        raise ValueError(
            f"rows {sorted(_bits(rows & ~union), key=str)} cannot be covered"
        )
    keys = sorted((k for k, cells in enumerate(columns) if cells & rows), key=str)
    position = {m: p for p, m in enumerate(sorted(_bits(rows), key=str))}
    cols: dict[int, int] = {}
    for q, key in enumerate(keys):
        cells = 0
        for m in _bits(columns[key] & rows):
            cells |= 1 << position[m]
        cols[q] = cells
    every_row = (1 << len(position)) - 1
    incumbent = _greedy(list(cols.items()), every_row)
    covers = _row_covers(cols)
    best = _search(cols, every_row, covers, [], incumbent, budget, 0, False)
    return [keys[q] for q in best]


def _row_covers(cols: dict[int, int]) -> dict[int, int]:
    """Row position -> mask of the column positions covering it."""
    covers: dict[int, int] = {}
    for q, cells in cols.items():
        bit = 1 << q
        for p in _bits(cells):
            covers[p] = covers.get(p, 0) | bit
    return covers


def _reduce(
    cols: dict[int, int],
    rows: int,
    covers: dict[int, int],
    chosen: list[int],
    col_changed: int,
    settled: bool,
) -> int:
    """Essential + dominance reductions to a fixed point, in place on
    ``cols`` and ``covers`` (each row's column mask); returns the rows
    left.

    The order of deletions is the classic one: take every essential
    column; else drop the dominated column of the first dominating column
    pair in scan order (by first, then second position); else drop the
    dominating row of the first dominating row pair likewise; then start
    over.  Only the scans do not start over: see ``_first_pair`` for what
    each side remembers.  ``settled`` says that the node is reduced except
    for the columns in ``col_changed``, which lost rows, as in a branch of
    a reduced node.
    """
    if settled:
        lone = row_changed = 0
        col_front = row_front = None
    else:
        once = twice = 0
        for cells in cols.values():
            twice |= once & cells
            once |= cells
        lone = rows & ~twice
        row_changed = 0
        col_front = row_front = (0, 0)
    while True:
        if lone:
            # Take every essential column.  This removes rows only: each
            # other row keeps all its columns, so no new row turns
            # essential and no row pair changes.
            taken = 0
            for q, cells in cols.items():
                if cells & lone:
                    chosen.append(q)
                    taken |= cells
            rows &= ~taken
            for p in _bits(taken):
                del covers[p]
            for q, cells in list(cols.items()):
                if cells & taken:
                    if cells & rows:
                        cols[q] = cells & rows
                        col_changed |= 1 << q
                    else:
                        del cols[q]
            lone = 0
        alive = 0
        for q in cols:
            alive |= 1 << q
        hit = _first_pair(cols, covers, alive, col_changed, col_front)
        if hit is not None:
            a, b, a_inside = hit
            gone = a if a_inside else b
            col_changed &= -(1 << a)
            col_front = _advance(col_front, a, b, gone)
            cells = cols.pop(gone)
            for p in _bits(cells):
                left = covers[p] ^ 1 << gone
                covers[p] = left
                if not left & (left - 1):
                    lone |= 1 << p
            row_changed |= cells
            continue
        col_changed, col_front = 0, None
        hit = _first_pair(covers, cols, rows, row_changed, row_front)
        if hit is None:
            return rows
        a, b, a_inside = hit
        gone = b if a_inside else a
        row_changed &= -(1 << a)
        row_front = _advance(row_front, a, b, gone)
        rows ^= 1 << gone
        for q in _bits(covers.pop(gone)):
            cells = cols[q] ^ 1 << gone
            if cells:
                cols[q] = cells
                col_changed |= 1 << q
            else:
                del cols[q]


def _advance(
    front: Optional[tuple[int, int]], a: int, b: int, gone: int
) -> Optional[tuple[int, int]]:
    """The scan frontier after pair ``(a, b)`` dropped ``gone``."""
    if front is None:
        return None
    return max(front, (a + 1, 0) if gone == a else (a, b + 1))


def _first_pair(
    items: dict[int, int],
    dual: dict[int, int],
    alive: int,
    changed: int,
    front: Optional[tuple[int, int]],
) -> Optional[tuple[int, int, bool]]:
    """First pair ``(a, b)`` of ``alive`` positions, ``a < b``, in
    ``(a, b)`` order, where ``items[a] <= items[b]`` or ``items[b] <
    items[a]``; returns ``(a, b, items[a] <= items[b])``.

    ``items`` maps a position to the mask of its elements and ``dual``
    maps an element to the mask of positions holding it (columns and
    their rows, or rows and their columns).  Pairs are known not to
    dominate before ``front`` (``None``: anywhere) unless a member is in
    ``changed``: it has lost elements since its pairs were checked.  An
    unchanged ``x`` was then not a subset of a changed ``r``, and still
    is not; so against ``x``, ``r`` can only have become a strict subset.
    Those partners are the unchanged positions holding every element of
    ``r``.  Changed pairs and pairs from ``front`` on are checked in full.
    """
    changed &= alive
    best = None
    steady = alive & ~changed
    if steady:
        for r in _bits(changed):
            wider = steady
            for e in _bits(items[r]):
                wider &= dual[e]
                if not wider:
                    break
            if wider:
                x = (wider & -wider).bit_length() - 1
                # Equal masks make (x, r) drop x; they occur only past
                # ``front``, where the pair was never checked.
                if r < x:
                    pair = (r, x, True)
                else:
                    pair = (x, r, items[x] == items[r])
                if best is None or pair < best:
                    best = pair
    if changed:
        best = _scan(items, dual, changed, changed, (0, 0), best)
    if front is not None:
        best = _scan(items, dual, alive, alive, front, best)
    return best


def _scan(
    items: dict[int, int],
    dual: dict[int, int],
    firsts: int,
    partners: int,
    start: tuple[int, int],
    best: Optional[tuple[int, int, bool]],
) -> Optional[tuple[int, int, bool]]:
    """``_first_pair`` over the pairs ``(a, b)`` from ``start`` on with
    ``a`` in ``firsts`` and ``b`` in ``partners``, or ``best`` if none
    comes before it."""
    s1, s2 = start
    for a in _bits(firsts >> s1 << s1):
        if best is not None and a > best[0]:
            break
        lo = max(s2, a + 1) if a == s1 else a + 1
        check = partners >> lo << lo
        if best is not None and a == best[0]:
            check &= (1 << best[1]) - 1
        if not check:
            continue
        # Positions holding every element of a are its supersets; its
        # strict subsets share an element with it.
        mine = items[a]
        superset = check
        near = 0
        for e in _bits(mine):
            superset &= dual[e]
            near |= dual[e]
        first = superset & -superset
        near &= check & ~superset
        if first:
            near &= first - 1
        for b in _bits(near):
            if not items[b] & ~mine:
                return a, b, False
        if first:
            return a, first.bit_length() - 1, True
    return best


def _search(
    cols: dict[int, int],
    rows: int,
    covers: dict[int, int],
    chosen: list[int],
    incumbent: list[int],
    budget: CoverBudget,
    col_changed: int,
    settled: bool,
) -> list[int]:
    if not budget.tick():
        return incumbent
    rows = _reduce(cols, rows, covers, chosen, col_changed, settled)
    if not rows:
        return chosen if len(chosen) < len(incumbent) else incumbent
    # Rows by (cover count, position): the lower bound is a greedy maximal
    # set of rows with pairwise disjoint covers, and the branch row is the
    # hardest one (fewest covering columns).
    order = sorted(covers, key=lambda p: (covers[p].bit_count(), p))
    used = independent = 0
    for p in order:
        if not covers[p] & used:
            independent += 1
            used |= covers[p]
    if len(chosen) + independent >= len(incumbent):
        return incumbent
    # Try the branch row's columns by descending coverage.  A branch only
    # removes rows, so it starts reduced except for the columns it cut.
    branches = sorted(
        _bits(covers[order[0]]), key=lambda q: (-cols[q].bit_count(), q)
    )
    for k in branches:
        cut = cols[k]
        sub_cols: dict[int, int] = {}
        dirty = 0
        for q, cells in cols.items():
            if cells & cut:
                cells &= ~cut
                if not cells:
                    continue
                dirty |= 1 << q
            sub_cols[q] = cells
        sub_covers = {p: c for p, c in covers.items() if not cut >> p & 1}
        cand = _search(
            sub_cols, rows & ~cut, sub_covers, chosen + [k], incumbent, budget,
            dirty, True,
        )
        if len(cand) < len(incumbent):
            incumbent = cand
        if budget.exhausted:
            break
    return incumbent
