"""ROBDD manager.

Nodes are integers indexing into the manager's node arrays.  The two
terminals are ``ZERO = 0`` and ``ONE = 1``; every other node ``u`` stores a
triple ``(level, lo, hi)`` where ``level`` is a *position in the variable
order* (0 is the root-most level) and ``lo``/``hi`` are the cofactors for
the level's variable being 0/1.  Reduction invariants:

* no node has ``lo == hi`` (redundant tests are never constructed),
* the unique table guarantees structural sharing, so two nodes are
  functionally equal iff they are the same integer.

Variables are external indices ``0 .. num_vars-1`` exactly as in
:class:`~repro.boolf.truthtable.TruthTable` (variable 0 is the least
significant minterm bit).  The manager keeps a ``var_order`` mapping level
to variable; by default it is the identity.  Reordering is performed by
rebuilding (see :mod:`repro.bdd.reorder`) — honest and entirely adequate
for the paper's at-most-11-input functions.

The :class:`BddFunction` wrapper pairs a node with its manager so that
call sites can use operator syntax (``f & g``, ``~f``) without threading
the manager everywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import DimensionError
from repro.boolf.cube import Cube
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable

__all__ = ["Bdd", "BddFunction"]

ZERO = 0
ONE = 1


class Bdd:
    """A reduced ordered BDD manager over a fixed variable universe."""

    def __init__(
        self,
        num_vars: int,
        names: Optional[Sequence[str]] = None,
        var_order: Optional[Sequence[int]] = None,
    ) -> None:
        if num_vars < 0:
            raise DimensionError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.names = list(names) if names is not None else None
        if var_order is None:
            var_order = list(range(num_vars))
        if sorted(var_order) != list(range(num_vars)):
            raise DimensionError(f"var_order is not a permutation: {var_order}")
        # var_order[level] = variable tested at that level.
        self.var_order = list(var_order)
        self._level_of = [0] * num_vars
        for level, var in enumerate(self.var_order):
            self._level_of[var] = level

        # Node storage.  Terminals occupy slots 0 and 1 with a sentinel
        # level below every real level so comparisons stay simple.
        self._level = [num_vars, num_vars]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------ invariants
    @property
    def zero(self) -> int:
        return ZERO

    @property
    def one(self) -> int:
        return ONE

    def is_terminal(self, u: int) -> bool:
        return u <= 1

    def level(self, u: int) -> int:
        """Order position tested at node ``u`` (``num_vars`` for terminals)."""
        return self._level[u]

    def var_at(self, u: int) -> int:
        """External variable index tested at node ``u``."""
        if self.is_terminal(u):
            raise DimensionError("terminals test no variable")
        return self.var_order[self._level[u]]

    def lo(self, u: int) -> int:
        return self._lo[u]

    def hi(self, u: int) -> int:
        return self._hi[u]

    def level_of_var(self, var: int) -> int:
        if not 0 <= var < self.num_vars:
            raise DimensionError(f"variable {var} out of range")
        return self._level_of[var]

    def num_nodes(self) -> int:
        """Total nodes allocated in this manager (including terminals)."""
        return len(self._level)

    # --------------------------------------------------------- construction
    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor enforcing the reduction rules."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def var(self, var: int) -> int:
        """The projection function ``x_var``."""
        return self._mk(self.level_of_var(var), ZERO, ONE)

    def nvar(self, var: int) -> int:
        """The complemented projection ``~x_var``."""
        return self._mk(self.level_of_var(var), ONE, ZERO)

    def literal(self, var: int, positive: bool) -> int:
        return self.var(var) if positive else self.nvar(var)

    # ------------------------------------------------------------------ ITE
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h`` — the universal connective."""
        # Terminal short-cuts.
        if f == ONE:
            return g
        if f == ZERO:
            return h
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        result = self._ite_cache.get((f, g, h))
        if result is not None:
            return result
        top = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cofactors_at(f, top)
        g0, g1 = self._cofactors_at(g, top)
        h0, h1 = self._cofactors_at(h, top)
        result = self._mk(
            top, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
        )
        self._ite_cache[(f, g, h)] = result
        return result

    def _cofactors_at(self, u: int, level: int) -> tuple[int, int]:
        if self._level[u] == level:
            return self._lo[u], self._hi[u]
        return u, u

    # ---------------------------------------------------------- connectives
    def not_(self, f: int) -> int:
        return self.ite(f, ZERO, ONE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, ZERO)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, ONE, g)

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, ONE)

    def conjoin(self, fs: Iterable[int]) -> int:
        out = ONE
        for f in fs:
            out = self.and_(out, f)
            if out == ZERO:
                break
        return out

    def disjoin(self, fs: Iterable[int]) -> int:
        out = ZERO
        for f in fs:
            out = self.or_(out, f)
            if out == ONE:
                break
        return out

    # ------------------------------------------------------------ cofactors
    def cofactor(self, f: int, var: int, value: bool) -> int:
        """Restrict ``x_var = value``; the universe is unchanged."""
        level = self.level_of_var(var)
        cache: dict[int, int] = {}

        def walk(u: int) -> int:
            if self._level[u] > level:
                return u
            got = cache.get(u)
            if got is not None:
                return got
            if self._level[u] == level:
                out = self._hi[u] if value else self._lo[u]
            else:
                out = self._mk(
                    self._level[u], walk(self._lo[u]), walk(self._hi[u])
                )
            cache[u] = out
            return out

        return walk(f)

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        out = f
        for var in variables:
            out = self.or_(
                self.cofactor(out, var, False), self.cofactor(out, var, True)
            )
        return out

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over ``variables``."""
        out = f
        for var in variables:
            out = self.and_(
                self.cofactor(out, var, False), self.cofactor(out, var, True)
            )
        return out

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        return self.ite(
            g, self.cofactor(f, var, True), self.cofactor(f, var, False)
        )

    # -------------------------------------------------------------- queries
    def evaluate(self, f: int, minterm: int) -> bool:
        u = f
        while not self.is_terminal(u):
            var = self.var_order[self._level[u]]
            u = self._hi[u] if minterm >> var & 1 else self._lo[u]
        return u == ONE

    def satcount(self, f: int) -> int:
        """Number of minterms (over the full universe) where ``f`` is 1.

        Counts root-to-ONE paths, weighting each edge by the levels it
        skips (every skipped level doubles the count).
        """
        memo: dict[int, int] = {}

        def paths(u: int) -> int:
            """Minterm count assuming ``u`` sits directly below level -1."""
            if u == ZERO:
                return 0
            if u == ONE:
                return 1
            got = memo.get(u)
            if got is not None:
                return got
            lo_cnt = paths(self._lo[u]) << (
                self._level[self._lo[u]] - self._level[u] - 1
            )
            hi_cnt = paths(self._hi[u]) << (
                self._level[self._hi[u]] - self._level[u] - 1
            )
            out = lo_cnt + hi_cnt
            memo[u] = out
            return out

        return paths(f) << self._level[f]

    def support(self, f: int) -> list[int]:
        """External variable indices ``f`` depends on, ascending."""
        seen: set[int] = set()
        variables: set[int] = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if u in seen or self.is_terminal(u):
                continue
            seen.add(u)
            variables.add(self.var_order[self._level[u]])
            stack.append(self._lo[u])
            stack.append(self._hi[u])
        return sorted(variables)

    def dag_size(self, f: int) -> int:
        """Number of distinct nodes reachable from ``f`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if not self.is_terminal(u):
                stack.append(self._lo[u])
                stack.append(self._hi[u])
        return len(seen)

    def dag_sizes(self, roots: Sequence[int]) -> int:
        """Distinct nodes reachable from any of ``roots`` (shared counted once)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if not self.is_terminal(u):
                stack.append(self._lo[u])
                stack.append(self._hi[u])
        return len(seen)

    def iter_minterms(self, f: int) -> Iterator[int]:
        """Yield every satisfying minterm of ``f`` in increasing order."""
        for minterm in range(1 << self.num_vars):
            if self.evaluate(f, minterm):
                yield minterm

    def pick_minterm(self, f: int) -> Optional[int]:
        """Some satisfying minterm, or ``None`` when ``f`` is ZERO."""
        if f == ZERO:
            return None
        minterm = 0
        u = f
        while not self.is_terminal(u):
            # Skipped levels default to 0; they are free choices.
            var = self.var_order[self._level[u]]
            if self._lo[u] != ZERO:
                u = self._lo[u]
            else:
                minterm |= 1 << var
                u = self._hi[u]
        return minterm

    # ---------------------------------------------------------- conversions
    def from_cube(self, cube: Cube) -> int:
        if cube.num_vars != self.num_vars:
            raise DimensionError("cube universe mismatch")
        return self.conjoin(
            self.literal(var, positive) for var, positive in cube.literals()
        )

    def from_sop(self, sop: Sop) -> int:
        if sop.num_vars != self.num_vars:
            raise DimensionError("sop universe mismatch")
        return self.disjoin(self.from_cube(c) for c in sop.cubes)

    def from_truthtable(self, tt: TruthTable) -> int:
        """Build bottom-up along the variable order (Shannon expansion)."""
        if tt.num_vars != self.num_vars:
            raise DimensionError("truth table universe mismatch")

        def build(level: int, table: TruthTable) -> int:
            if table.is_zero():
                return ZERO
            if table.is_one():
                return ONE
            var = self.var_order[level]
            # After earlier levels were split off, `table` still lives in
            # the full universe; restrict keeps indices aligned.
            lo = build(level + 1, table.restrict(var, False))
            hi = build(level + 1, table.restrict(var, True))
            return self._mk(level, lo, hi)

        return build(0, tt)

    def to_truthtable(self, f: int) -> TruthTable:
        return TruthTable.from_minterms(self.iter_minterms(f), self.num_vars)

    def to_sop(self, f: int) -> Sop:
        """Irredundant SOP via the Minato-Morreale procedure."""
        from repro.bdd.isop import bdd_isop

        _, cubes = bdd_isop(self, f, f)
        return Sop(cubes, self.num_vars, self.names)

    def dual(self, f: int) -> int:
        """BDD of the dual function ``f^D(x) = ~f(~x)``."""
        cache: dict[int, int] = {ZERO: ONE, ONE: ZERO}

        def walk(u: int) -> int:
            got = cache.get(u)
            if got is not None:
                return got
            # Complementing every input swaps the cofactors; complementing
            # the output dualizes the children.
            out = self._mk(self._level[u], walk(self._hi[u]), walk(self._lo[u]))
            cache[u] = out
            return out

        return walk(f)

    # -------------------------------------------------------------- wrapper
    def wrap(self, node: int) -> "BddFunction":
        return BddFunction(self, node)


class BddFunction:
    """A BDD node bound to its manager, with operator syntax."""

    __slots__ = ("mgr", "node")

    def __init__(self, mgr: Bdd, node: int) -> None:
        self.mgr = mgr
        self.node = node

    def _peer(self, other: "BddFunction") -> int:
        if other.mgr is not self.mgr:
            raise DimensionError("BddFunction managers differ")
        return other.node

    def __and__(self, other: "BddFunction") -> "BddFunction":
        return BddFunction(self.mgr, self.mgr.and_(self.node, self._peer(other)))

    def __or__(self, other: "BddFunction") -> "BddFunction":
        return BddFunction(self.mgr, self.mgr.or_(self.node, self._peer(other)))

    def __xor__(self, other: "BddFunction") -> "BddFunction":
        return BddFunction(self.mgr, self.mgr.xor(self.node, self._peer(other)))

    def __invert__(self) -> "BddFunction":
        return BddFunction(self.mgr, self.mgr.not_(self.node))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BddFunction):
            return NotImplemented
        return self.mgr is other.mgr and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.node))

    def is_zero(self) -> bool:
        return self.node == ZERO

    def is_one(self) -> bool:
        return self.node == ONE

    def evaluate(self, minterm: int) -> bool:
        return self.mgr.evaluate(self.node, minterm)

    def satcount(self) -> int:
        return self.mgr.satcount(self.node)

    def support(self) -> list[int]:
        return self.mgr.support(self.node)

    def dag_size(self) -> int:
        return self.mgr.dag_size(self.node)

    def to_truthtable(self) -> TruthTable:
        return self.mgr.to_truthtable(self.node)

    def to_sop(self) -> Sop:
        return self.mgr.to_sop(self.node)

    def __repr__(self) -> str:
        return (
            f"BddFunction(node={self.node}, size={self.dag_size()}, "
            f"vars={self.mgr.num_vars})"
        )
