"""Structurally hashed and-inverter graphs.

An AIG literal (:class:`AigLit`) is an even integer ``2 * node`` or its
complement ``2 * node + 1``.  Node 0 is the constant FALSE, so literal 1
is TRUE.  Primary inputs occupy nodes ``1 .. num_inputs``; AND nodes
follow.  The manager enforces the classic normalizations:

* operand order (smaller literal first) — commutativity collapses;
* constant and idempotence rules (``x & 0 = 0``, ``x & x = x``,
  ``x & ~x = 0``, ``x & 1 = x``);
* structural hashing — one node per distinct normalized operand pair.

ORs, XORs, MUXes are built from ANDs and complement edges the usual way.
The graph is append-only; dead nodes are simply never visited (cone
walks are by reachability).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import DimensionError
from repro.boolf.cube import Cube
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable

__all__ = ["Aig", "AigLit"]

AigLit = int  # 2*node (+1 when complemented)

FALSE: AigLit = 0
TRUE: AigLit = 1


class Aig:
    """An and-inverter graph over a fixed set of primary inputs."""

    def __init__(self, num_inputs: int) -> None:
        if num_inputs < 0:
            raise DimensionError("num_inputs must be non-negative")
        self.num_inputs = num_inputs
        # fanins[i] = (lit0, lit1) for AND node i; None for const/inputs.
        self._fanins: list[Optional[tuple[AigLit, AigLit]]] = [None] * (
            num_inputs + 1
        )
        self._hash: dict[tuple[AigLit, AigLit], AigLit] = {}

    # ------------------------------------------------------------- literals
    @property
    def false(self) -> AigLit:
        return FALSE

    @property
    def true(self) -> AigLit:
        return TRUE

    def input_lit(self, index: int) -> AigLit:
        """Literal of primary input ``index`` (0-based)."""
        if not 0 <= index < self.num_inputs:
            raise DimensionError(f"input {index} out of range")
        return (index + 1) * 2

    @staticmethod
    def negate(lit: AigLit) -> AigLit:
        return lit ^ 1

    @staticmethod
    def node_of(lit: AigLit) -> int:
        return lit >> 1

    @staticmethod
    def is_complemented(lit: AigLit) -> bool:
        return bool(lit & 1)

    def is_input(self, node: int) -> bool:
        return 1 <= node <= self.num_inputs

    def is_and(self, node: int) -> bool:
        return node > self.num_inputs

    def fanins(self, node: int) -> tuple[AigLit, AigLit]:
        pair = self._fanins[node]
        if pair is None:
            raise DimensionError(f"node {node} is not an AND node")
        return pair

    @property
    def num_nodes(self) -> int:
        """Total allocated nodes (constant + inputs + ANDs)."""
        return len(self._fanins)

    def num_ands(self) -> int:
        return self.num_nodes - self.num_inputs - 1

    # ------------------------------------------------------------- builders
    def and_(self, a: AigLit, b: AigLit) -> AigLit:
        """AND with full normalization and structural hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if a == b:
            return a
        if a ^ b == 1:  # x & ~x
            return FALSE
        key = (a, b)
        existing = self._hash.get(key)
        if existing is not None:
            return existing
        node = len(self._fanins)
        self._fanins.append(key)
        lit = node * 2
        self._hash[key] = lit
        return lit

    def or_(self, a: AigLit, b: AigLit) -> AigLit:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: AigLit, b: AigLit) -> AigLit:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux(self, sel: AigLit, then: AigLit, else_: AigLit) -> AigLit:
        return self.or_(self.and_(sel, then), self.and_(sel ^ 1, else_))

    def conjoin(self, lits: Iterable[AigLit]) -> AigLit:
        out = TRUE
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def disjoin(self, lits: Iterable[AigLit]) -> AigLit:
        out = FALSE
        for lit in lits:
            out = self.or_(out, lit)
        return out

    def from_cube(self, cube: Cube) -> AigLit:
        if cube.num_vars != self.num_inputs:
            raise DimensionError("cube universe mismatch")
        return self.conjoin(
            self.input_lit(var) ^ (0 if positive else 1)
            for var, positive in cube.literals()
        )

    def from_sop(self, sop: Sop) -> AigLit:
        if sop.num_vars != self.num_inputs:
            raise DimensionError("sop universe mismatch")
        return self.disjoin(self.from_cube(c) for c in sop.cubes)

    def from_truthtable(self, tt: TruthTable) -> AigLit:
        """Shannon decomposition with hashing (small tables only)."""
        if tt.num_vars != self.num_inputs:
            raise DimensionError("truth table universe mismatch")

        def build(table: TruthTable, var: int) -> AigLit:
            if table.is_zero():
                return FALSE
            if table.is_one():
                return TRUE
            lo = build(table.restrict(var, False), var + 1)
            hi = build(table.restrict(var, True), var + 1)
            return self.mux(self.input_lit(var), hi, lo)

        return build(tt, 0)

    # ----------------------------------------------------------- evaluation
    def evaluate(self, lit: AigLit, minterm: int) -> bool:
        """Evaluate one output literal on one input vector.

        Iterative over the topologically sorted cone, so deep graphs never
        hit the recursion limit.
        """
        values: dict[int, bool] = {0: False}
        for node in self.cone(lit):
            if node == 0:
                continue
            if self.is_input(node):
                values[node] = bool(minterm >> (node - 1) & 1)
            else:
                a, b = self.fanins(node)
                values[node] = (values[a >> 1] ^ bool(a & 1)) and (
                    values[b >> 1] ^ bool(b & 1)
                )
        return bool(values[lit >> 1] ^ bool(lit & 1))

    def to_truthtable(self, lit: AigLit) -> TruthTable:
        """Bit-parallel simulation of the cone over all input vectors."""
        n = self.num_inputs
        full = TruthTable.ones(n).bits
        node_vals: dict[int, int] = {0: 0}
        for node in self.cone(lit):
            if node == 0:
                continue
            if self.is_input(node):
                node_vals[node] = TruthTable.variable(node - 1, n).bits
            else:
                a, b = self.fanins(node)
                av = node_vals[a >> 1] ^ (full if a & 1 else 0)
                bv = node_vals[b >> 1] ^ (full if b & 1 else 0)
                node_vals[node] = av & bv
        return TruthTable(node_vals[lit >> 1] ^ (full if lit & 1 else 0), n)

    # ------------------------------------------------------------ structure
    def cone(self, lit: AigLit) -> list[int]:
        """Nodes in the transitive fanin of ``lit``, topologically sorted
        (fanins before fanouts); includes the literal's own node."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(lit >> 1, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            if self.is_and(node):
                a, b = self.fanins(node)
                stack.append((a >> 1, False))
                stack.append((b >> 1, False))
        return order

    def cone_size(self, lit: AigLit) -> int:
        """AND nodes in the cone of ``lit`` (the usual AIG size metric)."""
        return sum(1 for node in self.cone(lit) if self.is_and(node))

    def __repr__(self) -> str:
        return (
            f"Aig(inputs={self.num_inputs}, ands={self.num_ands()})"
        )
