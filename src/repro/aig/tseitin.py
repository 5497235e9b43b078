"""Tseitin CNF encoding of AIG cones and SAT equivalence checking.

:func:`tseitin` generalizes the per-gate POS formulas of the paper's
Fig. 2: each AND node ``n = a & b`` contributes the three clauses

    (~n | a)  (~n | b)  (n | ~a | ~b)

with complemented edges folded into literal signs.  :func:`miter` wires
two output literals into an XOR whose satisfiability decides
inequivalence; :func:`equivalent_sat` runs the library's CDCL solver on
the miter and returns the verdict (with a counterexample minterm when
the functions differ).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.errors import EncodingError
from repro.aig.graph import Aig, AigLit
from repro.sat.cnf import Cnf, VarPool
from repro.sat.solver import CdclSolver, SolverConfig

__all__ = ["tseitin", "miter", "equivalent_sat"]


def tseitin(
    aig: Aig,
    lit: AigLit,
    cnf: Optional[Cnf] = None,
    var_map: Optional[dict[int, int]] = None,
) -> tuple[Cnf, int, dict[int, int]]:
    """Encode the cone of ``lit``; returns ``(cnf, output_sat_lit, var_map)``.

    ``var_map`` maps AIG nodes to SAT variables; pass an existing map (and
    matching ``cnf``) to share input variables across several cones — the
    mechanism :func:`miter` uses.  The constant node 0 is encoded once as
    a frozen SAT variable.
    """
    if cnf is None:
        cnf = Cnf(VarPool())
    if var_map is None:
        var_map = {}

    def sat_var(node: int) -> int:
        var = var_map.get(node)
        if var is None:
            var = cnf.pool.var(("aig", node))
            var_map[node] = var
            if node == 0:
                cnf.add([-var])  # constant FALSE
        return var

    def sat_lit(aig_lit: AigLit) -> int:
        var = sat_var(aig_lit >> 1)
        return -var if aig_lit & 1 else var

    for node in aig.cone(lit):
        if node == 0 or aig.is_input(node):
            sat_var(node)
            continue
        if node in var_map:
            continue  # already encoded by a previous cone
        a, b = aig.fanins(node)
        n = sat_var(node)
        la, lb = sat_lit(a), sat_lit(b)
        cnf.add([-n, la])
        cnf.add([-n, lb])
        cnf.add([n, -la, -lb])
    return cnf, sat_lit(lit), var_map


def miter(aig: Aig, f: AigLit, g: AigLit) -> tuple[Cnf, dict[int, int]]:
    """CNF satisfiable iff the two outputs differ on some input vector."""
    cnf = Cnf(VarPool())
    var_map: dict[int, int] = {}
    _, lit_f, _ = tseitin(aig, f, cnf, var_map)
    _, lit_g, _ = tseitin(aig, g, cnf, var_map)
    # XOR output: (f | g) & (~f | ~g) under an asserted output variable —
    # directly as two clauses since the output is asserted true.
    cnf.add([lit_f, lit_g])
    cnf.add([-lit_f, -lit_g])
    return cnf, var_map


def equivalent_sat(
    aig: Aig,
    f: AigLit,
    g: AigLit,
    max_conflicts: Optional[int] = None,
    config: Optional[SolverConfig] = None,
) -> tuple[bool, Optional[int]]:
    """Decide ``f == g`` by SAT.  Returns ``(equivalent, counterexample)``.

    The counterexample is a minterm where the outputs differ (``None``
    when equivalent).  Raises :class:`~repro.errors.EncodingError` if the
    solver's conflict budget runs out — equivalence checking must never
    silently guess.  ``config`` tunes the CDCL solver; an explicit
    ``max_conflicts`` overrides the config's budget.
    """
    cnf, var_map = miter(aig, f, g)
    if max_conflicts is not None:
        config = replace(config or SolverConfig(), max_conflicts=max_conflicts)
    solver = CdclSolver(config=config)
    ok = True
    for clause in cnf:
        ok = solver.add_clause(clause) and ok
    if not ok:
        return True, None  # miter is trivially UNSAT
    result = solver.solve()
    if result.status == "unknown":
        raise EncodingError("equivalence check exceeded its conflict budget")
    if result.is_unsat:
        return True, None
    minterm = 0
    for index in range(aig.num_inputs):
        node = index + 1
        var = var_map.get(node)
        if var is not None and result.value(var):
            minterm |= 1 << index
    return False, minterm
