"""SAT substrate: CNF containers, CDCL solver, encodings, proofs, I/O.

A self-contained conflict-driven clause-learning stack:

* :class:`CdclSolver` — two-watched-literal propagation, VSIDS-style
  activities, restarts, clause deletion, clauses added between solves,
  per-call conflict/time budgets and optional DRAT proof logging;
* :class:`Cnf` / :class:`VarPool` — clause containers and variable
  allocation shared by every encoder;
* exactly-one encodings (pairwise/sequential/commander AMO) used by
  the LM encoding;
* DIMACS and DRAT I/O plus :func:`check_refutation`, an independent
  proof checker used to audit UNSAT answers in tests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sat.cnf": ("Cnf", "VarPool"),
    "repro.sat.solver": (
        "CdclSolver", "SolveResult", "SolverStats", "solve_cnf",
    ),
    "repro.sat.encodings": (
        "at_least_one", "at_most_one_pairwise", "at_most_one_sequential",
        "at_most_one_commander", "exactly_one",
    ),
    "repro.sat.dimacs": ("read_dimacs", "write_dimacs"),
    "repro.sat.drat": (
        "ProofCheck", "check_refutation", "check_rup", "read_drat",
        "write_drat",
    ),
})
