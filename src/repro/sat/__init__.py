"""SAT substrate: CNF containers, CDCL solver, encodings, proofs, I/O.

A self-contained conflict-driven clause-learning stack:

* :class:`CdclSolver` — two-watched-literal propagation, VSIDS-style
  activities, restarts, clause deletion, *assumptions* (the hook the
  incremental probe protocol rides), per-call conflict/time budgets and
  optional DRAT proof logging;
* :class:`Cnf` / :class:`VarPool` — clause containers and variable
  allocation shared by every encoder;
* cardinality encodings (pairwise/sequential/commander AMO,
  totalizers) used by the LM encodings;
* :func:`simplify` / :func:`preprocess` — bounded variable elimination
  and subsumption front-ends;
* DIMACS and DRAT I/O plus :func:`check_refutation`, an independent
  proof checker used to audit UNSAT answers in tests.
"""

from repro._lazy import lazy_exports

# Bound eagerly: each name is also its submodule's, and importing the
# submodule later would rebind the package attribute to the module.
from repro.sat.preprocess import preprocess
from repro.sat.simplify import simplify

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sat.cnf": ("Cnf", "VarPool"),
    "repro.sat.solver": (
        "CdclSolver", "SOLVER_PRESETS", "SolverConfig", "SolveRequest",
        "SolveResult", "SolverStats", "solve_cnf", "solve_request",
    ),
    "repro.sat.encodings": (
        "at_least_one", "at_most_one_pairwise", "at_most_one_sequential",
        "at_most_one_commander", "at_most_k_sequential", "Totalizer",
        "at_most_k_totalizer", "at_least_k_totalizer", "exactly_k",
        "exactly_one",
    ),
    "repro.sat.dimacs": ("read_dimacs", "write_dimacs"),
    "repro.sat.simplify": ("SimplifyResult", "simplify"),
    "repro.sat.preprocess": (
        "PreprocessResult", "PreprocessStats", "preprocess",
    ),
    "repro.sat.drat": (
        "ProofCheck", "check_refutation", "check_rup", "read_drat",
        "write_drat",
    ),
})
