"""Ablation: exactly-one encodings inside the LM formulation.

The paper encodes "each lattice variable is assigned exactly one target
literal" with the quadratic pairwise AMO.  This bench swaps in the
sequential-counter and commander alternatives and measures (a) encoding
size and (b) end-to-end solve time of a representative LM instance, plus
a pure-constraint stress case (exactly-one over growing literal sets
under a forced-conflict workload).
"""

from __future__ import annotations

import pytest

from repro.core import EncodeOptions, best_encoding, make_spec
from repro.sat import CdclSolver, Cnf, SolverConfig, exactly_one

BUDGET = SolverConfig(max_conflicts=200_000)

METHODS = ("pairwise", "sequential", "commander")


@pytest.mark.parametrize("method", METHODS)
def bench_encodings_lm_instance(benchmark, method):
    """Encode + solve the Fig. 4 function on its optimal 3x4 lattice."""
    spec = make_spec("cd + c'd' + abe + a'b'e'", name="fig4")
    options = EncodeOptions(eo_method=method)

    def run():
        encoding, _ = best_encoding(spec, 3, 4, options)
        assert encoding is not None
        solver = CdclSolver(config=BUDGET)
        for clause in encoding.cnf:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.is_sat
        return encoding.cnf.num_vars, encoding.cnf.num_clauses

    num_vars, num_clauses = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["vars"] = num_vars
    benchmark.extra_info["clauses"] = num_clauses


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("group_size", [8, 24])
def bench_encodings_stress(benchmark, method, group_size):
    """20 exactly-one groups chained by equalities; forced UNSAT tail."""

    def run():
        cnf = Cnf()
        groups = [
            [cnf.pool.fresh() for _ in range(group_size)] for _ in range(20)
        ]
        for group in groups:
            exactly_one(cnf, group, method=method)
        # Chain: element 0 of each group mirrors element 0 of the next,
        # then force two distinct elements of the last group — UNSAT.
        for a, b in zip(groups, groups[1:]):
            cnf.add([-a[0], b[0]])
            cnf.add([a[0], -b[0]])
        cnf.add([groups[-1][0]])
        cnf.add([groups[-1][1]])
        solver = CdclSolver(config=BUDGET)
        ok = True
        for clause in cnf:
            ok = solver.add_clause(clause) and ok
        assert not ok or solver.solve().is_unsat
        return cnf.num_clauses

    clauses = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["clauses"] = clauses
