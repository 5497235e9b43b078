"""SAT substrate ablations (pytest-benchmark ``bench_*`` functions).

Two questions the DESIGN notes ask of the solver stack:

* what does DRUP proof logging cost on an UNSAT probe?
* how does the solver scale on the classic pigeonhole family?

Core throughput (pure vs native) is measured end to end by the
``cold-synth`` workload of ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import pytest

from repro.core import EncodeOptions, best_encoding, make_spec
from repro.sat import CdclSolver, check_refutation


def lm_cnf(rows: int, cols: int):
    spec = make_spec("cd + c'd' + abe + a'b'e'", name="fig4")
    encoding, _ = best_encoding(spec, rows, cols, EncodeOptions())
    assert encoding is not None
    return encoding.cnf


@pytest.mark.parametrize("log_proof", [False, True], ids=["plain", "drup"])
def bench_sat_proof_overhead(benchmark, log_proof):
    """UNSAT LM probe (Fig. 4 on an infeasible 3x3) +/- proof logging."""
    cnf = lm_cnf(3, 3)

    def run():
        solver = CdclSolver(proof=log_proof)
        ok = True
        for clause in cnf:
            ok = solver.add_clause(clause) and ok
        if ok:
            result = solver.solve(max_conflicts=500_000)
            assert result.is_unsat
        if log_proof:
            assert check_refutation(cnf, solver.proof).valid
            return len(solver.proof)
        return 0

    steps = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["proof_steps"] = steps


@pytest.mark.parametrize("holes", [4, 5, 6])
def bench_sat_pigeonhole(benchmark, holes):
    """PHP(n+1, n): canonical exponential family for resolution."""

    def run():
        pigeons = holes + 1
        solver = CdclSolver()

        def var(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        result = solver.solve()
        assert result.is_unsat
        return result.stats.conflicts

    conflicts = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["conflicts"] = conflicts
