"""Table II: single-function synthesis across algorithms.

Per instance the harness regenerates the paper's columns through
:func:`repro.bench.runner.run_table2`: the function signature, the
initial bounds (lb / old ub / new ub, read from the JANUS response and
recorded in the ``extra_info`` of the janus bench) and the solutions of
JANUS and the baselines.  Published values ride along in ``extra_info``
so the JSON export is self-describing.

Profiles (``REPRO_BENCH_PROFILE``):

* fast   — <=7-input instances, JANUS only (default);
* medium — <=8-input instances, JANUS + heuristic baseline;
* full   — all 48 instances, all five algorithms (very slow, hours).

The paper's headline claims asserted here:

* the new upper bounds (IPS/IDPS/DS) are never worse than the old ones
  (DP/PS/DPS) and improve them substantially on average (42.8% in the
  paper);
* JANUS solutions never exceed the initial upper bound and never beat the
  structural lower bound;
* every reported lattice is verified against the target truth table.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.instances import PAPER_TABLE2
from repro.bench.runner import profile_names, run_table2

_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "fast")
_NAMES = profile_names(_PROFILE)
_ALGOS = {
    "fast": ("janus",),
    "medium": ("janus", "heuristic"),
    "full": ("janus", "exact", "approx", "heuristic", "pcircuit"),
}[_PROFILE]

_PAPER = {row.name: row for row in PAPER_TABLE2}


@pytest.mark.parametrize("algorithm", _ALGOS)
@pytest.mark.parametrize("name", _NAMES)
def bench_table2_solve(benchmark, name, algorithm, options):
    # Every row needs JANUS (its response carries the bound columns),
    # so a baseline's bench times the JANUS run too; ``cpu`` is the
    # algorithm's own time.
    algorithms = ("janus",) if algorithm == "janus" else ("janus", algorithm)
    (row,), _batch = benchmark.pedantic(
        run_table2,
        args=([name], algorithms, options),
        rounds=1,
        iterations=1,
    )
    result = row.results[algorithm]
    paper = _PAPER[name]
    benchmark.extra_info.update(
        shape=result.shape,
        size=result.size,
        cpu=result.wall_time,
        paper_janus=paper.sol_janus,
        paper_exact=paper.sol_exact,
        signature_exact=row.signature_exact,
    )
    if algorithm == "janus":
        benchmark.extra_info.update(
            lb=row.lb, old_ub=row.old_ub, new_ub=row.new_ub,
            paper_lb=paper.lb, paper_oub=paper.oub, paper_nub=paper.nub,
        )
        assert row.lb <= row.new_ub <= row.old_ub
        assert result.size <= row.new_ub
    assert row.lb <= result.size
