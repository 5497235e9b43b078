#!/usr/bin/env python
"""Serial vs parallel vs warm-cache synthesis on the Table II instances.

Runs the same instance subset several ways and reports wall-clock totals:

1. **serial** — the seed code path (``run_table2`` with ``jobs=1``);
2. **parallel** — instances sharded across ``--jobs`` worker processes,
   with candidate-shape races inside each worker's engine;
3. **warm** (only with ``--cache``) — a repeat parallel run against the
   now-populated cache.  The suite-level layer serves whole results, so
   this run must perform *zero* SAT solver calls and *zero* upper-bound
   recomputations — asserted from the engines' own counters, not just
   timed.

Results of runs 2 and 3 are checked for equality against run 1 (sizes,
shapes and lattice entries per instance must match; the search is
deterministic by construction), so this doubles as an end-to-end
regression test of the engine — CI runs ``--limit 2 --jobs 2``.

Speedup expectations: on an N-core machine with at least ``--jobs``
instances, the parallel run approaches ``jobs``-fold speedup (the target
is >= 2x at ``--jobs 4``).  On constrained hardware (fewer cores than
jobs — the script prints a note) the parallel totals are dominated by
process scheduling and no speedup can materialize; the warm-cache run
still demonstrates the caching win.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py --jobs 4 --limit 6
    PYTHONPATH=src python benchmarks/bench_parallel.py --cache /tmp/jc --limit 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.bench.instances import PAPER_TABLE2
from repro.bench.runner import default_options, profile_names, run_table2
from repro.engine import EngineStats, default_jobs


def _timed_run(names, options, jobs, cache=None):
    start = time.monotonic()
    rows = run_table2(names, ("janus",), options, jobs=jobs, cache=cache)
    return rows, time.monotonic() - start


def _check_identical(label: str, base, other) -> int:
    mismatches = 0
    for b, o in zip(base, other):
        bj, oj = b.results["janus"], o.results["janus"]
        if (bj.size, bj.shape, bj.entries) != (oj.size, oj.shape, oj.entries):
            what = (
                "lattice entries differ"
                if (bj.size, bj.shape) == (oj.size, oj.shape)
                else f"serial {bj.shape}/{bj.size} vs {oj.shape}/{oj.size}"
            )
            print(f"MISMATCH [{label}] {b.name}: {what}")
            mismatches += 1
    return mismatches


def _engine_totals(rows) -> EngineStats:
    total = EngineStats()
    for row in rows:
        if row.engine:
            total.merge(row.engine)
    return total


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="fast", choices=("fast", "medium", "full"))
    parser.add_argument(
        "--limit", type=int, default=0, help="use only the first N instances"
    )
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument(
        "--cache", default=None, help="cache dir; adds a warm-cache third run"
    )
    parser.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        help="override the profile's per-probe conflict budget (also drops "
        "the wall-clock limit, making probes fully deterministic — used by "
        "the CI smoke run)",
    )
    args = parser.parse_args(argv)

    # Cheapest instances first (by the paper's published JANUS CPU), so
    # ``--limit N`` always selects a tractable subset — the CI smoke run
    # uses ``--limit 2``.
    by_name = {r.name: r for r in PAPER_TABLE2}
    names = sorted(
        profile_names(args.profile),
        key=lambda n: (by_name[n].cpu_janus, by_name[n].num_inputs, n),
    )
    if args.limit:
        names = names[: args.limit]
    options = default_options(args.profile)
    if args.max_conflicts is not None:
        from repro.core.janus import JanusOptions

        options = JanusOptions(max_conflicts=args.max_conflicts)
    cpus = default_jobs()
    print(
        f"instances: {len(names)} ({args.profile} profile) | jobs: {args.jobs} "
        f"| available cpus: {cpus}"
    )

    serial_rows, serial_s = _timed_run(names, options, jobs=1)
    print(f"serial    : {serial_s:8.2f}s")

    parallel_rows, parallel_s = _timed_run(
        names, options, jobs=args.jobs, cache=args.cache
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"parallel  : {parallel_s:8.2f}s  ({speedup:.2f}x)")

    failures = _check_identical("parallel", serial_rows, parallel_rows)

    if args.cache:
        warm_rows, warm_s = _timed_run(
            names, options, jobs=args.jobs, cache=args.cache
        )
        warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
        totals = _engine_totals(warm_rows)
        print(
            f"warm cache: {warm_s:8.2f}s  ({warm_speedup:.2f}x)  "
            f"solver_calls={totals.solver_calls} "
            f"bound_calls={totals.bound_calls} "
            f"suite_hits={totals.suite_hits}"
        )
        failures += _check_identical("warm", serial_rows, warm_rows)
        # The acceptance bar for the suite-level cache: a warm run redoes
        # no search work at all.
        if totals.solver_calls != 0:
            print("FAILED: warm run performed SAT solver calls")
            failures += 1
        if totals.bound_calls != 0:
            print("FAILED: warm run recomputed upper bounds")
            failures += 1

    print()
    print(f"{'instance':>12} {'size':>5} {'serial CPU':>11} {'parallel CPU':>13}")
    for s, p in zip(serial_rows, parallel_rows):
        sj, pj = s.results["janus"], p.results["janus"]
        print(
            f"{s.name:>12} {sj.size:>5} {sj.wall_time:>10.2f}s {pj.wall_time:>12.2f}s"
        )

    if cpus < args.jobs:
        print(
            f"\nnote: only {cpus} CPU(s) available for {args.jobs} jobs — "
            "worker processes are time-sliced, so wall-clock speedup cannot "
            "reach the target on this hardware; results above still verify "
            "that the parallel path is byte-identical to the serial one."
        )

    if failures:
        print(f"\nFAILED: {failures} check failure(s)")
        return 1
    print("\nOK: parallel and warm runs identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
