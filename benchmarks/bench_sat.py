"""SAT substrate ablations: proofs and preset sweeps.

Two questions the DESIGN notes ask of the solver stack (the
pytest-benchmark ``bench_*`` functions):

* what does DRUP proof logging cost on an UNSAT probe?
* how does the solver scale on the classic pigeonhole family?

Plus one standalone CLI mode:

``--sweep``
    Run every named :class:`~repro.sat.solver.SolverConfig` preset over
    the realizability frontier workload (binary-searched minimal width
    per row count, the bulk-probing pattern the engine leans on) and
    report per-preset propagations / conflicts / wall clock.  This is
    the measured basis for the shipped default preset; results go to
    ``BENCH_pr7.json`` (``--json-out``) for the CI perf-smoke artifact.
    The run fails (exit 1) unless every preset finds the same frontier.

Core throughput (pure vs native) is measured end to end by the
``cold-synth`` workload of ``perfbench/run.py``, not here.

Usage::

    PYTHONPATH=src python benchmarks/bench_sat.py --sweep --limit 4
    PYTHONPATH=src python benchmarks/bench_sat.py \
        --sweep --limit 2 --max-conflicts 8000 --json-out BENCH_pr7.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

import pytest

from repro.core import EncodeOptions, best_encoding, make_spec, solve_lm
from repro.sat import CdclSolver, SolverConfig, check_refutation


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
        solver = CdclSolver(
            config=SolverConfig(max_conflicts=500_000), proof=log_proof
        )
        ok = True
        for clause in cnf:
            ok = solver.add_clause(clause) and ok
        if ok:
            result = solver.solve()
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


# --------------------------------------------------------- preset sweep CLI
class _SolverMeter:
    """Process-wide solver-work counter: sums the stats of every solver
    constructed while the meter is active (subcalls included, which
    per-result attempt lists miss)."""

    def __init__(self) -> None:
        self._stats: list = []
        self._orig_init = None

    def __enter__(self) -> "_SolverMeter":
        from repro.sat import solver as sat_solver

        self._orig_init = sat_solver.CdclSolver.__init__
        stats_list = self._stats
        orig = self._orig_init

        def counting_init(solver, *args, **kwargs):
            orig(solver, *args, **kwargs)
            stats_list.append(solver.stats)

        sat_solver.CdclSolver.__init__ = counting_init
        return self

    def __exit__(self, *exc) -> None:
        from repro.sat import solver as sat_solver

        sat_solver.CdclSolver.__init__ = self._orig_init

    @property
    def propagations(self) -> int:
        return sum(s.propagations for s in self._stats)

    @property
    def conflicts(self) -> int:
        return sum(s.conflicts for s in self._stats)


def _frontier(spec, options, rmax: int, cmax: int) -> dict:
    """Minimal realizable width per row count via binary search."""
    out = {}
    for rows in range(1, rmax + 1):
        if solve_lm(spec, rows, cmax, options).status != "sat":
            out[rows] = None
            continue
        lo, hi, best = 1, cmax - 1, cmax
        while lo <= hi:
            mid = (lo + hi) // 2
            if solve_lm(spec, rows, mid, options).status == "sat":
                best, hi = mid, mid - 1
            else:
                lo = mid + 1
        out[rows] = best
    return out


def _run_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.bench.instances import PAPER_TABLE2, build_instance
    from repro.bench.runner import profile_names
    from repro.core.janus import JanusOptions, synthesize
    from repro.sat.solver import SOLVER_PRESETS

    presets = (
        [p.strip() for p in args.presets.split(",") if p.strip()]
        if args.presets
        else sorted(SOLVER_PRESETS)
    )
    unknown = [p for p in presets if p not in SOLVER_PRESETS]
    if unknown:
        print(f"error: unknown preset(s) {unknown}; "
              f"known: {sorted(SOLVER_PRESETS)}", file=sys.stderr)
        return 2

    if args.generated:
        # Seeded generator workload instead of the paper's named
        # benchmarks: same sweep, reproducible instances (see
        # docs/workloads.md).
        from repro.gen import generated_specs

        specs = generated_specs(
            args.generated, level=args.gen_level,
            base_seed=args.gen_seed, count=args.gen_count,
        )
        if args.limit:
            specs = specs[: args.limit]
        by_spec = {spec.name: spec for spec in specs}
        names = [spec.name for spec in specs]
    else:
        by_name = {r.name: r for r in PAPER_TABLE2}
        names = sorted(
            profile_names(args.profile),
            key=lambda n: (by_name[n].cpu_janus, by_name[n].num_inputs, n),
        )
        if args.limit:
            names = names[: args.limit]
        by_spec = None
    base_options = JanusOptions(max_conflicts=args.max_conflicts)

    # One baseline synthesis per instance bounds the frontier grid (and
    # is shared by every preset, so the matrix compares like with like).
    grids = {}
    for name in names:
        spec = by_spec[name] if by_spec is not None else build_instance(name)
        base = synthesize(spec, name=name, options=base_options)
        grids[name] = (
            spec,
            min(base.rows + 2, 6),
            min(max(base.cols + 2, 4), 8),
        )

    print(f"== preset sweep: {len(presets)} presets x {len(names)} "
          f"instances (realizability frontier, "
          f"max_conflicts={args.max_conflicts})")
    rows_out = {}
    frontiers = {}
    for preset in presets:
        options = replace(base_options, solver=SOLVER_PRESETS[preset])
        tot_p = tot_c = 0
        tot_t = 0.0
        frontiers[preset] = {}
        for name in names:
            spec, rmax, cmax = grids[name]
            with _SolverMeter() as meter:
                t0 = time.monotonic()
                frontiers[preset][name] = _frontier(spec, options, rmax, cmax)
                tot_t += time.monotonic() - t0
            tot_p += meter.propagations
            tot_c += meter.conflicts
        rows_out[preset] = {
            "propagations": tot_p,
            "conflicts": tot_c,
            "wall": tot_t,
        }

    # Frontiers are semantic (budget-independent at these sizes) and the
    # conflict budget is deterministic, so any disagreement means a
    # preset hit its budget: the run fails (exit 1) on any machine.
    reference = frontiers[presets[0]]
    print(f"{'preset':>10}  {'propagations':>13}  {'conflicts':>10}  "
          f"{'wall':>7}  frontier")
    for preset in presets:
        row = rows_out[preset]
        agrees = frontiers[preset] == reference
        row["frontier_agrees"] = agrees
        print(f"{preset:>10}  {row['propagations']:>13}  "
              f"{row['conflicts']:>10}  {row['wall']:>6.1f}s  "
              f"{'agrees' if agrees else 'DISAGREES'}")

    winner = min(presets, key=lambda p: rows_out[p]["propagations"])
    default_row = rows_out.get("default")
    print(f"\nmeasured winner by propagations: {winner}")
    if default_row is not None and winner != "default":
        ratio = default_row["propagations"] / max(
            1, rows_out[winner]["propagations"]
        )
        print(f"default is {ratio:.2f}x the winner's propagations on this "
              "workload (the shipped default keeps byte-identity with the "
              "historical solver; re-pick only on a decisive margin)")

    report = {
        "options": {
            "profile": args.profile,
            "limit": args.limit,
            "max_conflicts": args.max_conflicts,
            "generated": args.generated,
            "gen_level": args.gen_level,
            "gen_seed": args.gen_seed,
        },
        "instances": names,
        "presets": rows_out,
        "winner": winner,
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    disagreeing = [p for p in presets if not rows_out[p]["frontier_agrees"]]
    if disagreeing:
        print(f"FAILED: frontier of {disagreeing} disagrees with "
              f"{presets[0]}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SolverConfig preset sweep (the bench_* functions in "
        "this file run under pytest-benchmark, not this CLI)"
    )
    parser.add_argument("--sweep", action="store_true",
                        help="run the preset matrix over the realizability "
                        "frontier workload")
    parser.add_argument("--profile", default="fast",
                        choices=("fast", "medium", "full"))
    parser.add_argument("--limit", type=int, default=4,
                        help="use only the first N instances (0 = all)")
    parser.add_argument("--max-conflicts", type=int, default=30_000,
                        help="per-probe conflict budget (deterministic)")
    parser.add_argument("--presets", default=None,
                        help="comma list of presets (default: all named)")
    parser.add_argument("--generated", default=None, metavar="KINDS",
                        help="use the seeded generator workload instead of "
                        "the paper instances: a family kind, comma list, "
                        "or 'mixed' (see janus gen)")
    parser.add_argument("--gen-level", type=int, default=1,
                        help="generator difficulty-ladder level (0..4)")
    parser.add_argument("--gen-seed", type=int, default=0,
                        help="generator base seed")
    parser.add_argument("--gen-count", type=int, default=2,
                        help="generated instances per family kind")
    parser.add_argument("--json-out", default=None,
                        help="write machine-readable results "
                        "(BENCH_pr7.json)")
    args = parser.parse_args(argv)
    if not args.sweep:
        parser.error("pass --sweep")
    return _run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
