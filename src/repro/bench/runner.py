"""Experiment runner: executes algorithms on instances and collects rows.

The runner mirrors the paper's reporting: for every instance it records
the function signature (#in, #pi, degree), the initial bounds (lb, old ub
from DP/PS/DPS, new ub including IPS/IDPS/DS) and, per algorithm, the
solution shape, switch count and wall time.  Published values ride along
so harnesses can print paper-vs-measured side by side.

Profiles keep the default run laptop-sized:

* ``fast``   — instances with at most 7 inputs (sub-second LM probes);
* ``medium`` — everything up to 8 inputs;
* ``full``   — all 48 instances (the 10/11-input ones are slow in pure
  Python; expect long runtimes, as the authors did with 6-hour budgets).

Select with ``REPRO_BENCH_PROFILE`` or the ``profile`` argument.

Suites shard across worker processes: ``run_table2(..., jobs=4)``
dispatches one instance per worker and collects rows in deterministic
(input) order, and ``cache=<dir>`` shares one persistent cache between
all workers and runs (see :mod:`repro.engine`).  The cache is layered:
individual LM probes *and* whole per-instance artifacts (the bounds
report and the JANUS result) are stored, so a warm suite run recomputes
nothing — zero SAT calls and zero upper-bound constructions.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.api.backends import BackendContext, get_backend
from repro.api.schema import SynthesisResponse
from repro.core.bounds import best_upper_bound
from repro.core.decompose import ub_ds
from repro.core.janus import JanusOptions
from repro.core.structural import structural_lower_bound
from repro.core.target import TargetSpec
from repro.engine.parallel import ParallelEngine, resolve_jobs
from repro.errors import SynthesisError
from repro.bench.instances import PAPER_TABLE2, PaperRow, build_instance

__all__ = [
    "AlgoResult",
    "BoundsReport",
    "Table2Row",
    "profile_names",
    "compute_bounds_report",
    "run_algorithm",
    "run_table2_instance",
    "run_table2",
    "format_table2",
    "default_options",
]

_FAST_MAX_INPUTS = 7
_MEDIUM_MAX_INPUTS = 8


def profile_names(profile: Optional[str] = None) -> list[str]:
    """Instance names included in a bench profile."""
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if profile == "full":
        return [row.name for row in PAPER_TABLE2]
    if profile == "medium":
        return [
            row.name
            for row in PAPER_TABLE2
            if row.num_inputs <= _MEDIUM_MAX_INPUTS
        ]
    if profile == "fast":
        return [
            row.name
            for row in PAPER_TABLE2
            if row.num_inputs <= _FAST_MAX_INPUTS and row.num_products <= 7
        ]
    raise ValueError(f"unknown profile {profile!r} (fast|medium|full)")


def default_options(profile: Optional[str] = None) -> JanusOptions:
    """Solver budgets matched to the profile."""
    profile = profile or os.environ.get("REPRO_BENCH_PROFILE", "fast")
    if profile == "full":
        return JanusOptions(max_conflicts=400_000, lm_time_limit=1200.0)
    if profile == "medium":
        return JanusOptions(max_conflicts=150_000, lm_time_limit=300.0)
    return JanusOptions(max_conflicts=30_000, lm_time_limit=30.0)


@dataclass
class BoundsReport:
    """Initial bounds for one instance (paper's lb / oub / nub columns)."""

    lb: int
    old_ub: int  # best of DP/PS/DPS
    new_ub: int  # best including IPS/IDPS/DS
    per_method: dict[str, tuple[int, int]]
    wall_time: float


@dataclass
class AlgoResult:
    """One algorithm's outcome on one instance."""

    algorithm: str
    shape: str
    size: int
    wall_time: float
    provably_minimum: bool
    # The lattice itself as (var, positive) pairs, so determinism checks
    # (tests/engine/test_suite.py) can compare sharded and serial runs
    # cell by cell.
    entries: tuple = ()
    # Full SynthesisResponse in wire form (a plain dict, so it crosses
    # the shard-worker pickle boundary); feeds `table2 --json`.
    response: Optional[dict] = None


@dataclass
class Table2Row:
    """Everything reported for one instance of Table II."""

    name: str
    spec: TargetSpec
    paper: PaperRow
    bounds: BoundsReport
    results: dict[str, AlgoResult] = field(default_factory=dict)
    # Stats snapshot (``dataclasses.asdict`` of EngineStats) from the
    # per-instance engine, when one was used; crosses the shard-worker
    # process boundary as a plain dict so harnesses can assert cache
    # behavior (e.g. a warm run reporting zero solver calls).
    engine: Optional[dict] = None

    @property
    def signature_exact(self) -> bool:
        """False when the synthesizer only approximated the signature."""
        return not self.spec.name.startswith("~")


def _bounds_payload(report: BoundsReport) -> dict:
    return {
        "kind": "bounds",
        "lb": report.lb,
        "old_ub": report.old_ub,
        "new_ub": report.new_ub,
        "per_method": {k: [r, c] for k, (r, c) in report.per_method.items()},
        "wall_time": report.wall_time,
    }


def _bounds_from_payload(payload: dict) -> Optional[BoundsReport]:
    if payload.get("kind") != "bounds":
        return None
    try:
        return BoundsReport(
            lb=payload["lb"],
            old_ub=payload["old_ub"],
            new_ub=payload["new_ub"],
            per_method={
                k: (r, c) for k, (r, c) in payload["per_method"].items()
            },
            wall_time=payload["wall_time"],
        )
    except (KeyError, TypeError, ValueError):
        return None


def _bounds_cache(spec: TargetSpec, options: JanusOptions, prober):
    """(cache, key) for the bounds report, or (None, None) without one."""
    cache = getattr(prober, "cache", None)
    if cache is None:
        return None, None
    from repro.engine.suite import suite_cache_key

    return cache, suite_cache_key(spec, options, kind="bounds")


def compute_bounds_report(
    spec: TargetSpec,
    options: Optional[JanusOptions] = None,
    prober=None,
) -> BoundsReport:
    """lb plus old (DP/PS/DPS) and new (+IPS/IDPS/DS) upper bounds.

    When ``prober`` carries a persistent cache, the whole report is
    served from it — a warm suite run must not recompute a single bound
    (the DS bound alone re-runs JANUS on subfunctions).
    """
    options = options or default_options()
    cache, key = _bounds_cache(spec, options, prober)
    if cache is not None:
        payload = cache.get(key)
        if payload is not None:
            report = _bounds_from_payload(payload)
            if report is not None:
                stats = getattr(prober, "stats", None)
                if stats is not None:
                    stats.suite_hits += 1
                return report
    stats = getattr(prober, "stats", None)
    if stats is not None:
        if cache is not None:
            stats.suite_misses += 1
        stats.bound_calls += 1
    start = time.monotonic()
    lb = structural_lower_bound(spec)
    _best_old, old_all = best_upper_bound(spec, ("dp", "ps", "dps"))
    _best_new, new_all = best_upper_bound(spec, ("dp", "ps", "dps", "ips", "idps"))
    per_method = {k: (v.rows, v.cols) for k, v in new_all.items()}
    try:
        ds = ub_ds(spec, options, prober=prober)
        new_all["ds"] = ds
        per_method["ds"] = (ds.rows, ds.cols)
    except SynthesisError:
        pass  # DS does not apply to every target (same as the workers)
    old_ub = min(v.size for k, v in old_all.items())
    new_ub = min(v.size for v in new_all.values())
    report = BoundsReport(
        lb=lb,
        old_ub=old_ub,
        new_ub=new_ub,
        per_method=per_method,
        wall_time=time.monotonic() - start,
    )
    if cache is not None:
        cache.put(key, _bounds_payload(report))
    return report


def run_algorithm(
    algorithm: str,
    spec: TargetSpec,
    options: Optional[JanusOptions] = None,
    prober=None,
) -> AlgoResult:
    """Run one named backend on one instance.

    Algorithms resolve through the :mod:`repro.api` backend registry;
    an engine ``prober`` rides along in the :class:`BackendContext` so
    the ``janus`` backend engages the probe and suite-level result
    caches exactly as before the facade.
    """
    options = options or default_options()
    backend = get_backend(algorithm)
    result = backend.run(spec, options, BackendContext(engine=prober))
    response = SynthesisResponse.from_result(result, backend=algorithm)
    return AlgoResult(
        algorithm=algorithm,
        shape=result.shape,
        size=result.size,
        wall_time=result.wall_time,
        provably_minimum=result.is_provably_minimum,
        entries=tuple((e.var, e.positive) for e in result.assignment.entries),
        response=response.to_wire(),
    )


def run_table2_instance(
    name: str,
    algorithms: Sequence[str] = ("janus",),
    options: Optional[JanusOptions] = None,
    cache: Union[str, Path, None] = None,
    npn: bool = False,
) -> Table2Row:
    prober = None
    if cache is not None:
        # In-process engine for caching: no nested pool (this already
        # runs inside a shard worker when jobs > 1), but every probe and
        # artifact goes through the shared on-disk cache.
        prober = ParallelEngine(jobs=1, cache=cache, npn=npn)
    spec = build_instance(name)
    try:
        row = Table2Row(
            name=name,
            spec=spec,
            paper=next(r for r in PAPER_TABLE2 if r.name == name),
            bounds=compute_bounds_report(spec, options, prober=prober),
        )
        for algorithm in algorithms:
            row.results[algorithm] = run_algorithm(
                algorithm, spec, options, prober
            )
        if prober is not None:
            row.engine = asdict(prober.stats)
    finally:
        if prober is not None:
            prober.close()
    return row


def _instance_task(args: tuple) -> Table2Row:
    """Module-level shard task (must be picklable for the pool)."""
    name, algorithms, options, cache, npn = args
    return run_table2_instance(name, algorithms, options, cache=cache, npn=npn)


def run_table2(
    names: Optional[Sequence[str]] = None,
    algorithms: Sequence[str] = ("janus",),
    options: Optional[JanusOptions] = None,
    verbose: bool = False,
    jobs: Optional[int] = 1,
    cache: Union[str, Path, None] = None,
    npn: bool = False,
) -> list[Table2Row]:
    """Run Table II instances, optionally sharded across ``jobs`` workers
    (0 or None = one per available CPU).

    Rows come back in input order regardless of which worker finishes
    first, so parallel runs produce the same report as serial ones.
    """
    names = list(names) if names is not None else profile_names()
    cache = str(cache) if cache is not None else None
    jobs = resolve_jobs(jobs)
    tasks = [
        (name, tuple(algorithms), options, cache, npn)
        for name in names
    ]
    rows: list[Table2Row] = []
    if jobs > 1:
        with ParallelEngine(jobs=jobs) as engine:
            for row in engine.imap_ordered(_instance_task, tasks):
                rows.append(row)
                if verbose:
                    print(format_table2([row], header=len(rows) == 1))
        return rows
    for task in tasks:
        row = _instance_task(task)
        rows.append(row)
        if verbose:
            print(format_table2([row], header=len(rows) == 1))
    return rows


def format_table2(rows: Sequence[Table2Row], header: bool = True) -> str:
    """Render rows in the paper's Table II layout, paper values alongside."""
    cols = [
        "instance", "#in", "#pi", "d", "lb", "oub", "nub",
        "nub(paper)", "janus", "janus(paper)", "size", "CPU",
    ]
    lines = []
    fmt = (
        "{:>11} {:>4} {:>4} {:>2} {:>4} {:>5} {:>5} {:>10} "
        "{:>7} {:>12} {:>5} {:>8}"
    )
    if header:
        lines.append(fmt.format(*cols))
    for row in rows:
        janus = row.results.get("janus")
        lines.append(
            fmt.format(
                row.name + ("" if row.signature_exact else "~"),
                row.spec.num_inputs,
                row.spec.num_products,
                row.spec.degree,
                row.bounds.lb,
                row.bounds.old_ub,
                row.bounds.new_ub,
                row.paper.nub,
                janus.shape if janus else "-",
                row.paper.sol_janus,
                janus.size if janus else "-",
                f"{janus.wall_time:.1f}" if janus else "-",
            )
        )
        for algo, res in row.results.items():
            if algo == "janus":
                continue
            lines.append(
                f"{'':>11} {algo:>14}: {res.shape} size={res.size} "
                f"CPU={res.wall_time:.1f}s"
            )
    return "\n".join(lines)
