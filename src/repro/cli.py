"""Command-line interface: ``janus`` / ``python -m repro``.

Subcommands::

    janus synth "ab + a'b'c"          synthesize one function
    janus synth --pla file.pla -o 0   synthesize a PLA output
    janus synth "..." --cache ~/.janus-cache   cached across runs
    janus synth "..." --backend exact --json   pick a backend; wire output
    janus table1 [--max 8]            regenerate Table I
    janus fig4                        regenerate the Fig. 4 bound example
    janus table2 [--profile fast] [--algorithms janus,exact,...]
    janus table2 --jobs 4 --cache DIR shard instances across workers
    janus table2 --json               emit the BatchResponse wire form
    janus table3 [--names squar5,misex1,bw]
    janus cache stats DIR             entries/bytes/temp files in a cache
    janus cache verify DIR            replay stored assignments vs specs
    janus cache gc DIR --max-age-days 30 --max-size-mb 512   bounded GC
    janus serve --port 8080 --jobs 2  serve the JSON wire schema over HTTP
    janus gen --family mixed --level 1   generate a seeded workload (JSON)
    janus synth --request work.json --json   run a generated batch
    janus synth --request work.json --jobs 4  shard its requests over 4
    janus lint [--strict] [--json]    run the static-analysis suite

The CLI is a thin frontend over the stable :mod:`repro.api` facade —
every synthesis goes through a :class:`repro.api.Session`, and ``--json``
emits exactly the ``SynthesisResponse``/``BatchResponse`` wire schema
``janus serve`` serves over HTTP.

``--jobs 0`` means "one worker per *available* CPU" (cgroup/affinity
aware).  ``--cache DIR`` persists every decisive LM probe result *and*
whole synthesis results keyed by canonical function signatures, so a
repeated run skips not just SAT calls but the bounds computation and the
dichotomic search too (see :mod:`repro.engine`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.api.backends import backend_names
from repro.api.schema import RequestOptions
from repro.api.session import Session
from repro.api.session import synthesize as api_synthesize
from repro.boolf.pla import read_pla
from repro.core.target import TargetSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="janus",
        description="SAT-based approximate logic synthesis on switching "
        "lattices (reproduction of Aksoy & Altun, DATE 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a single function")
    p_synth.add_argument("expression", nargs="?", help="SOP, e.g. \"ab + a'c\"")
    p_synth.add_argument("--pla", help="PLA file to read the target from")
    p_synth.add_argument(
        "--request",
        metavar="FILE",
        default=None,
        help="read a synthesis_request or batch_request JSON document "
        "(e.g. from `janus gen`); '-' reads stdin",
    )
    p_synth.add_argument(
        "-o", "--output", type=int, default=0, help="PLA output index"
    )
    # The budget flags default to None so that combining one with
    # --request (whose document carries its own options) is an error.
    p_synth.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        help="SAT budget per LM (default 60000)",
    )
    p_synth.add_argument(
        "--time-limit", type=float, default=None, help="wall seconds per LM"
    )
    p_synth.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes a --request batch shards its requests over; "
        "one synthesis always runs serially (0 = all CPUs)",
    )
    p_synth.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent result cache directory (probe + suite layers)",
    )
    p_synth.add_argument(
        "--backend",
        default=None,
        help="synthesis backend by registry name "
        f"({', '.join(backend_names())})",
    )
    p_synth.add_argument(
        "--json",
        action="store_true",
        help="emit the SynthesisResponse JSON wire form instead of text",
    )

    p_t1 = sub.add_parser("table1", help="regenerate Table I (product counts)")
    p_t1.add_argument("--max", type=int, default=8, help="largest m and n")
    p_t1.add_argument(
        "--no-check", action="store_true", help="skip comparison with the paper"
    )

    sub.add_parser("fig4", help="regenerate the Fig. 4 bound comparison")

    p_t2 = sub.add_parser("table2", help="run the Table II comparison")
    p_t2.add_argument(
        "--profile", default=None, choices=("fast", "medium", "full")
    )
    p_t2.add_argument(
        "--algorithms",
        default="janus",
        help="comma list: janus,exact,approx,heuristic,pcircuit",
    )
    p_t2.add_argument("--names", default=None, help="comma list of instances")
    p_t2.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard instances across this many worker processes (0 = all CPUs)",
    )
    p_t2.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent result cache shared by all workers (probe + suite)",
    )
    p_t2.add_argument(
        "--json",
        action="store_true",
        help="emit the BatchResponse JSON wire form instead of the table",
    )

    p_t3 = sub.add_parser("table3", help="run the Table III comparison")
    p_t3.add_argument("--names", default="squar5,misex1,bw")

    p_cache = sub.add_parser(
        "cache", help="inspect, verify or clean a persistent result cache"
    )
    p_cache.add_argument("action", choices=("stats", "clear", "gc", "verify"))
    p_cache.add_argument("dir", metavar="DIR", help="cache directory")
    p_cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: evict entries last written more than this many days ago",
    )
    p_cache.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        help="gc: evict oldest entries until the cache fits this size",
    )
    p_cache.add_argument(
        "--tmp-grace-minutes",
        type=float,
        default=60.0,
        help="gc: sweep .tmp-* files from crashed writers older than this",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve the synthesis API over HTTP (the JSON wire schema)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8080, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes each pooled session shards a batch over "
        "(0 = all CPUs)",
    )
    p_serve.add_argument(
        "--pool",
        type=int,
        default=2,
        help="warm sessions serving requests concurrently",
    )
    p_serve.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="shared result cache directory (default: a private temp dir "
        "owned by the server)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork N server processes sharing this port and one cache "
        "(POSIX only; default 1)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log one line per request"
    )

    p_gen = sub.add_parser(
        "gen",
        help="generate a seeded, reproducible synthesis workload (JSON)",
    )
    p_gen.add_argument(
        "--family",
        default="mixed",
        help="family kind, a comma list, or 'mixed' for every kind "
        "(random-tt, pla-cover, autosymmetric, d-reducible, "
        "multi-output, fault)",
    )
    p_gen.add_argument(
        "--level",
        type=int,
        default=1,
        help="difficulty-ladder level 0..4 (see docs/workloads.md)",
    )
    p_gen.add_argument(
        "--seed", type=int, default=0, help="base seed (instances use "
        "seed, seed+1, ... per family)",
    )
    p_gen.add_argument(
        "--count", type=int, default=1, help="instances per family kind"
    )
    p_gen.add_argument(
        "--backend",
        default="janus",
        help="backend name stamped into every generated request",
    )
    p_gen.add_argument(
        "--twins",
        action="store_true",
        help="emit SAT/UNSAT twin pairs at the realizability frontier "
        "instead of plain instances (runs synthesis; slower)",
    )
    p_gen.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the batch_request JSON here instead of stdout",
    )
    p_gen.add_argument(
        "--list",
        action="store_true",
        help="list family kinds and ladder levels, then exit",
    )

    p_render = sub.add_parser(
        "render", help="synthesize and draw a lattice (ASCII or SVG)"
    )
    p_render.add_argument("expression", help="SOP, e.g. \"ab + a'c\"")
    p_render.add_argument(
        "--svg", metavar="FILE", help="write an SVG figure instead of ASCII"
    )
    p_render.add_argument(
        "--minterm",
        type=lambda s: int(s, 0),
        default=None,
        help="highlight the conducting path for this input vector",
    )
    p_render.add_argument(
        "--max-conflicts", type=int, default=60_000, help="SAT budget per LM"
    )

    p_dec = sub.add_parser(
        "decompose",
        help="analyze autosymmetry / D-reducibility of a function",
    )
    p_dec.add_argument("expression", help="SOP, e.g. \"ab + a'c\"")

    p_drat = sub.add_parser(
        "drat-check", help="check a DRAT refutation against a DIMACS file"
    )
    p_drat.add_argument("dimacs", help="CNF formula (DIMACS)")
    p_drat.add_argument("proof", help="refutation (DRAT text format)")

    p_faults = sub.add_parser(
        "faults", help="synthesize and run single-fault analysis"
    )
    p_faults.add_argument("expression", help="SOP, e.g. \"ab + a'c\"")
    p_faults.add_argument(
        "--max-conflicts", type=int, default=60_000, help="SAT budget per LM"
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis suite (tools/janalyze)",
    )
    p_lint.add_argument(
        "--root", default=None, help="repo root (default: auto-detected)"
    )
    p_lint.add_argument(
        "--only", default=None, help="comma-separated checker names"
    )
    p_lint.add_argument(
        "--baseline", default=None, help="baseline file to apply"
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current findings",
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (CI mode)",
    )
    p_lint.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    p_lint.add_argument(
        "--list", action="store_true", help="list registered checkers"
    )

    return parser


def _engine_summary(stats: dict, jobs) -> str:
    text = (
        f"engine    : jobs={jobs} "
        f"solver_calls={stats['solver_calls']} "
        f"bound_calls={stats['bound_calls']} "
        f"cache hits/misses={stats['cache_hits']}/{stats['cache_misses']} "
        f"memory hits={stats['memory_hits']} "
        f"suite hits/misses={stats['suite_hits']}/{stats['suite_misses']}\n"
        f"solver    : propagations={stats.get('propagations', 0)} "
        f"conflicts={stats.get('conflicts', 0)} "
        f"restarts={stats.get('solver_restarts', 0)} "
        f"restarts avoided={stats.get('restarts_avoided', 0)}"
    )
    cores = stats.get("cores") or {}
    if cores:
        tally = " ".join(f"{k}={v}" for k, v in sorted(cores.items()))
        text += f"\ncore      : probes by core {tally}"
    return text


def _read_request_document(path: str):
    """Parse a ``--request`` document: a single ``synthesis_request`` or
    a whole ``batch_request`` (the form ``janus gen`` emits)."""
    import json

    from repro.api.schema import BatchRequest, SynthesisRequest
    from repro.errors import ValidationError

    text = sys.stdin.read() if path == "-" else open(path).read()
    try:
        wire = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"--request: not valid JSON: {exc}")
    kind = wire.get("kind") if isinstance(wire, dict) else None
    if kind == "batch_request":
        return BatchRequest.from_wire(wire)
    if kind == "synthesis_request":
        return SynthesisRequest.from_wire(wire)
    raise ValidationError(
        f"--request: expected kind synthesis_request or batch_request, "
        f"got {kind!r}"
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.api.schema import BatchRequest

    request = None
    spec = None
    if args.request:
        ignored = [
            flag
            for flag, value in (
                ("--max-conflicts", args.max_conflicts),
                ("--time-limit", args.time_limit),
            )
            if value is not None
        ]
        if ignored:
            print(
                f"error: {', '.join(ignored)} cannot be combined with "
                "--request; the document carries its own options",
                file=sys.stderr,
            )
            return 2
        request = _read_request_document(args.request)
    elif args.pla:
        with open(args.pla) as fh:
            pla = read_pla(fh)
        tt = pla.output_truthtable(args.output)
        spec = TargetSpec.from_truthtable(
            tt, name=pla.output_names[args.output], names=pla.input_names
        )
    elif args.expression:
        spec = TargetSpec.from_string(args.expression)
    else:
        print(
            "error: provide an expression, --pla or --request",
            file=sys.stderr,
        )
        return 2
    options = RequestOptions(
        max_conflicts=(
            60_000 if args.max_conflicts is None else args.max_conflicts
        ),
        time_limit=args.time_limit,
    )
    engine_wanted = bool(args.jobs != 1 or args.cache)
    with Session(jobs=args.jobs, cache=args.cache) as session:
        if isinstance(request, BatchRequest):
            if args.backend is not None:
                request = BatchRequest(
                    tuple(
                        r.with_backend(args.backend) for r in request.requests
                    )
                )
            batch = session.run_batch(request)
            if args.json:
                print(batch.to_json())
                return 0
            for response in batch.responses:
                print(
                    f"{response.name:<24} {response.shape:>6} = "
                    f"{response.size:>3} switches "
                    f"[{response.backend}] in {response.wall_time:.1f}s"
                )
            print(f"batch     : {len(batch.responses)} instances in "
                  f"{batch.wall_time:.1f}s")
            if engine_wanted and batch.stats is not None:
                print(_engine_summary(batch.stats, session.jobs))
            return 0
        if request is not None:
            response = session.synthesize(
                request if args.backend is None
                else request.with_backend(args.backend)
            )
            spec = request.to_spec()
        else:
            response = session.synthesize(
                spec, backend=args.backend, options=options
            )
    if args.json:
        print(response.to_json())
        return 0
    if engine_wanted and response.stats is not None:
        print(_engine_summary(response.stats, session.jobs))
    from repro.sat.solver import available_cores, resolve_core_class

    print(f"target    : {spec.name} (#in={spec.num_inputs}, "
          f"#pi={spec.num_products}, degree={spec.degree})")
    print(f"solver    : core={resolve_core_class().core_name} "
          f"(available: {', '.join(available_cores())})")
    print(f"isop      : {spec.isop.to_string()}")
    print(f"bounds    : lb={response.initial_lower_bound}, "
          f"initial ub={response.initial_upper_bound} {response.upper_bounds}")
    print(f"solution  : {response.shape} = {response.size} switches "
          f"({'provably minimum' if response.provably_minimum else 'approximate'}) "
          f"in {response.wall_time:.1f}s")
    print(response.result.assignment.to_text())
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.gen.ladder import FAMILY_KINDS, LEVELS, ladder
    from repro.gen.twins import make_twins
    from repro.gen.workload import (
        generated_specs,
        resolve_kinds,
        to_batch_request,
    )

    if args.list:
        print(f"levels    : {', '.join(str(lv) for lv in LEVELS)}")
        for kind in FAMILY_KINDS:
            print(f"family    : {kind}")
        return 0
    kinds = resolve_kinds(args.family)
    if args.twins:
        specs = []
        for family, seed in ladder(
            kinds, levels=(args.level,), count=args.count,
            base_seed=args.seed,
        ):
            pair = make_twins(
                family.sample(seed), family.rng(seed, stream=1)
            )
            specs.extend((pair.sat, pair.unsat))
    else:
        specs = generated_specs(
            kinds, level=args.level, base_seed=args.seed, count=args.count
        )
    batch = to_batch_request(specs, backend=args.backend)
    text = batch.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(specs)} requests to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.tables import table1

    print(table1(args.max, args.max, check=not args.no_check))
    return 0


def _cmd_fig4(_args: argparse.Namespace) -> int:
    from repro.bench.tables import fig4

    print(fig4().format())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.bench.tables import table2
    from repro.engine.events import SynthesisFinished
    from repro.engine.parallel import resolve_jobs

    algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    names = (
        [n.strip() for n in args.names.split(",") if n.strip()]
        if args.names
        else None
    )
    if "janus" not in algorithms:
        # Every column but the baseline lines is read from JANUS's response.
        print("error: --algorithms must include janus", file=sys.stderr)
        return 2

    def progress(event) -> None:
        if isinstance(event, SynthesisFinished):
            print(
                f"{event.name}: {event.rows}x{event.cols} size={event.size} "
                f"in {event.wall_time:.1f}s"
                + (" (cached)" if event.from_cache else ""),
                file=sys.stderr,
            )

    _rows, batch, report = table2(
        profile=args.profile,
        algorithms=algorithms,
        names=names,
        jobs=args.jobs,
        cache=args.cache,
        events=None if args.json else progress,
    )
    if args.json:
        print(batch.to_json())
        return 0
    print(report)
    print(_engine_summary(batch.stats, resolve_jobs(args.jobs)))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.engine.cache import ResultCache
    from repro.engine.gc import cache_stats, gc_cache

    root = Path(args.dir)
    if not root.is_dir():
        if root.exists():
            print(f"error: {args.dir} is not a directory", file=sys.stderr)
            return 2
        if args.action == "stats":
            # A cache directory that was never created is just an empty
            # cache — the common "stats before the first cached run"
            # case must not error out (and must not create the dir).
            print(f"cache     : {root} (not created yet)")
            print("entries   : 0 (0.00 MB)")
            print("temp files: 0 (0.00 MB)")
            return 0
        print(f"error: {args.dir} does not exist", file=sys.stderr)
        return 2
    cache = ResultCache(root)
    if args.action == "stats":
        st = cache_stats(cache)
        print(f"cache     : {root}")
        print(f"entries   : {st.entries} ({st.entry_bytes / 1e6:.2f} MB)")
        print(f"temp files: {st.temp_files} ({st.temp_bytes / 1e6:.2f} MB)")
        if st.entries:
            print(
                f"age       : oldest {st.oldest_age / 86400:.1f}d, "
                f"newest {st.newest_age / 86400:.1f}d"
            )
        return 0
    if args.action == "clear":
        print(f"removed {cache.clear()} entries")
        return 0
    if args.action == "verify":
        from repro.engine.verify import verify_cache

        report = verify_cache(cache)
        print(
            f"replayed {report.checked} stored assignments: "
            f"{report.verified} verified, {report.mismatched} mismatched"
        )
        print(
            f"skipped   : {report.skipped} without assignments, "
            f"{report.unverifiable} without spec snapshots, "
            f"{report.corrupt} corrupt"
        )
        for key in report.mismatches:
            print(f"MISMATCH  : {key}", file=sys.stderr)
        return 0 if report.ok else 1
    report = gc_cache(
        cache,
        max_age=(
            args.max_age_days * 86400.0
            if args.max_age_days is not None
            else None
        ),
        max_bytes=(
            int(args.max_size_mb * 1e6)
            if args.max_size_mb is not None
            else None
        ),
        tmp_grace=args.tmp_grace_minutes * 60.0,
    )
    print(
        f"evicted {report.evicted} entries "
        f"({report.evicted_by_age} by age, {report.evicted_by_size} by size, "
        f"{report.evicted_bytes / 1e6:.2f} MB), "
        f"swept {report.swept_temps} temp files, "
        f"pruned {report.pruned_dirs} empty dirs"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import make_server
    from repro.server.multiproc import MultiProcessServer, multiprocess_supported

    workers = max(1, args.workers)
    if workers > 1 and not multiprocess_supported():
        print(
            "janus serve: --workers needs the fork start method (POSIX); "
            "falling back to a single process",
            file=sys.stderr,
        )
        workers = 1
    common = dict(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        pool=args.pool,
        cache=args.cache,
        verbose=args.verbose,
    )
    if workers > 1:
        server = MultiProcessServer(workers=workers, **common)
        front = f"threaded x {workers} processes"
    else:
        server = make_server(**common)
        front = "threaded"
    host, port = server.address
    print(f"janus serve: listening on http://{host}:{port}")
    print(f"frontend  : {front}")
    print(f"cache     : {server.cache_dir}"
          + (" (server-owned, temporary)" if args.cache is None else ""))
    if workers == 1:
        print(f"pool      : {server.core.pool.size} sessions x "
              f"{server.core.pool.jobs} worker(s)")
    else:
        print(f"pool      : {args.pool} sessions x {args.jobs} worker(s) "
              "per process")
    print("endpoints : POST /v1/synthesize  POST /v1/batch  [?stream=1]")
    print("            GET /v1/backends  /v1/cache/stats  /healthz")

    # SIGTERM must run the same orderly shutdown as Ctrl-C: with
    # --workers the default handler would kill only this parent and
    # orphan the forked workers, which keep serving the port.
    import signal

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.bench.tables import table3

    names = [n.strip() for n in args.names.split(",") if n.strip()]
    _rows, report = table3(names)
    print(report)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.lattice.render import render_ascii, render_svg

    spec = TargetSpec.from_string(args.expression)
    options = RequestOptions(max_conflicts=args.max_conflicts)
    result = api_synthesize(spec, options=options).result
    print(f"solution: {result.shape} = {result.size} switches")
    if args.minterm is not None and not spec.tt.evaluate(args.minterm):
        print(f"note: minterm {args.minterm:#x} is not in the onset; "
              "nothing will conduct")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(result.assignment, minterm=args.minterm))
        print(f"wrote {args.svg}")
    else:
        print(render_ascii(result.assignment, minterm=args.minterm))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.boolf.cube import literal_name
    from repro.core.autosymmetric import reduce_autosymmetric
    from repro.core.dreducible import affine_hull, reduce_dreducible

    spec = TargetSpec.from_string(args.expression)
    names = list(spec.names) if spec.names else None

    red = reduce_autosymmetric(spec.tt)
    print(f"autosymmetry degree k = {red.degree}")
    if red.degree:
        print(f"  restriction: {red.restriction.num_vars} variables")
        for i, mask in enumerate(red.functionals):
            terms = " ^ ".join(
                literal_name(v, True, names)
                for v in range(spec.num_inputs)
                if mask >> v & 1
            )
            print(f"  y{i} = {terms}")

    if spec.tt.is_zero():
        print("D-reducible: no (zero function)")
        return 0
    hull = affine_hull(spec.tt)
    proper = hull.dimension < spec.num_inputs
    print(f"D-reducible: {'yes' if proper else 'no'} "
          f"(affine hull dimension {hull.dimension} of {spec.num_inputs})")
    if proper:
        dred = reduce_dreducible(spec.tt)
        print(f"  projection: {dred.projection.num_vars} variables; "
              f"{len(dred.cube_constraints)} fixed-variable and "
              f"{len(dred.exor_constraints)} EXOR constraints")
    return 0


def _cmd_drat_check(args: argparse.Namespace) -> int:
    from repro.sat.dimacs import read_dimacs
    from repro.sat.drat import check_refutation, read_drat

    with open(args.dimacs) as fh:
        cnf = read_dimacs(fh)
    with open(args.proof) as fh:
        proof = read_drat(fh)
    check = check_refutation(cnf, proof)
    if check.valid:
        print(f"VALID ({check.steps_checked} steps)")
        return 0
    print(f"INVALID: {check.reason}", file=sys.stderr)
    return 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.lattice.faults import fault_coverage, fault_table, minimal_test_set

    spec = TargetSpec.from_string(args.expression)
    options = RequestOptions(max_conflicts=args.max_conflicts)
    result = api_synthesize(spec, options=options).result
    print(f"lattice: {result.shape} = {result.size} switches")
    report = fault_table(result.assignment)
    print(f"faults: {report.num_faults} total, {len(report.testable)} "
          f"testable, {len(report.redundant)} redundant")
    tests = minimal_test_set(report)
    print(f"minimal test set ({len(tests)} vectors):")
    for vec in tests:
        print(f"  {vec:0{spec.num_inputs}b}")
    assert fault_coverage(report, tests) == 1.0
    return 0


def _cmd_lint(args) -> int:
    """``janus lint``: the repo's static-analysis suite.

    The analyzer lives in ``tools/janalyze`` at the repo root — outside
    the installed package — so this handler locates the checkout (the
    ``--root`` flag, the working directory, or the source tree this
    module was imported from) and puts it on ``sys.path`` before
    delegating.  Exit codes: 0 clean, 1 findings, 2 usage error.
    """
    from pathlib import Path

    def has_janalyze(root: Path) -> bool:
        return (root / "tools" / "janalyze" / "__init__.py").is_file()

    candidates = []
    if args.root:
        candidates.append(Path(args.root).resolve())
    cwd = Path.cwd().resolve()
    candidates.extend([cwd, *cwd.parents])
    # An editable/source checkout: src/repro/cli.py -> repo root.
    candidates.append(Path(__file__).resolve().parents[2])
    root = next((c for c in candidates if has_janalyze(c)), None)
    if root is None:
        print(
            "error: no tools/janalyze found — run from a repo checkout "
            "or pass --root",
            file=sys.stderr,
        )
        return 2

    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.janalyze.runner import main as janalyze_main

    argv = ["--root", str(root)]
    if args.only:
        argv += ["--only", args.only]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    for flag in ("write_baseline", "strict", "json", "list"):
        if getattr(args, flag):
            argv.append("--" + flag.replace("_", "-"))
    return janalyze_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "table1": _cmd_table1,
        "fig4": _cmd_fig4,
        "table2": _cmd_table2,
        "table3": _cmd_table3,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "render": _cmd_render,
        "decompose": _cmd_decompose,
        "drat-check": _cmd_drat_check,
        "faults": _cmd_faults,
        "lint": _cmd_lint,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Malformed inputs (bad PLA/DIMACS files, inconsistent
        # specs) are user errors, not crashes: report them cleanly.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
