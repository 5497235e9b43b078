#!/usr/bin/env python
"""Warm-cache request throughput of the ``janus serve`` HTTP service.

Starts an in-process :class:`repro.server.SynthesisServer` (loopback,
ephemeral port), then measures three phases with
:class:`repro.client.ServiceClient`:

1. **overhead** — ``GET /healthz`` round-trips: the pure HTTP floor
   (connection setup, routing, JSON envelope) with no synthesis at all;
2. **cold** — one ``POST /v1/synthesize`` per distinct Table II target,
   populating the suite cache;
3. **warm** — ``--requests`` repeats of those same requests.  Every one
   must be answered from the suite cache: the script snapshots
   ``GET /v1/cache/stats`` around the phase and **asserts the
   solver_calls and bound_calls deltas are zero** — the served counters,
   not client-side guesswork — and that suite_hits grew by the request
   count.

The headline number is the warm phase: requests per second and the
mean round-trip, which should sit within a small multiple of the
/healthz floor (the response body is bigger) — i.e. warm synthesis is
HTTP-overhead-bound, not SAT-bound.

``--ladder`` switches to the scale-out harness instead: a concurrency
ladder (default 1/4/16/64 clients) driven against **two** server
configurations — one ``threaded`` process, and ``threaded-mpN``, the
same server forked over ``--workers`` processes — reporting per-level
p50/p95/p99 latency, throughput, the saturation point (the rung past
which more clients stop buying throughput), and a cold-vs-warm split,
written as JSON with ``--json-out``.  ``--gate`` turns the scale-out
check (mpN warm throughput ahead of single-process at >=16 clients)
into a hard failure, a warning, or nothing — warn is the CI default,
hard gates being reserved for dedicated hardware.  Request errors fail
the run in every mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py
    PYTHONPATH=src python benchmarks/bench_server.py --limit 4 --requests 40
    PYTHONPATH=src python benchmarks/bench_server.py --pool 4 --json-out s.json
    PYTHONPATH=src python benchmarks/bench_server.py --ladder \
        --json-out BENCH_pr10.json --gate warn
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Optional, Sequence

from repro.api import RequestOptions, SynthesisRequest
from repro.bench.instances import build_instance
from repro.client import ServiceClient
from repro.server import make_server
from repro.server.multiproc import MultiProcessServer, multiprocess_supported

# Small Table II instances that synthesize in well under a second each —
# the point here is HTTP/cache behavior, not SAT heroics (heavier
# workloads are bench_parallel.py / bench_incremental.py territory).
DEFAULT_NAMES = "b12_03,c17_01,dc1_00,clpl_00"


def _requests_for(names, max_conflicts: int) -> list[SynthesisRequest]:
    options = RequestOptions(max_conflicts=max_conflicts)
    out = []
    for name in names:
        spec = build_instance(name)
        out.append(SynthesisRequest.from_target(spec, options=options))
    return out


def _timed(fn, n: int) -> tuple[float, list[float]]:
    laps = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return sum(laps), laps


# ---------------------------------------------------------------- the ladder
def _percentile(laps: list[float], q: float) -> float:
    """Nearest-rank percentile of ``laps`` (q in 0..100)."""
    if not laps:
        return 0.0
    ordered = sorted(laps)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered))) - 1))
    return ordered[rank]


def _run_level(
    address: tuple,
    requests: list[SynthesisRequest],
    clients: int,
    total_requests: int,
) -> dict:
    """One ladder rung: ``clients`` threads sharing ``total_requests``."""
    per_client = max(2, total_requests // clients)
    laps_by_thread: list[list[float]] = [[] for _ in range(clients)]
    errors: list[str] = []
    barrier = threading.Barrier(clients + 1)

    def drive(slot: int) -> None:
        client = ServiceClient(*address)
        try:
            barrier.wait()
            for i in range(per_client):
                request = requests[(slot + i) % len(requests)]
                t0 = time.perf_counter()
                response = client.synthesize(request)
                laps_by_thread[slot].append(time.perf_counter() - t0)
                if response.name != request.name:
                    errors.append(f"mangled response on slot {slot}")
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(f"slot {slot}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0

    laps = [lap for per in laps_by_thread for lap in per]
    done = len(laps)
    return {
        "clients": clients,
        "requests": done,
        "errors": errors,
        "wall_s": wall,
        "req_per_s": done / wall if wall else 0.0,
        "p50_ms": _percentile(laps, 50) * 1e3,
        "p95_ms": _percentile(laps, 95) * 1e3,
        "p99_ms": _percentile(laps, 99) * 1e3,
        "mean_ms": (sum(laps) / done * 1e3) if done else 0.0,
    }


def _saturation(levels: list[dict]) -> Optional[int]:
    """The rung past which adding clients stops buying throughput.

    The first client count whose successor improves req/s by less than
    10% (or regresses); None when throughput is still climbing at the
    top of the ladder.
    """
    for current, following in zip(levels, levels[1:]):
        if following["req_per_s"] < current["req_per_s"] * 1.10:
            return current["clients"]
    return None


def _ladder_one_server(
    label: str,
    server,
    requests: list[SynthesisRequest],
    clients_levels: list[int],
    requests_per_level: int,
) -> dict:
    """Cold phase + every ladder rung against one running server."""
    address = server.address
    client = ServiceClient(*address)
    cold_laps = []
    for request in requests:
        t0 = time.perf_counter()
        client.synthesize(request)
        cold_laps.append(time.perf_counter() - t0)
    client.close()
    print(f"  [{label}] cold: {sum(cold_laps):.3f}s over "
          f"{len(requests)} instances")
    levels = []
    for clients in clients_levels:
        level = _run_level(address, requests, clients, requests_per_level)
        levels.append(level)
        print(f"  [{label}] {clients:3d} clients: "
              f"{level['req_per_s']:8.1f} req/s  "
              f"p50 {level['p50_ms']:6.2f}ms  "
              f"p95 {level['p95_ms']:6.2f}ms  "
              f"p99 {level['p99_ms']:6.2f}ms"
              + (f"  ({len(level['errors'])} ERRORS)"
                 if level["errors"] else ""))
    return {
        "label": label,
        "cold_total_s": sum(cold_laps),
        "cold_laps_s": cold_laps,
        "levels": levels,
        "saturation_clients": _saturation(levels),
    }


def _warm_rate_at(result: dict, clients: int) -> Optional[float]:
    for level in result["levels"]:
        if level["clients"] == clients:
            return level["req_per_s"]
    return None


def run_ladder(args) -> int:
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    if args.limit is not None:
        names = names[: args.limit]
    requests = _requests_for(names, args.max_conflicts)
    clients_levels = [int(c) for c in args.clients.split(",") if c.strip()]
    print(f"concurrency ladder: {len(requests)} instances, "
          f"levels {clients_levels}, {args.requests} requests/level, "
          f"pool={args.pool}, workers={args.workers}")

    results: list[dict] = []

    with make_server(port=0, pool=args.pool, jobs=args.jobs) as server:
        server.serve_background()
        results.append(_ladder_one_server(
            "threaded", server, requests, clients_levels, args.requests))

    if args.workers > 1 and multiprocess_supported():
        with MultiProcessServer(
            workers=args.workers, pool=args.pool, jobs=args.jobs
        ) as server:
            server.start()
            results.append(_ladder_one_server(
                f"threaded-mp{args.workers}", server, requests,
                clients_levels, args.requests))
    else:
        print("  [threaded-mp] skipped (workers<=1 or no fork support)")

    # ------------------------------------------------------------ the gates
    failures: list[str] = []
    dropped = [
        f"[{r['label']}] {len(lvl['errors'])} errors at "
        f"{lvl['clients']} clients: {lvl['errors'][:3]}"
        for r in results for lvl in r["levels"] if lvl["errors"]
    ]
    failures.extend(dropped)

    single = results[0]
    sharded = results[1] if len(results) > 1 else None
    gate_checks = []
    for clients in (c for c in clients_levels if c >= 16):
        base = _warm_rate_at(single, clients)
        scaled = (_warm_rate_at(sharded, clients) or 0.0) if sharded else 0.0
        ok = base is not None and scaled > base
        gate_checks.append({
            "clients": clients,
            "single_req_per_s": base,
            "multiprocess_req_per_s": scaled,
            "ok": ok,
        })
        status = "ok" if ok else "BEHIND"
        print(f"gate @ {clients} clients: single-process {base:.1f} vs "
              f"multi-process {scaled:.1f} req/s [{status}]")
        if not ok and args.gate != "off":
            failures.append(
                f"multi-process not ahead of single-process at "
                f"{clients} clients ({scaled:.1f} <= {base:.1f} req/s)"
            )

    payload = {
        "bench": "server-ladder",
        "instances": list(names),
        "pool": args.pool,
        "jobs": args.jobs,
        "workers": args.workers,
        "clients_levels": clients_levels,
        "requests_per_level": args.requests,
        "servers": results,
        "gate_checks": gate_checks,
        "gate_mode": args.gate,
        "ok": not failures,
    }
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json_out}")

    if failures:
        hard = args.gate == "hard" or dropped  # errors always fail
        for failure in failures:
            print(f"{'FAIL' if hard else 'WARN'}: {failure}",
                  file=sys.stderr)
        if hard:
            return 1
        print("gate mode is 'warn': reporting without failing")
        return 0
    print("OK: ladder complete; multi-process ahead of single-process "
          "at every gated level")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--names", default=DEFAULT_NAMES,
                        help="comma list of Table II instances to request")
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first N of --names")
    parser.add_argument("--requests", type=int, default=30,
                        help="warm-phase request count (round-robin)")
    parser.add_argument("--pool", type=int, default=2,
                        help="server session-pool size")
    parser.add_argument("--jobs", type=int, default=1,
                        help="engine workers per pooled session")
    parser.add_argument("--max-conflicts", type=int, default=20_000)
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the measurements as JSON")
    parser.add_argument("--ladder", action="store_true",
                        help="run the concurrency ladder over a single "
                        "process and --workers processes instead of the "
                        "smoke bench")
    parser.add_argument("--clients", default="1,4,16,64",
                        help="ladder rungs: comma list of concurrent "
                        "client counts")
    parser.add_argument("--workers", type=int, default=2,
                        help="ladder: processes for the multi-process rung")
    parser.add_argument("--gate", choices=("hard", "warn", "off"),
                        default="warn",
                        help="ladder: how to treat the check that "
                        "multi-process is ahead of single-process at >=16 "
                        "clients (request errors always fail)")
    args = parser.parse_args(argv)

    if args.ladder:
        return run_ladder(args)

    names = [n.strip() for n in args.names.split(",") if n.strip()]
    if args.limit is not None:
        names = names[: args.limit]
    requests = _requests_for(names, args.max_conflicts)
    print(f"server bench: {len(requests)} instances "
          f"({', '.join(names)}), pool={args.pool}, jobs={args.jobs}")

    with make_server(port=0, pool=args.pool, jobs=args.jobs) as server:
        server.serve_background()
        host, port = server.address
        client = ServiceClient(host, port)

        floor_total, _ = _timed(client.health, 20)
        floor = floor_total / 20
        print(f"/healthz floor     : {floor * 1e3:8.2f} ms/req")

        cold_total, cold_laps = _timed(
            lambda it=iter(requests): client.synthesize(next(it)),
            len(requests),
        )
        print(f"cold synthesize    : {cold_total:8.3f} s total "
              f"({cold_total / len(requests) * 1e3:.2f} ms/req)")

        before = client.cache_stats()["engine"]
        warm_laps: list[float] = []
        for i in range(args.requests):
            request = requests[i % len(requests)]
            t0 = time.perf_counter()
            response = client.synthesize(request)
            warm_laps.append(time.perf_counter() - t0)
            assert response.name == request.name
        after = client.cache_stats()["engine"]

        warm_total = sum(warm_laps)
        rate = args.requests / warm_total if warm_total else float("inf")
        print(f"warm synthesize    : {warm_total:8.3f} s for "
              f"{args.requests} requests "
              f"({warm_total / args.requests * 1e3:.2f} ms/req, "
              f"{rate:.0f} req/s)")
        print(f"overhead multiple  : {warm_total / args.requests / floor:8.1f}"
              f"x the /healthz floor")

        # Scalar counters only: EngineStats also carries dict-valued
        # breakdowns (cores, preset_wins) that don't subtract.
        deltas = {
            k: after[k] - before.get(k, 0)
            for k in after
            if isinstance(after[k], int)
        }
        print(f"warm-phase deltas  : solver_calls={deltas['solver_calls']} "
              f"bound_calls={deltas['bound_calls']} "
              f"suite_hits={deltas['suite_hits']}")

        failures = []
        if deltas["solver_calls"] != 0:
            failures.append(
                f"warm phase ran {deltas['solver_calls']} SAT calls, want 0"
            )
        if deltas["bound_calls"] != 0:
            failures.append(
                f"warm phase recomputed {deltas['bound_calls']} bounds, want 0"
            )
        if deltas["suite_hits"] < args.requests:
            failures.append(
                f"only {deltas['suite_hits']} of {args.requests} warm "
                "requests hit the suite cache"
            )

        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(
                    {
                        "instances": list(names),
                        "pool": args.pool,
                        "jobs": args.jobs,
                        "healthz_floor_s": floor,
                        "cold_total_s": cold_total,
                        "cold_laps_s": cold_laps,
                        "warm_total_s": warm_total,
                        "warm_laps_s": warm_laps,
                        "warm_requests": args.requests,
                        "warm_req_per_s": rate,
                        "warm_engine_deltas": deltas,
                        "ok": not failures,
                    },
                    fh,
                    indent=2,
                )
            print(f"wrote {args.json_out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: warm requests served entirely from the suite cache "
          "(zero SAT calls, zero bound recomputations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
