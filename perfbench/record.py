#!/usr/bin/env python3
"""Record the benchmark's target pools: truth tables plus the size and
lower bound the program returns for each at the commit that records them.

Candidates come from the seeded generator ladder
(``repro.gen.generated_specs``).  Each is synthesized once in its own
forked process under a wall-clock cap; candidates that time out, are not
proven minimum, or fall outside the pool's cost band are dropped.  The
kept targets, with their measured cost, go to ``data/<pool>.json``.
A cold-pool target's cost is the faster of two runs, so the cost strata
the workloads draw from are not blurred by a noisy neighbour.  Cold
targets are also run twice through ``Session(jobs=2)``: the faster
synthesis time and the slower shutdown time are kept (``pool_cost_s``,
``pool_close_s``; a shutdown already slow the first time is not
repeated), so cold-pool can leave out targets whose speculative probes
outlive the search.

Usage, from the checkout root::

    python3 perfbench/record.py --pool cold
    python3 perfbench/record.py --pool http

Recording replaces the expected answers every run is checked against, so
re-record only when a change is meant to alter sizes or bounds, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time

from common import DATA, ROOT, SRC, request_json

# pool -> (generator levels, base seeds, kept cost band in s, minimum
# SAT probes, wall-clock cap per candidate in s, targets to keep)
POOLS = {
    # SAT-heavy level-1 targets whose cold synthesis takes a tenth of a
    # second to most of one: the search, not set-up, dominates, and the
    # narrow band keeps seeded batches close in cost.
    "cold": ((1,), range(0, 120), (0.1, 0.8), 1, 2.0, 130),
    # Targets the service can solve in milliseconds: warm-http draws its
    # repeated working set from these.
    "http": ((0, 1), range(0, 400), (0.0, 0.05), 0, 1.0, 900),
}


def _solve(body: str, jobs: int, cache: str, conn) -> None:
    # Own process group, so an overrun kills the pool workers too.
    os.setpgrp()
    from repro.api import Session
    from repro.api.schema import SynthesisRequest

    request = SynthesisRequest.from_json(body)
    session = Session(jobs=jobs, cache=cache)
    start = time.perf_counter()
    response = session.synthesize(request)
    cost = time.perf_counter() - start
    start = time.perf_counter()
    session.close()
    close = time.perf_counter() - start
    conn.send((response.size, response.lower_bound,
               response.stats["solver_calls"], cost, close))
    conn.close()


def _run(ctx, body: str, jobs: int, cap: float):
    """Synthesize in a forked child; None if it overran ``cap``."""
    cache = tempfile.mkdtemp(dir=ROOT / ".bench_out")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_solve, args=(body, jobs, cache, send))
    proc.start()
    send.close()
    result = recv.recv() if recv.poll(cap) else None
    if proc.is_alive():
        os.killpg(proc.pid, signal.SIGKILL)
    proc.join()
    recv.close()
    shutil.rmtree(cache, ignore_errors=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=sorted(POOLS), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.api.schema import SynthesisRequest
    from repro.gen import generated_specs

    levels, seeds, (lo, hi), min_probes, cap, keep = POOLS[args.pool]
    # Fork, not spawn: the parent is single-threaded and has already
    # imported the program, so each candidate starts in milliseconds.
    ctx = multiprocessing.get_context("fork")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    kept, seen = [], set()
    for level in levels:
        for seed in seeds:
            for spec in generated_specs("mixed", level=level, base_seed=seed):
                wire = SynthesisRequest.from_target(spec).target
                key = (wire["num_vars"], wire["on"], wire["dc"])
                if key in seen:
                    continue
                seen.add(key)
                target = {"n": wire["num_vars"], "on": wire["on"],
                          "dc": wire["dc"], "src": spec.name}
                body = request_json(target, "rec")
                result = _run(ctx, body, 1, cap)
                if result is None:
                    continue
                size, lb, probes, cost, _close = result
                if lb != size or probes < min_probes:
                    continue
                if args.pool == "cold" and lo <= cost <= hi * 1.5:
                    again = _run(ctx, body, 1, cap)
                    cost = min(cost, again[3] if again else cost)
                if not lo <= cost <= hi:
                    continue
                target.update(size=size, lb=lb, probes=probes,
                              cost_s=round(cost, 4))
                if args.pool == "cold":
                    # A shutdown can wait a long time for speculative
                    # probes, so these runs get a generous cap.
                    runs = [_run(ctx, body, 2, 60.0)]
                    if runs[0] is not None and runs[0][4] <= 0.1:
                        runs.append(_run(ctx, body, 2, 60.0))
                    if None in runs or any(r[:2] != (size, lb) for r in runs):
                        continue
                    target["pool_cost_s"] = round(min(r[3] for r in runs), 4)
                    target["pool_close_s"] = round(max(r[4] for r in runs), 4)
                kept.append(target)
                print(f"{len(kept):4d} {spec.name:28s} size={size:3d} "
                      f"probes={probes:3d} cost={cost:.3f}s", flush=True)
                if len(kept) >= keep:
                    break
            if len(kept) >= keep:
                break
    DATA.mkdir(exist_ok=True)
    out = DATA / f"{args.pool}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"pool": args.pool, "levels": list(levels),
                   "band_s": [lo, hi], "targets": kept}, handle, indent=0)
        handle.write("\n")
    print(f"wrote {len(kept)} targets to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
