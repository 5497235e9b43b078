#!/usr/bin/env python3
"""Cold synthesis through the public API, in a fresh process.

Runs ``repro.api.Session(jobs=N)`` on a fixed set of recorded targets
spread evenly through the pool's cost range (see ``common.spread_set``),
each target in its own fresh session over an empty cache.  Every seed
measures the same work in its own order, so runs with different seeds
differ only by the program and the machine, and no target's session
time depends on which target ran before it.  Prints ``READY`` once
set-up is done; the caller times set-up from process start to that line.

The timed phase repeats the whole set at least ``MIN_REPEATS`` times
and until ``--seconds`` have elapsed, so every synthesis is cold every
time.  Every answer is checked against the recorded sizes with the
benchmark's own evaluator.  The last line of output is one JSON object
of raw measurements for ``run.py``.

Times are scaled to a reference CPU speed.  On a shared 2-CPU virtual
machine the speed of the same Python code drifts by 15-25% over tens of
seconds (other load on the host, not counted as steal time), so no
choice among a run's own samples makes runs a few minutes apart agree.
Right before and right after every operation the benchmark therefore
times a fixed piece of its own Python code, the speed reference
(``common.Reference``: the benchmark's lattice evaluator on a fixed
lattice, run on as many CPUs at once as the session has workers), and
multiplies the operation's time by the reference's recorded time,
``common.REFERENCE_S``, over its mean time then.  The result
reads as the time the operation would take on a CPU where the reference
takes that long.  Nothing the program does changes the reference,
so a faster or slower program moves the scaled times exactly as it
moves the wall times.  A target's synthesis time is
the mean of its scaled synthesis times over the repeats (the unscaled
mean is reported too), and so is its operation time, ``Session``
construction plus synthesis plus ``close()`` (see ``_means``).

With ``--trace 1`` the phase runs twice on the same set, each for half
the time: untraced, then with the tracing wrappers installed, so the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import shutil
import statistics
import sys
import tempfile
import time

from common import (
    ROOT, SRC, Reference, check_response, load_pool, request_json, spread_set,
)

# Targets in the fixed set, by worker count.  Few enough that a 35 s
# phase runs each of them about ten times, so its mean is steady.
SET_SIZE = {1: 10, 2: 8}
MIN_REPEATS = 2  # every target runs at least this often
# A two-worker run leaves out targets whose recorded shutdown waited
# longer than this for speculative probes.  Targets that leave probes
# running for up to this long stay in, so speculation waste and a slow
# shutdown move the measured time; the multi-second ones would make a
# run's time hinge on scheduling luck.
POOL_CLOSE_LIMIT_S = 1.0
# The teardown target: synthesized last, in its own session, so that
# close_s measures a shutdown that has speculative probes to wait for.
TEARDOWN = "multi-output-L1:1#1"


def _means(samples: dict) -> list:
    """Per-target interquartile means: the mean without the fastest and
    the slowest quarter.  A mean, not a median, because a pooled target's
    time has two modes (which worker wins a race), and the median of a
    few samples jumps between them."""
    out = []
    for i, v in sorted(samples.items()):
        cut = len(v) // 4
        out.append([i, statistics.fmean(sorted(v)[cut:len(v) - cut])])
    return out


def _phase(Session, SynthesisRequest, jobs, targets, seconds, scratch, rec,
           reference):
    """Repeat the set until ``seconds`` have elapsed (and at least
    ``MIN_REPEATS`` times); returns raw measurements, with each target's
    mean synthesis and operation times over the repeats, both scaled to
    the reference speed, and its mean unscaled synthesis time."""
    synth: dict = {}  # position -> scaled synthesis times
    whole: dict = {}  # position -> scaled construction + synthesis + close
    wall_synth: dict = {}  # position -> unscaled synthesis times
    speeds: list = []
    texts, failures = [], []
    stats: dict = {}
    close_s = 0.0
    start = time.perf_counter()
    repeats = 0
    while repeats < MIN_REPEATS or time.perf_counter() - start < seconds:
        for i, (target, body) in enumerate(targets):
            if repeats >= MIN_REPEATS and time.perf_counter() - start >= seconds:
                break
            before = reference.time()
            cache = tempfile.mkdtemp(prefix="cold-", dir=scratch)
            t0 = time.perf_counter()
            session = Session(jobs=jobs, cache=cache)
            opened = time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                if rec is None:
                    text = _synthesize(session, SynthesisRequest, body)
                else:
                    text = rec.call("bench.op", True, _synthesize,
                                    session, SynthesisRequest, body)
            # A failed synthesis is counted against the run, never fatal.
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{type(exc).__name__}: {exc}")
                text = None
            took = time.perf_counter() - t0
            closed = _close(session, stats, rec)
            close_s += closed
            speed = reference.expected / ((before + reference.time()) / 2)
            speeds.append(speed)
            if text is not None:
                synth.setdefault(i, []).append(took * speed)
                whole.setdefault(i, []).append((opened + took + closed) * speed)
                wall_synth.setdefault(i, []).append(took)
                texts.append((target, text))
        repeats += 1
    wall = time.perf_counter() - start
    if rec is not None:
        rec.enabled = False
    wrong, unproven, errors = 0, 0, []
    for target, text in texts:
        response = json.loads(text)
        problem = check_response(target, response)
        if problem is not None:
            wrong += 1
            errors.append(problem)
        if response["lower_bound"] < response["size"]:
            unproven += 1
    return {
        "attempted": len(texts) + len(failures),
        "failed": len(failures),
        "wrong": wrong,
        "unproven": unproven,
        "errors": (failures + errors)[:5],
        "synth_s": _means(synth),
        "op_s": _means(whole),
        "wall_synth_s": _means(wall_synth),
        "speed": statistics.median(speeds),
        "ops": len(texts),
        "wall_s": wall,
        "close_s": close_s,
        "stats": stats,
    }


def _synthesize(session, SynthesisRequest, body: str) -> str:
    request = SynthesisRequest.from_json(body)
    return session.synthesize(request).to_json()


def _close(session, stats: dict, rec) -> float:
    """Fold the session's engine counters into ``stats``, then time its
    shutdown.  The benchmark's own stats read is kept out of the trace;
    the shutdown is traced."""
    if rec is not None:
        rec.enabled = False
    for key, value in dataclasses.asdict(session.stats).items():
        if isinstance(value, dict):
            merged = stats.setdefault(key, {})
            for k, v in value.items():
                merged[k] = merged.get(k, 0) + v
        else:
            stats[key] = stats.get(key, 0) + value
    if rec is not None:
        rec.enabled = True
    t0 = time.perf_counter()
    session.close()
    return time.perf_counter() - t0


def _teardown(Session, SynthesisRequest, jobs, target, scratch, rec,
              out: dict) -> float:
    """Synthesize the teardown target in a fresh session (untraced),
    check it, then time the traced shutdown."""
    cache = tempfile.mkdtemp(prefix="teardown-", dir=scratch)
    session = Session(jobs=jobs, cache=cache)
    rec.enabled = False
    out["attempted"] += 1
    try:
        text = _synthesize(session, SynthesisRequest,
                           request_json(target, "teardown"))
    # A failed synthesis is counted against the run, never fatal.
    except Exception as exc:  # noqa: BLE001
        out["failed"] += 1
        out["errors"].append(f"teardown target: {type(exc).__name__}: {exc}")
    else:
        problem = check_response(target, json.loads(text))
        if problem is not None:
            out["wrong"] += 1
            out["errors"].append(f"teardown target: {problem}")
    rec.enabled = True
    start = time.perf_counter()
    session.close()
    close_s = time.perf_counter() - start
    rec.enabled = False
    return close_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True,
                        help="directory for the run's caches")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from repro.api import Session
    from repro.api.schema import SynthesisRequest
    from repro.sat.solver import resolve_core_class

    pool = load_pool("cold")
    teardown = next(t for t in pool if t["src"] == TEARDOWN)
    cost = "cost_s"
    if args.jobs > 1:
        pool = [t for t in pool if t["pool_close_s"] <= POOL_CLOSE_LIMIT_S]
        cost = "pool_cost_s"
    chosen = spread_set(pool, SET_SIZE[min(args.jobs, 2)], cost)
    random.Random(args.seed).shuffle(chosen)
    targets = [(t, request_json(t, f"cold-{i}")) for i, t in enumerate(chosen)]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    scratch = tempfile.mkdtemp(prefix="cold-", dir=args.scratch)
    reference = Reference(min(args.jobs, 2))
    try:
        if not args.trace:
            out = _phase(Session, SynthesisRequest, args.jobs, targets,
                         args.seconds, scratch, None, reference)
        else:
            from spans import Recorder, install

            untraced = _phase(Session, SynthesisRequest, args.jobs, targets,
                              args.seconds / 2, scratch, None, reference)
            rec = Recorder()
            install(rec)
            out = _phase(Session, SynthesisRequest, args.jobs, targets,
                         args.seconds / 2, scratch, rec, reference)
            out["untraced"] = {
                key: untraced[key]
                for key in ("synth_s", "attempted", "failed", "wrong")
            }
            teardown_close = _teardown(Session, SynthesisRequest, args.jobs,
                                       teardown, scratch, rec, out)
            out["trace"] = rec.summary()
            out["close_s"] = teardown_close
            rec.dump(str(ROOT / ".bench_out" / f"spans-cold-j{args.jobs}-"
                         f"{args.seed}.json"))
    finally:
        reference.close()
        shutil.rmtree(scratch, ignore_errors=True)
    cores = out["stats"].get("cores") or {}
    out["core"] = (
        max(cores, key=cores.get) if cores else resolve_core_class().core_name
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
