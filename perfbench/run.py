#!/usr/bin/env python3
"""The JANUS benchmark: one workload per run, measured from outside.

Usage, from the checkout root::

    python3 perfbench/run.py --workload cold-synth --seed 1 --seconds 15 --trace 0

Workloads (see ``layers.json`` for what each loads and bypasses):

* ``cold-synth`` -- ``Session(jobs=1)`` over an empty cache, in a fresh
  process, repeating a fixed set of recorded targets in seeded order;
* ``cold-pool`` -- the same through ``Session(jobs=2)`` (process pool,
  shape racing, speculation);
* ``warm-http`` -- ``janus serve`` in its own process with a warmed
  cache, one closed-loop keep-alive client repeating a fixed set of 64
  targets in seeded order.

setup_s, throughput_rps and latency_p50_ms are scaled to a reference CPU
speed measured before every set-up and around every synthesis or second
of HTTP load (see ``cold.py``); the same latency median of unscaled
times and the measured speed are printed beside them.

With ``--trace 0`` the last line of output is the end-to-end metrics;
with ``--trace 1`` it is the per-layer metrics of a traced run (spans
recorded by wrappers around the program's public functions, see
``spans.py``).  Every answer is checked with the benchmark's own lattice
evaluator against recorded sizes.  Result files with provenance go to
``.bench_out/results/``; ``compare.py`` compares two sets of them.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import (
    HERE, ROOT, Reference, check_response, load_pool, program_present,
    request_json, spread_set,
)

OUT = ROOT / ".bench_out"
# Set-ups per untraced run; setup_s is their median, each scaled to the
# reference CPU speed timed just before it (see cold.py).  Half of the extra
# set-ups run before the timed phase and half after it, so the median
# spans the whole run rather than one moment of a drifting CPU.
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 150.0  # seconds any measured process may take
SEGMENT_S = 1.0  # closed-loop stretch between two timings of the reference
WARM_TARGETS = 64  # warm-http's repeated target set

WORKLOADS = ("cold-synth", "cold-pool", "warm-http")

# Spanned layers: each gives <layer>_ms and <layer>_self_ms per operation.
SPAN_LAYERS = (
    "server.handle", "server.pool_wait", "api.parse", "api.to_spec",
    "api.stats", "api.serialize", "boolf.minimize", "engine.suite_key",
    "engine.probe_key", "engine.memory_get", "engine.disk_get",
    "engine.disk_put", "core.bounds", "core.ds_bound", "core.encode",
    "sat.ingest", "sat.search", "lattice.verify",
)


# ------------------------------------------------------------------ helpers
def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _tail(values: list) -> tuple[str, float]:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"p{q}", _percentile(values, q)
    return "max", max(values)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a child; kill it if it overruns."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{proc.args[1]} overran {timeout:g}s")


def _readline(stream, deadline: float) -> str:
    """One line from a child's stdout, or an error past ``deadline``."""
    result: list = []
    reader = threading.Thread(
        target=lambda: result.append(stream.readline()), daemon=True
    )
    reader.start()
    reader.join(max(0.0, deadline - time.perf_counter()))
    if not result or not result[0]:
        raise RuntimeError("child process did not report in time")
    return result[0]


# --------------------------------------------------------------- cold runs
def _cold_child(jobs: int, args, scratch: Path, setup_only: bool):
    """Start cold.py; returns (process, seconds until it printed READY)."""
    cmd = [sys.executable, str(HERE / "cold.py"), "--jobs", str(jobs),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=open(scratch / "cold.err", "a"), text=True,
    )
    line = _readline(proc.stdout, start + CHILD_TIMEOUT)
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"cold.py failed during set-up: {line!r}")
    return proc, time.perf_counter() - start


def _speed(reference: Reference) -> float:
    """The CPU's speed now relative to the reference speed (see cold.py);
    set-up times are multiplied by it."""
    return reference.expected / reference.time()


def _setup_samples(setup_once, args) -> tuple[list, int]:
    """Run the extra set-ups due before the measured one; returns their
    times and how many more to run after the timed phase.  A traced run
    reports no setup_s and takes none."""
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    before = [setup_once() for _ in range(extra // 2)]
    return before, extra - extra // 2


def run_cold(jobs: int, args, scratch: Path, reference: Reference) -> dict:
    def setup_once() -> float:
        speed = _speed(reference)
        proc, seconds = _cold_child(jobs, args, scratch, setup_only=True)
        _wait(proc, CHILD_TIMEOUT)
        return seconds * speed

    setups, after = _setup_samples(setup_once, args)
    speed = _speed(reference)
    proc, seconds = _cold_child(jobs, args, scratch, setup_only=False)
    setups.append(seconds * speed)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"cold.py overran {CHILD_TIMEOUT:g}s")
    if proc.returncode != 0:
        raise RuntimeError(f"cold.py exited with {proc.returncode}")
    setups += [setup_once() for _ in range(after)]
    raw = json.loads(out.strip().splitlines()[-1])
    # Times at the reference CPU speed (see cold.py), mean per target.
    op_s = [t for _i, t in raw["op_s"]]
    result = {
        "attempted": raw["attempted"], "failed": raw["failed"],
        "wrong": raw["wrong"], "unproven": raw["unproven"],
        "errors": raw["errors"], "core": raw["core"],
        "setup_s": statistics.median(setups),
        # Syntheses per second, each counting its fresh Session's
        # construction and close().
        "throughput_rps": len(op_s) / sum(op_s),
        "latencies_ms": [t * 1000 for _i, t in raw["synth_s"]],
        "wall_latency_p50_ms": statistics.median(
            [t * 1000 for _i, t in raw["wall_synth_s"]]),
        "cpu_speed": raw["speed"],
        "wall_s": raw["wall_s"], "close_s": raw["close_s"],
        "ops": raw["ops"], "stats": raw["stats"],
    }
    if args.trace:
        result["trace"] = raw["trace"]
        # Both halves ran the same set; compare median times over the
        # targets both halves completed.
        traced = dict(raw["synth_s"])
        untraced = dict(raw["untraced"]["synth_s"])
        both = traced.keys() & untraced.keys()
        result["overhead"] = (
            sum(traced[k] for k in both) / sum(untraced[k] for k in both) - 1
            if both else 0.0
        )
        for key in ("attempted", "failed", "wrong"):
            result[key] += raw["untraced"][key]
    return result


# ---------------------------------------------------------------- HTTP runs
class Server:
    """``janus serve`` started through serve.py in its own process."""

    def __init__(self, scratch: Path, trace_out: Path | None) -> None:
        self.cache = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        cmd = [sys.executable, "-u", str(HERE / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--port", "0", "--pool", "2", "--jobs", "1",
                "--cache", str(self.cache)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=open(scratch / "serve.err", "a"), text=True,
        )
        deadline = self.started + CHILD_TIMEOUT
        self.core = "unknown"
        try:
            while True:
                line = _readline(self.proc.stdout, deadline)
                if line.startswith("core: "):
                    self.core = line.split()[1]
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                    break
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        # Keep draining stdout so the server can never block on it.
        threading.Thread(
            target=lambda: [None for _ in self.proc.stdout], daemon=True
        ).start()

    def stop(self) -> float:
        """SIGTERM and wait; returns the shutdown time in seconds."""
        start = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        _wait(self.proc, CHILD_TIMEOUT)
        return time.perf_counter() - start


class Client:
    """One keep-alive connection (stdlib ``http.client``)."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def _engine_stats(client: Client) -> dict:
    status, body = client.request("GET", "/v1/cache/stats")
    if status != 200:
        raise RuntimeError(f"/v1/cache/stats answered {status}")
    return json.loads(body)["engine"]


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            prior = before.get(key) or {}
            out[key] = {k: v - prior.get(k, 0) for k, v in value.items()}
        else:
            out[key] = value - before.get(key, 0)
    return out


def _warm(port: int, targets: list[dict]) -> list[str]:
    """POST every target once, one at a time, and check each answer;
    returns the problems found.  One at a time, because the server's
    peak memory is reached here and two concurrent solves made it vary
    by 10% from run to run."""
    problems: list[str] = []
    client = Client(port)
    try:
        for i, target in enumerate(targets):
            status, body = client.request(
                "POST", "/v1/synthesize", request_json(target, f"t{i}").encode())
            problem = (
                f"answered {status}" if status != 200
                else check_response(target, json.loads(body))
            )
            if problem is not None:
                problems.append(f"warm-up: {problem}")
    finally:
        client.close()
    return problems


def _start(scratch: Path, warm: list[dict], trace_out: Path | None):
    """Spawn a server, wait for /healthz, warm its cache.  Returns the
    server, the set-up time and the warm-up problems."""
    server = Server(scratch, trace_out)
    try:
        client = Client(server.port)
        try:
            status, _ = client.request("GET", "/healthz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        problems = _warm(server.port, warm)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started, problems


def _closed_loop(port: int, order: list[int], targets: list[dict],
                 seconds: float, reference: Reference) -> tuple[list, list]:
    """One keep-alive connection repeats the seeded ``order`` of target
    indices until ``seconds`` have elapsed, timing the speed reference
    before and after every ``SEGMENT_S`` stretch.  Returns one record per
    request, (target index, start, end, status, body, speed), and each
    stretch's completions per second, scaled to the reference speed.
    One connection, because with two the client and server threads
    outnumber the two CPUs: throughput then spread 0.22 over ten seeds
    while the median latency held steady."""
    bodies = [request_json(targets[i], f"t{i}").encode() for i in order]
    records: list = []
    rates: list = []
    client = Client(port)
    stop_at = time.perf_counter() + seconds
    j = 0
    try:
        while time.perf_counter() < stop_at:
            before = reference.time()
            began = time.perf_counter()
            end = min(began + SEGMENT_S, stop_at)
            stretch = []
            while time.perf_counter() < end:
                t0 = time.perf_counter()
                try:
                    status, body = client.request(
                        "POST", "/v1/synthesize", bodies[j % len(order)])
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, repr(exc).encode()
                    client.close()
                    client = Client(port)
                stretch.append((order[j % len(order)], t0,
                                time.perf_counter(), status, body))
                j += 1
            took = time.perf_counter() - began
            speed = reference.expected / ((before + reference.time()) / 2)
            rates.append(sum(r[3] == 200 for r in stretch) / (took * speed))
            records += [r + (speed,) for r in stretch]
    finally:
        client.close()
    return records, rates


def _check_records(records: list, targets: list[dict]):
    """(failed, wrong, unproven, problems) over every request; answers
    that repeat in the checked fields are evaluated once."""
    failed, wrong, unproven, problems = 0, 0, 0, []
    verdicts: dict = {}
    for i, _t0, _t1, status, body, _speed in records:
        if status != 200:
            failed += 1
            problems.append(f"status {status}: {body[:120]!r}")
            continue
        response = json.loads(body)
        key = (i, json.dumps(response.get("assignment"), sort_keys=True),
               response.get("size"), response.get("lower_bound"))
        if key not in verdicts:
            verdicts[key] = check_response(targets[i], response)
        if verdicts[key] is not None:
            wrong += 1
            problems.append(verdicts[key])
        unproven += response["lower_bound"] < response["size"]
    return failed, wrong, unproven, problems


def run_http(args, scratch: Path, reference: Reference) -> dict:
    """warm-http: a warmed server, closed-loop repeats of its targets."""
    targets = spread_set(load_pool("http"), WARM_TARGETS)
    order = random.Random(args.seed).sample(range(len(targets)), len(targets))
    problems: list[str] = []

    def setup_once() -> float:
        speed = _speed(reference)
        server, setup, found = _start(scratch, targets, None)
        server.stop()
        shutil.rmtree(server.cache, ignore_errors=True)
        problems.extend(found)
        return setup * speed

    def measure(trace_out: Path | None, seconds: float) -> dict:
        speed = _speed(reference)
        server, setup, found = _start(scratch, targets, trace_out)
        try:
            client = Client(server.port)
            before = _engine_stats(client)
            if trace_out is not None:
                server.proc.send_signal(signal.SIGUSR1)
                client.request("GET", "/healthz")  # the handler has run
            began = time.perf_counter()
            records, rates = _closed_loop(server.port, order, targets,
                                          seconds, reference)
            ended = time.perf_counter()
            if trace_out is not None:
                server.proc.send_signal(signal.SIGUSR2)
            after = _engine_stats(client)
            client.close()
        finally:
            close_s = server.stop()
        shutil.rmtree(server.cache, ignore_errors=True)
        problems.extend(found)
        return {"records": records, "rates": rates, "setup": setup * speed,
                "close_s": close_s, "stats": _delta(after, before),
                "core": server.core, "wall_s": ended - began}

    if args.trace:
        half = args.seconds / 2
        trace_file = scratch / "spans.json"
        runs = [measure(None, half), measure(trace_file, half)]
        with open(trace_file, encoding="utf-8") as handle:
            spans = json.load(handle)
        shutil.copy(trace_file, OUT / f"spans-warm-http-{args.seed}.json")
        setups = [r["setup"] for r in runs]
    else:
        setups, after = _setup_samples(setup_once, args)
        runs = [measure(None, args.seconds)]
        setups.append(runs[0]["setup"])
        setups += [setup_once() for _ in range(after)]
    run = runs[-1]
    failed, wrong, unproven = 0, 0, 0
    for r in runs:
        f, w, u, found = _check_records(r["records"], targets)
        failed, wrong, unproven = failed + f, wrong + w, unproven + u
        problems += found
    wrong += sum(1 for p in problems if p.startswith("warm-up"))
    ok = [r for r in run["records"] if r[3] == 200]
    # Latencies and rates at the reference CPU speed (see cold.py).
    latencies = [(t1 - t0) * speed * 1000 for _i, t0, t1, _s, _b, speed in ok]
    stats = run["stats"]
    result = {
        "attempted": sum(len(r["records"]) for r in runs),
        "failed": failed, "wrong": wrong, "unproven": unproven,
        "errors": problems[:5], "core": run["core"],
        "setup_s": statistics.median(setups),
        # The median stretch, so one stalled second cannot move it.
        "throughput_rps": statistics.median(run["rates"]),
        "latencies_ms": latencies,
        "wall_latency_p50_ms": statistics.median(
            [(r[2] - r[1]) * 1000 for r in ok]),
        "cpu_speed": statistics.median(r[5] for r in ok),
        "wall_s": run["wall_s"], "close_s": run["close_s"],
        "ops": len(ok), "stats": stats,
    }
    if stats["solver_calls"] or stats["bound_calls"]:
        result["wrong"] += 1
        result["errors"].insert(0, "warm-http timed phase ran the solver "
                                f"({stats['solver_calls']} probes, "
                                f"{stats['bound_calls']} bound calls)")
    if args.trace:
        result["trace"] = spans["summary"]
        base = statistics.median(
            [(t1 - t0) * speed
             for _i, t0, t1, s, _b, speed in runs[0]["records"] if s == 200])
        result["overhead"] = statistics.median(
            [x / 1000 for x in latencies]) / base - 1
    return result


# ------------------------------------------------------------------ metrics
def per_layer(result: dict) -> dict:
    """Per-layer metrics from a traced run (see layers.json)."""
    trace = result["trace"]
    ops = max(1, result["ops"])
    calls, total, self_s = trace["calls"], trace["total_s"], trace["self_s"]
    counters, stats = trace["counters"], result["stats"]
    m: dict = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}_ms"] = (total.get(layer, 0.0) * 1000 / ops, "ms/op")
        m[f"{layer}_self_ms"] = (self_s.get(layer, 0.0) * 1000 / ops, "ms/op")

    def per_op(value: float) -> tuple:
        return (value / ops, "count/op")

    def ratio(num: float, den: float) -> tuple:
        return (num / den if den else 0.0, "ratio")

    # Client-side latency minus the server's handle time (HTTP only).
    handle_ms = total.get("server.handle", 0.0) * 1000 / ops
    m["server.transport_ms"] = (
        statistics.fmean(result["latencies_ms"]) - handle_ms
        if handle_ms else 0.0, "ms/op")
    m["boolf.minimize_calls"] = per_op(calls.get("boolf.minimize", 0))
    m["engine.memory_hit_ratio"] = ratio(
        counters.get("engine.memory_get.hits", 0), calls.get("engine.memory_get", 0))
    m["engine.disk_puts"] = per_op(calls.get("engine.disk_put", 0))
    m["engine.suite_hit_ratio"] = ratio(
        stats["suite_hits"], stats["suite_hits"] + stats["suite_misses"])
    m["engine.probe_hit_ratio"] = ratio(
        stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"])
    for name in ("dispatched", "cancelled", "harvested", "speculated"):
        m[f"engine.{name}"] = per_op(stats[name])
    m["engine.speculation_useful_ratio"] = ratio(
        stats["speculative_hits"], stats["speculated"])
    m["engine.pool_close_s"] = (total.get("engine.pool_close", 0.0), "s")
    m["core.bound_calls"] = per_op(calls.get("core.bounds", 0))
    m["core.encodings"] = per_op(counters.get("core.encodings", 0))
    m["core.clauses"] = per_op(counters.get("core.clauses", 0))
    m["core.probes"] = per_op(stats["solver_calls"])
    m["core.reuse_ratio"] = ratio(
        stats["reuse_hits"] + stats["pruned_shapes"], stats["solver_calls"])
    m["sat.clauses_added"] = per_op(calls.get("sat.ingest", 0))
    m["sat.propagations"] = per_op(counters.get("sat.propagations", 0))
    m["sat.conflicts"] = per_op(counters.get("sat.conflicts", 0))
    search_s = total.get("sat.search", 0.0)
    m["sat.props_per_s"] = (
        counters.get("sat.propagations", 0) / search_s if search_s else 0.0, "1/s")
    m["close_s"] = (result["close_s"], "s")
    m["trace.overhead_share"] = (result["overhead"], "ratio")
    m["trace.unmeasured_layers"] = (len(trace["unmeasured"]), "count")
    return m


def end_to_end(result: dict, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (result["setup_s"], "s"),
        "throughput_rps": (result["throughput_rps"], "1/s"),
        "latency_p50_ms": (statistics.median(result["latencies_ms"]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not program_present():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # One CPU: set-up runs one process at a time, and warm-http's client
    # and server take turns on one connection.  Created before any thread
    # starts, because it forks.
    reference = Reference(1)
    try:
        if args.workload == "cold-synth":
            result = run_cold(1, args, scratch, reference)
        elif args.workload == "cold-pool":
            result = run_cold(2, args, scratch, reference)
        else:
            result = run_http(args, scratch, reference)
    finally:
        reference.close()
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    metrics = per_layer(result) if args.trace else end_to_end(result, peak_rss_mb)
    attempted = max(1, result["attempted"])
    lat = result["latencies_ms"]
    tail_name, tail = _tail(lat)
    extra = {
        "wall_s": result["wall_s"],
        f"latency_{tail_name}_ms": tail,
        "latency_samples": len(lat),
        "failed_share": result["failed"] / attempted,
        "wrong_share": result["wrong"] / attempted,
        "unproven_share": result["unproven"] / attempted,
        "close_s": result["close_s"],
    }
    for key in ("wall_latency_p50_ms", "cpu_speed"):
        extra[key] = result[key]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "core": result["core"], "python": platform.python_version(),
        "nproc": _nproc(), "commit": _git_commit(),
    }
    correct = result["wrong"] == 0 and result["failed"] == 0
    print(f"workload  : {args.workload} (seed {args.seed}, "
          f"{args.seconds:g}s, trace {args.trace})")
    print(f"provenance: core={provenance['core']} python={provenance['python']} "
          f"nproc={provenance['nproc']} commit={provenance['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for name, value in extra.items():
        print(f"  ({name:32s} {value:14.4f})")
    if result["errors"]:
        print("errors    : " + "; ".join(result["errors"]))
    if args.trace and result["trace"]["unmeasured"]:
        print("unmeasured: " + ", ".join(result["trace"]["unmeasured"]))
    record = {
        "provenance": provenance, "correct": correct,
        "metrics": {k: v for k, (v, _u) in metrics.items()}, "extra": extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "results" / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
