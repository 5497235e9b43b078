"""Shared helpers for the benchmark: checkout paths, target pools, the
request wire form, the benchmark's own lattice evaluator, and the speed
reference that measured times are scaled by (see ``cold.py``).

Nothing here imports :mod:`repro`; the evaluator in particular is an
independent re-implementation of switching-lattice semantics, so a bug
in ``repro.lattice`` cannot make a wrong answer look right.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

# Request options every workload sends.  The conflict budget is the API
# default written out, so the recorded sizes stay valid if the default
# ever moves.
OPTIONS = {"max_conflicts": 60000}

# The speed reference: the evaluator on a fixed 4x4 lattice over six
# variables, REFERENCE_REPEATS times, and its median time on the 2-CPU
# Xeon virtual machine the target pools were recorded on, by the number
# of CPUs it runs on at once (on two at once each copy runs slower).
REFERENCE_LATTICE = (
    6, 4, 4, [[(r * 4 + c) % 6, (r + c) % 2 == 0]
              for r in range(4) for c in range(4)],
)
REFERENCE_REPEATS = 12
REFERENCE_S = {1: 0.0048, 2: 0.0066}


def program_present() -> bool:
    """True when the checkout holds the program under test."""
    return (SRC / "repro" / "__init__.py").is_file()


def load_pool(name: str) -> list[dict]:
    """A recorded target pool (``data/<name>.json``): one dict per target
    with its truth table, expected size and lower bound, and the cost
    measured when it was recorded."""
    with open(DATA / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["targets"]


def target_wire(target: dict) -> dict:
    """The ``truthtable`` target form of the public wire schema."""
    return {
        "form": "truthtable",
        "num_vars": target["n"],
        "on": target["on"],
        "dc": target["dc"],
    }


def request_json(target: dict, name: str) -> str:
    """A ``synthesis_request`` body, built without the program's client."""
    return json.dumps(
        {
            "api": 1,
            "kind": "synthesis_request",
            "target": target_wire(target),
            "name": name,
            "backend": "janus",
            "options": OPTIONS,
        },
        separators=(",", ":"),
    )


def spread_set(pool: list[dict], size: int, cost: str = "cost_s") -> list[dict]:
    """``size`` targets evenly spaced through the pool sorted by the
    recorded ``cost`` field: the middle target of each of ``size`` equal
    runs of neighbours.  The choice does not depend on any seed."""
    ranked = sorted(pool, key=lambda t: (t[cost], t["on"], t["dc"] or ""))
    if len(ranked) < size:
        raise ValueError(f"pool of {len(pool)} is too small for {size} targets")
    return [ranked[int((k + 0.5) * len(ranked) / size)] for k in range(size)]


# -------------------------------------------------------------- evaluator
def _bits(hexbits: str | None, n: int) -> list[bool]:
    if hexbits is None:
        return [False] * (1 << n)
    raw = bytes.fromhex(hexbits)
    return [bool(raw[m >> 3] >> (m & 7) & 1) for m in range(1 << n)]


def realized(n: int, rows: int, cols: int, entries: list) -> list[bool]:
    """The function a lattice computes: for each minterm, whether a
    4-connected path of ON switches joins the top row to the bottom row.

    ``entries`` is the wire form, row-major: ``[var, positive]`` is a
    literal switch, ``[None, value]`` a constant.
    """
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match the lattice shape")
    out = []
    for m in range(1 << n):
        on = [
            positive if var is None else bool(m >> var & 1) == positive
            for var, positive in entries
        ]
        stack = [c for c in range(cols) if on[c]]
        seen = set(stack)
        hit = False
        while stack:
            cell = stack.pop()
            r, c = divmod(cell, cols)
            if r == rows - 1:
                hit = True
                break
            for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if 0 <= rr < rows and 0 <= cc < cols:
                    nxt = rr * cols + cc
                    if on[nxt] and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        out.append(hit)
    return out


def check_response(target: dict, response: dict) -> str | None:
    """Why a ``synthesis_response`` wire dict is wrong, or None if right.

    Right means: the lattice realizes the target within its don't-cares,
    and its size and lower bound equal the recorded ones.
    """
    lattice = response.get("assignment")
    if not lattice:
        return "no lattice"
    n = target["n"]
    rows, cols = lattice["rows"], lattice["cols"]
    got = realized(n, rows, cols, lattice["entries"])
    on, dc = _bits(target["on"], n), _bits(target["dc"], n)
    for m in range(1 << n):
        if on[m] and not got[m]:
            return f"minterm {m} of the onset is not realized"
        if got[m] and not (on[m] or dc[m]):
            return f"minterm {m} is realized but outside onset and don't-cares"
    if rows * cols != response["size"]:
        return "reported size differs from the lattice shape"
    if response["size"] != target["size"]:
        return f"size {response['size']} != recorded {target['size']}"
    if response["lower_bound"] != target["lb"]:
        return f"lower bound {response['lower_bound']} != recorded {target['lb']}"
    return None


# ---------------------------------------------------------- speed reference
def _reference() -> float:
    """Seconds the speed reference takes on this CPU right now."""
    n, rows, cols, entries = REFERENCE_LATTICE
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        realized(n, rows, cols, entries)
    return time.perf_counter() - start


def _helper(conn) -> None:
    while conn.recv():
        conn.send(_reference())


class Reference:
    """Times the speed reference on ``cpus`` CPUs at once: in this
    process and in one helper process per further CPU.  The slowest
    counts, because the slowest worker holds up a pooled synthesis.
    Create it before starting threads; the helpers are forked."""

    def __init__(self, cpus: int) -> None:
        context = multiprocessing.get_context("fork")
        self.expected = REFERENCE_S[cpus]
        self.helpers = []
        for _ in range(cpus - 1):
            here, there = context.Pipe()
            proc = context.Process(target=_helper, args=(there,), daemon=True)
            proc.start()
            self.helpers.append((proc, here))

    def time(self) -> float:
        for _proc, conn in self.helpers:
            conn.send(True)
        mine = _reference()
        return max([mine] + [conn.recv() for _proc, conn in self.helpers])

    def close(self) -> None:
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
