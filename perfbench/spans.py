"""Outside-in tracing: spans around the program's public functions.

The benchmark never edits the program.  :func:`install` replaces public
functions and methods *at the bindings their callers use* (a method on
its class, a function in the module that imported it by name) with
wrappers that record into a :class:`Recorder`.  A target that no longer
exists is reported as an unmeasured layer, not an error, so later changes
that delete a shim or a front-end leave the benchmark running.

Each wrapped call opens a frame on a per-thread stack.  When it closes,
its duration is charged to its layer, its self time is the duration
minus the time its child frames covered, and its duration is added to
its parent's child coverage.  Spans of the coarse layers are also kept
in memory (name, start, end, parent, request id) and written out when
the run ends; the hot leaves (clause ingest, cache lookups, key
hashing) are only aggregated, because a span per call would cost more
memory than the run itself.

All times come from ``time.perf_counter``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

class _Frame:
    __slots__ = ("kept", "child")

    def __init__(self, kept: int) -> None:
        self.kept = kept  # index in Recorder.spans of the nearest kept span
        self.child = 0.0  # seconds covered by child frames


class Recorder:
    """Per-layer aggregates plus the kept spans of one process."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[list] = []  # [name, start, end, parent, rid]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.unmeasured: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_rid = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.rid = -1
        return stack

    def call(self, layer: str, keep: bool, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a frame charged to ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if not stack:
            with self._lock:
                self._next_rid += 1
                self._local.rid = self._next_rid
        index = -1
        parent = stack[-1].kept if stack else -1
        start = time.perf_counter()
        if keep:
            span = [layer, start, None, parent, self._local.rid]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
        frame = _Frame(index if keep else parent)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if index >= 0:
                self.spans[index][2] = end
            if stack:
                stack[-1].child += duration
            with self._lock:
                self.calls[layer] += 1
                self.total[layer] += duration
                self.self_time[layer] += duration - frame.child

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.calls.clear()
            self.total.clear()
            self.self_time.clear()
            self.counters.clear()

    def summary(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total),
                "self_s": dict(self.self_time),
                "counters": dict(self.counters),
                "unmeasured": list(self.unmeasured),
                "spans": len(self.spans),
            }

    def dump(self, path: str) -> None:
        """Write the aggregates and every kept span as JSON."""
        with self._lock:
            spans = [list(s) for s in self.spans]
        payload = {"summary": self.summary(), "spans": spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


# ------------------------------------------------------------ counter hooks
# A hook turns one wrapped call's result into counter increments.
def _hit(rec: "Recorder", layer: str, result) -> None:
    if result is not None:
        rec.count(layer + ".hits")


def _clauses(rec: "Recorder", layer: str, result) -> None:
    # best_encoding returns (chosen encoding, encodings built).
    _chosen, built = result
    for enc in built:
        rec.count("core.encodings")
        if enc.cnf is not None:
            rec.count("core.clauses", len(enc.cnf.clauses))


# (layer, module, qualified attribute, keep spans, counter hook)
TARGETS: tuple[tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("server.handle", "repro.server.core", "ServiceCore.handle", True, None),
    ("server.pool_wait", "repro.server.pool", "SessionPool.acquire", True, None),
    ("api.parse", "repro.api.schema", "SynthesisRequest.from_json", True, None),
    ("api.to_spec", "repro.api.schema", "SynthesisRequest.to_spec", True, None),
    ("api.stats", "repro.api.session", "Session.stats", False, None),
    ("api.serialize", "repro.api.schema", "SynthesisResponse.to_json", True, None),
    ("boolf.minimize", "repro.core.target", "minimize", False, None),
    ("engine.suite_key", "repro.engine.parallel", "suite_cache_key", False, None),
    ("engine.probe_key", "repro.engine.parallel", "lm_cache_key", False, None),
    ("engine.memory_get", "repro.engine.memcache", "LruCache.get", False, _hit),
    ("engine.disk_get", "repro.engine.cache", "ResultCache.get", False, _hit),
    ("engine.disk_put", "repro.engine.cache", "ResultCache.put", False, None),
    ("engine.pool_close", "repro.engine.parallel", "ParallelEngine.close", True, None),
    ("core.bounds", "repro.engine.parallel", "ParallelEngine.upper_bounds", True, None),
    ("core.ds_bound", "repro.core.decompose", "ub_ds", True, None),
    ("core.encode", "repro.core.janus", "best_encoding", True, _clauses),
    ("sat.ingest", "repro.sat.solver", "CdclSolver.add_clause", False, None),
    ("sat.search", "repro.sat.solver", "CdclSolver.solve", True, None),
    ("lattice.verify", "repro.lattice.assignment",
     "LatticeAssignment.realized_truthtable", True, None),
)


def _wrap(rec: Recorder, layer: str, keep: bool, hook: Optional[Callable],
          fn: Callable) -> Callable:
    if layer == "sat.search":
        # Propagations and conflicts are read off the solver's own
        # lifetime counters, before and after the call.
        @functools.wraps(fn)
        def search(solver, *args, **kwargs):
            if not rec.enabled:
                return fn(solver, *args, **kwargs)
            st = solver.stats
            p0, c0 = st.propagations, st.conflicts
            try:
                return rec.call(layer, keep, fn, solver, *args, **kwargs)
            finally:
                rec.count("sat.propagations", solver.stats.propagations - p0)
                rec.count("sat.conflicts", solver.stats.conflicts - c0)

        return search

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(layer, keep, fn, *args, **kwargs)
        if hook is not None and rec.enabled:
            hook(rec, layer, result)
        return result

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Wrap every target; returns (and records) the layers whose target
    could not be found."""
    for layer, module_name, qualname, keep, hook in TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
        except (ImportError, AttributeError, KeyError):
            rec.unmeasured.append(layer)
            continue
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(rec, layer, keep, hook, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(_wrap(rec, layer, keep, hook, raw.__func__))
        elif isinstance(raw, property):
            new = property(_wrap(rec, layer, keep, hook, raw.fget),
                           raw.fset, raw.fdel, raw.__doc__)
        elif callable(raw):
            new = _wrap(rec, layer, keep, hook, raw)
        else:
            rec.unmeasured.append(layer)
            continue
        setattr(owner, attr, new)
    return rec.unmeasured
