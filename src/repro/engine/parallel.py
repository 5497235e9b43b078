"""Cache-aware synthesis engine with a process pool for whole tasks.

:class:`ParallelEngine` is a drop-in :class:`~repro.core.janus.SerialProber`
replacement that adds two things without changing JANUS's answers:

* **Result caching** — probes are keyed by a canonical function signature
  (truth-table/cover hash + options fingerprint + shape, see
  :mod:`repro.engine.signature`) in a persistent on-disk
  :class:`~repro.engine.cache.ResultCache`.  On top of that sits the
  suite-level cache (:mod:`repro.engine.suite`): :meth:`synthesize`
  stores whole :class:`~repro.core.janus.SynthesisResult` records, so a
  warm run skips the bounds computation and the dichotomic loop
  entirely, not just the SAT calls.

* **Task sharding** — :meth:`imap_ordered` maps a picklable function
  over whole independent tasks (Table II instances, the requests of a
  batch) on a ``ProcessPoolExecutor`` of ``jobs`` workers and yields
  the results in input order.

One synthesis is always serial: each dichotomic step probes its
candidate shapes in order through the cache-aware :meth:`solve`, and
every probe is one :func:`~repro.core.janus.solve_lm` call on the
paper's eager encoding.  The search decides each step from the first
SAT shape in candidate order, so racing sibling shapes across the pool
pays only when spare cores outrun pickling and pool start-up; measured
on 2 CPUs it lost to serial probing, while sharding whole requests won.
``jobs=1`` never starts a pool but keeps both cache layers, which is
what the nested engines inside sharding workers use.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.core.bounds import best_upper_bound
from repro.core.janus import (
    JanusOptions,
    LmOutcome,
    SerialProber,
    SynthesisResult,
    make_spec,
    solve_lm,
)
from repro.core.janus import synthesize as _synthesize
from repro.core.target import TargetSpec
from repro.engine.cache import ResultCache
from repro.engine.events import (
    BoundComputed,
    CacheEvent,
    EngineEvent,
    EventEmitter,
    ProbeFinished,
    ProbeStarted,
    SynthesisFinished,
    SynthesisStarted,
)
from repro.engine.memcache import DEFAULT_MEMORY_ENTRIES, LruCache
from repro.engine.signature import InputTransform, lm_cache_key, npn_alias_key
from repro.engine.suite import (
    suite_cache_key,
    synthesis_from_payload,
    synthesis_payload,
)
from repro.engine.wire import (
    outcome_from_payload,
    outcome_payload,
    spec_snapshot,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "EngineStats",
    "ParallelEngine",
    "default_jobs",
    "resolve_jobs",
]


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per *available*
    CPU.

    ``os.cpu_count()`` reports the machine, not the process: inside a
    cgroup-limited container or under a CPU affinity mask it overstates
    what we can actually use, and oversubscribing a single granted CPU
    with one worker per physical core only adds scheduling overhead.
    ``os.sched_getaffinity`` reflects both limits where the platform
    supports it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """The worker count a requested ``jobs`` means, on every surface
    (engine, session, session pool, suite runner, ``--jobs``):
    0 or None is :func:`default_jobs`, a negative count is 1."""
    if not jobs:
        return default_jobs()
    return max(1, int(jobs))


@dataclass
class EngineStats:
    """Work accounting for one engine lifetime.

    ``solver_calls`` counts LM probes that actually ran a SAT solver — a
    warm-cache run keeps it at zero, which is the property the cache
    tests pin down.  ``bound_calls`` does the same for upper-bound
    computations: a warm *suite*-cache run keeps both at zero.
    """

    solver_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # Always 0 (no probe runs in the pool); perfbench/run.py still reads
    # all three.
    dispatched: int = 0
    cancelled: int = 0
    harvested: int = 0
    conflicts: int = 0  # aggregate SAT conflicts over computed probes
    bound_calls: int = 0  # upper-bound computations
    suite_hits: int = 0  # whole results served from the suite cache
    suite_misses: int = 0
    # Always 0 (nothing is prefetched); perfbench/run.py still reads both.
    speculated: int = 0
    speculative_hits: int = 0
    memory_hits: int = 0  # cache hits served by the in-process LRU layer
    memory_misses: int = 0  # LRU lookups that fell through to disk
    # --- solver-level counters ---
    propagations: int = 0  # aggregate SAT propagations over computed probes
    solver_restarts: int = 0  # solver restarts performed by computed probes
    # Always 0 (every probe is a one-shot solve); perfbench/run.py still
    # reads both.
    reuse_hits: int = 0
    pruned_shapes: int = 0
    restarts_avoided: int = 0  # restarts a cold re-solve of a cache hit
    # would have repeated (the hit's recorded restart count)
    npn_hits: int = 0  # suite results served via NPN-class aliasing
    # propagation-core name -> number of computed probes it served
    cores: dict = field(default_factory=dict)

    def merge(self, other: dict) -> None:
        """Fold a stats snapshot (``dataclasses.asdict`` form) into self."""
        for field_name, value in other.items():
            if not hasattr(self, field_name):
                continue
            current = getattr(self, field_name)
            if isinstance(current, dict):
                for key, count in (value or {}).items():
                    current[key] = current.get(key, 0) + count
            else:
                setattr(self, field_name, current + value)


class ParallelEngine(SerialProber):
    """Cache-aware LM probe backend for JANUS, plus a task pool.

    Use as a context manager (the process pool, once
    :meth:`imap_ordered` starts it, holds OS resources)::

        with ParallelEngine(jobs=4, cache="~/.cache/janus") as engine:
            result = engine.synthesize("ab + a'b'c")

    ``suite`` controls
    the whole-result cache layer in :meth:`synthesize` (on by default
    whenever ``cache`` is set; turn it off to benchmark the probe cache
    in isolation).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Union[ResultCache, str, Path, None] = None,
        suite: bool = True,
        memory: Optional[int] = None,
        events: Optional[Callable[[EngineEvent], None]] = None,
        npn: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.suite = suite
        self.npn = npn
        self.stats = EngineStats()
        # In-memory LRU above the on-disk cache: hot intra-run repeats
        # skip the file open + JSON parse.  ``memory`` is an entry count
        # (0 disables); without a disk cache there is nothing to layer
        # over, so the LRU stays off and probe semantics are unchanged.
        if memory is None:
            memory = DEFAULT_MEMORY_ENTRIES
        self.memory: Optional[LruCache] = (
            LruCache(memory) if (cache is not None and memory > 0) else None
        )
        self.events = EventEmitter(events)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------- plumbing
    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        if self.jobs <= 1 or self._closed:
            return None
        if self._executor is None:
            # Imported here: a jobs=1 engine never pays for the pool stack.
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._closed = True

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- cache
    def _cacheable(self, payload: dict, options: JanusOptions) -> bool:
        if payload["status"] in ("sat", "unsat"):
            return True
        # A budget "unknown" is only reproducible when the budget is a
        # deterministic conflict count, not a wall clock.
        return options.lm_time_limit is None

    def _suite_cacheable(
        self, result: SynthesisResult, options: JanusOptions
    ) -> bool:
        """Whole results follow the same reproducibility policy as probes:
        a search whose decisions rested on a wall-clock "unknown" (probe
        treated as unrealizable because *this machine* ran out of time)
        must not be frozen into the cache."""
        if options.lm_time_limit is None:
            return True
        return not any(a.status == "unknown" for a in result.attempts)

    def _payload_get(
        self, key: str, name: str, emit: bool = True
    ) -> Optional[dict]:
        """Layered lookup: in-process LRU first, then the on-disk cache.

        Disk hits are promoted into the LRU so the next intra-run repeat
        is a dict lookup.  Emits one :class:`CacheEvent` per lookup,
        tagged with the layer that answered (or ``disk``/miss); callers
        that emit their own per-lookup event (the suite layer) pass
        ``emit=False`` so a lookup never produces two events.
        """
        if self.memory is not None:
            payload = self.memory.get(key)
            if payload is not None:
                self.stats.memory_hits += 1
                if emit and self.events:
                    self.events.emit(CacheEvent(name, "memory", True, key))
                return payload
            self.stats.memory_misses += 1
        if self.cache is None:
            return None
        payload = self.cache.get(key)
        if payload is not None and self.memory is not None:
            self.memory.put(key, payload)
        if emit and self.events:
            self.events.emit(CacheEvent(name, "disk", payload is not None, key))
        return payload

    def _cache_get(
        self, key: str, spec: TargetSpec, options: JanusOptions
    ) -> Optional[LmOutcome]:
        if self.cache is None:
            return None
        payload = self._payload_get(key, spec.name)
        if payload is None:
            self.stats.cache_misses += 1
            return None
        self.stats.cache_hits += 1
        outcome = outcome_from_payload(payload, spec, cached=True)
        # A cold re-solve of this probe would have repeated the recorded
        # restart schedule; the hit skips it.
        self.stats.restarts_avoided += outcome.attempt.restarts
        return outcome

    def _cache_put(
        self, key: str, payload: dict, options: JanusOptions
    ) -> None:
        if self.cache is not None and self._cacheable(payload, options):
            self.cache.put(key, payload)
            if self.memory is not None:
                self.memory.put(key, payload)

    # ---------------------------------------------------------------- events
    def _probe_started(self, spec: TargetSpec, rows: int, cols: int) -> None:
        if self.events:
            self.events.emit(ProbeStarted(spec.name, rows, cols))

    def _probe_finished(self, spec: TargetSpec, outcome: LmOutcome) -> None:
        if self.events:
            a = outcome.attempt
            self.events.emit(
                ProbeFinished(
                    spec.name,
                    a.rows,
                    a.cols,
                    outcome.status,
                    conflicts=a.conflicts,
                    wall_time=a.wall_time,
                    cached=a.cached,
                    side=a.side,
                )
            )

    # ---------------------------------------------------------------- probes
    def _record(self, outcome: LmOutcome) -> LmOutcome:
        self.stats.solver_calls += 1
        attempt = outcome.attempt
        self.stats.conflicts += attempt.conflicts
        self.stats.propagations += attempt.propagations
        self.stats.solver_restarts += attempt.restarts
        if attempt.status != "structural":
            # Structural prechecks decide without constructing a solver,
            # so no propagation core served them — keep them out of the
            # capacity tally.
            core = attempt.core
            self.stats.cores[core] = self.stats.cores.get(core, 0) + 1
        return outcome

    def solve(
        self,
        spec: TargetSpec,
        rows: int,
        cols: int,
        options: JanusOptions,
    ) -> LmOutcome:
        """One cache-aware probe; the inherited
        :meth:`~repro.core.janus.SerialProber.first_sat` calls it for each
        candidate shape in order."""
        key = lm_cache_key(spec, rows, cols, options)
        hit = self._cache_get(key, spec, options)
        if hit is not None:
            self._probe_finished(spec, hit)
            return hit
        self._probe_started(spec, rows, cols)
        outcome = solve_lm(spec, rows, cols, options)
        self._record(outcome)
        self._cache_put(key, outcome_payload(outcome, spec), options)
        self._probe_finished(spec, outcome)
        return outcome

    # ---------------------------------------------------------------- bounds
    def upper_bounds(self, spec: TargetSpec, methods: tuple[str, ...]):
        """The serial bound constructions, counted and reported as
        :class:`BoundComputed` events."""
        self.stats.bound_calls += 1
        best, all_bounds = best_upper_bound(spec, methods)
        self._bounds_computed(spec, all_bounds)
        return best, all_bounds

    def _bounds_computed(self, spec: TargetSpec, all_bounds: dict) -> None:
        if self.events:
            for method, bound in all_bounds.items():
                self.events.emit(
                    BoundComputed(
                        spec.name, method, bound.rows, bound.cols, bound.size
                    )
                )

    # ---------------------------------------------------------------- driver
    def synthesize(
        self,
        target,
        name: str = "f",
        options: JanusOptions = JanusOptions(),
    ) -> SynthesisResult:
        """Run JANUS with this engine as the probe backend.

        With a cache attached (and ``suite=True``), the whole
        :class:`SynthesisResult` is persisted under the spec+options
        fingerprint: a warm call returns the stored result without
        recomputing bounds or entering the dichotomic loop at all.
        """
        spec = make_spec(target, name=name, exact=options.exact_minimization)
        if self.events:
            self.events.emit(SynthesisStarted(spec.name, "eager"))
        key = None
        if self.cache is not None and self.suite:
            start = time.monotonic()
            key = suite_cache_key(spec, options)
            payload = self._payload_get(key, spec.name, emit=False)
            if self.events:
                self.events.emit(
                    CacheEvent(spec.name, "suite", payload is not None, key)
                )
            if payload is not None:
                result = synthesis_from_payload(payload, spec)
                if result is not None:
                    self.stats.suite_hits += 1
                    result.wall_time = time.monotonic() - start
                    self._synthesis_finished(spec, result, from_cache=True)
                    return result
            # The n!*2^n canonicalization is computed once and shared by
            # the lookup below and the store after the solve.
            alias = self._npn_alias(spec, options)
            result = self._npn_lookup(spec, alias, key, start)
            if result is not None:
                self._synthesis_finished(spec, result, from_cache=True)
                return result
            self.stats.suite_misses += 1
        result = _synthesize(spec, name=name, options=options, prober=self)
        if key is not None and self._suite_cacheable(result, options):
            payload = synthesis_payload(result)
            self.cache.put(key, payload)
            if self.memory is not None:
                self.memory.put(key, payload)
            self._npn_store(alias, key)
        self._synthesis_finished(spec, result)
        return result

    def has_result(self, spec: TargetSpec, options: JanusOptions) -> bool:
        """Whether :meth:`synthesize` holds this spec's whole result under
        its exact suite key, in the LRU or on disk.  Counts, emits and
        promotes nothing; an NPN alias is not looked up."""
        if self.cache is None or not self.suite:
            return False
        key = suite_cache_key(spec, options)
        return (self.memory is not None and key in self.memory) or (
            key in self.cache
        )

    # ----------------------------------------------------------- NPN aliases
    def _npn_alias(self, spec: TargetSpec, options: JanusOptions):
        if not self.npn or self.cache is None:
            return None
        return npn_alias_key(spec, options)

    def _npn_store(self, alias, exact_key: str) -> None:
        """Publish this spec's suite entry under its NP-class alias so an
        equivalent function (same class, different input labels or
        polarities) can share it."""
        if alias is None:
            return
        alias_key, transform = alias
        self.cache.put(alias_key, {
            "kind": "npn-alias",
            "exact_key": exact_key,
            "perm": list(transform.perm),
            "mask": transform.mask,
        })

    def _npn_lookup(
        self, spec: TargetSpec, alias, exact_key: str, start: float
    ) -> Optional[SynthesisResult]:
        """Serve a whole result from an NP-equivalent donor's suite entry.

        The donor's lattice is relabeled through the composite transform
        (donor -> canonical -> this spec) and the rebuilt assignment is
        re-verified against this spec before it is trusted — a failed
        verification degrades to a plain miss.  A verified hit is
        republished under this spec's own exact suite key, so repeats
        skip the pointer chase and re-verification entirely.
        """
        if alias is None:
            return None
        alias_key, to_canonical = alias
        pointer = self._payload_get(alias_key, spec.name, emit=False)
        hit = pointer is not None and pointer.get("kind") == "npn-alias"
        if self.events:
            self.events.emit(CacheEvent(spec.name, "npn", hit, alias_key))
        if not hit:
            return None
        donor_payload = self._payload_get(
            pointer["exact_key"], spec.name, emit=False
        )
        if donor_payload is None or donor_payload.get("assignment") is None:
            return None
        donor_to_canonical = InputTransform(
            tuple(pointer["perm"]), pointer["mask"]
        )
        composite = to_canonical.inverse().compose(donor_to_canonical)
        payload = dict(donor_payload)
        payload["assignment"] = dict(donor_payload["assignment"])
        payload["assignment"]["entries"] = [
            list(composite.apply_entry(var, positive))
            for var, positive in donor_payload["assignment"]["entries"]
        ]
        result = synthesis_from_payload(payload, spec)
        if result is None or not spec.accepts(
            result.assignment.realized_truthtable()
        ):
            return None
        self.stats.suite_hits += 1
        self.stats.npn_hits += 1
        payload["spec"] = spec_snapshot(spec)
        self.cache.put(exact_key, payload)
        if self.memory is not None:
            self.memory.put(exact_key, payload)
        result.wall_time = time.monotonic() - start
        return result

    def _synthesis_finished(
        self, spec: TargetSpec, result: SynthesisResult, from_cache: bool = False
    ) -> None:
        if self.events:
            self.events.emit(
                SynthesisFinished(
                    spec.name,
                    result.rows,
                    result.cols,
                    result.size,
                    result.wall_time,
                    from_cache=from_cache,
                )
            )

    def imap_ordered(self, fn: Callable, items: Iterable) -> Iterator:
        """Apply a picklable function across the pool, yielding results in
        input order as they become available.

        Every task is submitted before this returns, so the caller can
        work while they run.  Falls back to a lazy serial map when the
        engine has no pool: ordering is deterministic either way.
        """
        pool = self._pool
        if pool is None:
            return map(fn, items)
        return pool.map(fn, items, chunksize=1)

    def __repr__(self) -> str:
        cache = self.cache.root if self.cache is not None else None
        return (
            f"ParallelEngine(jobs={self.jobs}, cache={str(cache)!r})"
        )
