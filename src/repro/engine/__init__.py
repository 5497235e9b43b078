"""Synthesis engine: layered caching and whole-task sharding.

Architecture (one paragraph per layer):

* :mod:`repro.engine.signature` — canonical cache keys.  An LM probe is
  identified by the target's truth-table/don't-care bits and covers, the
  lattice shape, and an options fingerprint; names are excluded so
  cosmetic differences never fragment the cache.
* :mod:`repro.engine.cache` — a persistent on-disk store of JSON
  payloads (sharded directories, atomic writes), safe to share between
  concurrent processes and runs; writes degrade gracefully when the
  directory is unwritable.
* :mod:`repro.engine.suite` — the suite-level layer on top of the probe
  cache: whole :class:`~repro.core.janus.SynthesisResult` records keyed
  by spec+options fingerprint, so warm runs skip bounds computation and
  the dichotomic loop entirely.
* :mod:`repro.engine.gc` — eviction policy: age- and size-bounded GC
  plus sweeping of stale temp files (exposed as ``janus cache``).
* :mod:`repro.engine.wire` — the shared payload forms (assignments,
  attempts, probe outcomes, spec snapshots) that cache entries and API
  responses both use.
* :mod:`repro.engine.parallel` — :class:`ParallelEngine`, the
  :class:`~repro.core.janus.SerialProber` replacement that answers
  repeats from the caches and probes the rest serially, each probe one
  :func:`~repro.core.janus.solve_lm` call on the paper's eager encoding.
  Its process pool runs whole tasks only
  (:meth:`ParallelEngine.imap_ordered`): the requests of a batch.

The engine plugs into the existing entry points rather than replacing
them: ``synthesize(..., prober=engine)``,
``Session(jobs=4, cache=dir).run_batch(...)`` (which ``run_table2``
runs its Table II batch through), and the CLI's ``--jobs``/``--cache``
flags.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.engine.cache": ("ResultCache",),
    "repro.engine.events": (
        "BoundComputed", "CacheEvent", "EngineEvent", "EventEmitter",
        "ProbeFinished", "ProbeStarted", "SynthesisFinished",
        "SynthesisStarted",
    ),
    "repro.engine.gc": ("CacheStats", "GcReport", "cache_stats", "gc_cache"),
    "repro.engine.memcache": ("LruCache",),
    "repro.engine.parallel": (
        "EngineStats", "ParallelEngine", "default_jobs", "resolve_jobs",
    ),
    "repro.engine.signature": (
        "lm_cache_key", "options_fingerprint", "spec_fingerprint",
    ),
    "repro.engine.suite": (
        "suite_cache_key", "synthesis_from_payload", "synthesis_payload",
    ),
    "repro.engine.verify": ("VerifyReport", "verify_cache"),
})
