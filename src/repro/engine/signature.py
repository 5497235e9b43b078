"""Canonical function signatures and cache keys.

The persistent result cache must recognize "the same LM instance" across
runs, processes and machines.  Two probes are the same instance exactly
when they agree on

* the target function — onset truth table plus don't-care set,
* the covers JANUS encodes from (the minimized ISOP and its dual; these
  are derived deterministically from the table, but a caller may supply
  custom covers, so they are hashed rather than assumed),
* the lattice shape ``rows x cols``, and
* every option that can change the probe's answer (SAT budgets, encoding
  knobs, verification/trim flags).

Variable *names* and the target's display name are deliberately excluded:
they are cosmetic and must not fragment the cache.  Keys are SHA-256 over
a canonical JSON rendering, so they are stable across Python versions and
usable as filenames.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.janus import JanusOptions
from repro.core.target import TargetSpec
from repro.engine.wire import _tt_hex  # shared bit packing with spec snapshots

__all__ = [
    "spec_fingerprint",
    "options_fingerprint",
    "lm_cache_key",
]

# Bump when the encoding or solver behavior changes.  v2: the canonical
# ``solver_config`` block joined options_fingerprint, so differently
# tuned runs key differently (and pre-config cache entries are retired).
_KEY_VERSION = 2

# The retired ``solver_config`` block, fixed at the historical default.
# Its values are the search policy constants of ``repro.sat.solver``.
_SOLVER_CONFIG_KEY = {
    "restart_strategy": "luby",
    "restart_base": 100,
    "restart_growth": 1.5,
    "var_decay": 0.95,
    "clause_decay": 0.999,
    "phase_saving": "save",
    "reduce_base": 1000,
    "reduce_growth": 1.3,
    "max_conflicts": None,
    "max_time": None,
}


def spec_fingerprint(spec: TargetSpec) -> dict:
    """Canonical, JSON-able identity of a synthesis target."""
    return {
        "num_vars": spec.num_inputs,
        "tt": _tt_hex(spec.tt),
        "dc": _tt_hex(spec.dc) if spec.dc is not None else None,
        "isop": [[c.pos, c.neg] for c in spec.isop.cubes],
        "dual_isop": [[c.pos, c.neg] for c in spec.dual_isop.cubes],
    }


def options_fingerprint(options: JanusOptions) -> dict:
    """Every option that can influence an LM probe's outcome.

    Returns a fresh dict the caller owns; the cache keys read a memoized
    copy instead (:func:`_shared_fingerprint`).
    """
    fp = asdict(options)  # recurses into EncodeOptions
    # ub_methods / ds_depth steer the *driver*, not a single LM probe, but
    # they are cheap to include and make the key reusable for whole-run
    # caching later; keep them.
    fp["ub_methods"] = list(fp["ub_methods"])
    # The encoder's mirror-symmetry switch is gone (it was never turned
    # on); its off value stays in the key material, like ``"backend":
    # "eager"`` below, so existing keys keep matching.
    fp["encode"]["symmetry_breaking"] = False
    fp["sides"] = list(fp["sides"])
    # The CDCL search policy is fixed now; the block it was once tuned
    # by stays in the key material at its one value, so existing keys
    # keep matching.
    fp["solver_config"] = dict(_SOLVER_CONFIG_KEY)
    return fp


# repr(options) -> options_fingerprint(options), shared and never mutated.
# The repr, not the options value, is the key: equal values such as
# ``lm_time_limit=5`` and ``5.0`` render differently in the key JSON, so
# they must not share an entry.
_FINGERPRINTS: dict[str, dict] = {}
_FINGERPRINTS_MAX = 256


def _shared_fingerprint(options: JanusOptions) -> dict:
    """``options_fingerprint(options)``, computed once per options value.

    The result is shared between calls: read it (the cache keys only
    serialize it), never mutate it.
    """
    key = repr(options)
    fp = _FINGERPRINTS.get(key)
    if fp is None:
        fp = options_fingerprint(options)
        if len(_FINGERPRINTS) >= _FINGERPRINTS_MAX:
            _FINGERPRINTS.clear()
        _FINGERPRINTS[key] = fp
    return fp


def lm_cache_key(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: JanusOptions,
) -> str:
    """Stable key for one LM probe under one option set.

    ``"backend": "eager"`` stays in the key material so keys written by
    earlier releases keep matching.
    """
    payload = {
        "v": _KEY_VERSION,
        "backend": "eager",
        "spec": spec_fingerprint(spec),
        "rows": rows,
        "cols": cols,
        "options": _shared_fingerprint(options),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
