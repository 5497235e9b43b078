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
import itertools
import json
from dataclasses import asdict
from typing import Optional

from repro.boolf.truthtable import _flip
from repro.core.janus import JanusOptions
from repro.core.target import TargetSpec
from repro.engine.wire import _tt_hex  # shared bit packing with spec snapshots

__all__ = [
    "spec_fingerprint",
    "options_fingerprint",
    "lm_cache_key",
    "InputTransform",
    "npn_canonical",
    "npn_alias_key",
]

# Bump when the encoding or solver behavior changes.  v2: the canonical
# ``solver_config`` block joined options_fingerprint, so differently
# tuned runs key differently (and pre-config cache entries are retired).
_KEY_VERSION = 2

# Exact canonicalization enumerates n! * 2^n input transforms; beyond
# this input count the enumeration costs more than a cache miss.
NPN_MAX_INPUTS = 6


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
    """Every option that can influence an LM probe's outcome."""
    fp = asdict(options)  # recurses into EncodeOptions and SolverConfig
    # ub_methods / ds_depth steer the *driver*, not a single LM probe, but
    # they are cheap to include and make the key reusable for whole-run
    # caching later; keep them.
    fp["ub_methods"] = list(fp["ub_methods"])
    fp["sides"] = list(fp["sides"])
    # The CDCL tuning block, under its wire-schema name: every
    # SolverConfig field participates in the key, so two differently
    # tuned runs can never collide in the probe/suite caches.
    fp["solver_config"] = fp.pop("solver")
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
        "options": options_fingerprint(options),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def describe_key(key: str) -> Optional[str]:
    """Short display form of a cache key (for logs and CLI output)."""
    return key[:12] if key else None


# ------------------------------------------------------ NPN-class aliasing
class InputTransform:
    """An input permutation plus per-input polarity flips.

    Acting on a function: ``(t . f)(y) = f(x)`` with
    ``x[i] = y[perm[i]] ^ bit(mask, i)`` — variable ``i`` of the original
    becomes variable ``perm[i]`` of the transformed function, negated
    when mask bit ``i`` is set.  Acting on a lattice assignment: the
    literal entry ``(i, pos)`` becomes ``(perm[i], pos ^ bit(mask, i))``
    and constants are untouched, which is exactly why this class of
    transforms (and not output complementation, whose effect on a
    lattice is the nontrivial duality theorem) is used for cache
    aliasing: an assignment realizing ``f`` converts to one realizing
    ``t . f`` by relabeling cells.
    """

    __slots__ = ("perm", "mask")

    def __init__(self, perm: tuple[int, ...], mask: int) -> None:
        self.perm = tuple(perm)
        self.mask = mask

    def __repr__(self) -> str:
        return f"InputTransform(perm={self.perm}, mask={self.mask:#x})"

    def apply_tt(self, tt):
        """Transform a :class:`~repro.boolf.truthtable.TruthTable`."""
        return tt.flip_inputs(self.mask).permute(self.perm)

    def apply_entry(self, var: Optional[int], positive: bool):
        """Transform one ``(var, positive)`` assignment entry."""
        if var is None:
            return None, positive
        return self.perm[var], positive ^ bool((self.mask >> var) & 1)

    def inverse(self) -> "InputTransform":
        n = len(self.perm)
        inv = [0] * n
        for i, p in enumerate(self.perm):
            inv[p] = i
        mask = 0
        for j in range(n):
            if (self.mask >> inv[j]) & 1:
                mask |= 1 << j
        return InputTransform(tuple(inv), mask)

    def compose(self, other: "InputTransform") -> "InputTransform":
        """``self . other``: apply ``other`` first, then ``self``.

        On entries: ``(self . other).apply_entry == self.apply_entry
        after other.apply_entry``.
        """
        perm = tuple(self.perm[p] for p in other.perm)
        mask = other.mask
        for i in range(len(perm)):
            if (self.mask >> other.perm[i]) & 1:
                mask ^= 1 << i
        return InputTransform(perm, mask)


def npn_canonical(spec: TargetSpec) -> Optional[tuple[dict, InputTransform]]:
    """Canonical representative of the spec's NP class, with the
    transform reaching it.

    Exhausts every input permutation and polarity pattern (``n! * 2^n``
    candidates, gated to ``n <= NPN_MAX_INPUTS``) and picks the
    lexicographically smallest ``(onset bits, don't-care bits)``
    rendering.  Returns ``(canonical fingerprint dict, t)`` with
    ``t . spec == canonical``, or ``None`` for inputs too wide to
    canonicalize.  Output complementation is deliberately excluded (see
    :class:`InputTransform`), so this is the NP subgroup of the NPN
    classification: equivalent benchmark functions that differ only by
    input renaming/negation share one canonical form.
    """
    n = spec.num_inputs
    if n > NPN_MAX_INPUTS:
        return None
    nbytes = ((1 << n) + 7) // 8
    # Per permutation, walk the 2^n polarity masks in Gray-code order so
    # each step is one input flip of the permuted tables.  Flipping new
    # variable perm[i] toggles bit i of the transform's mask.
    best: Optional[tuple] = None
    best_t: Optional[InputTransform] = None
    for perm in itertools.permutations(range(n)):
        owner = [0] * n
        for i, p in enumerate(perm):
            owner[p] = i
        tt_bits = spec.tt.permute(perm).bits
        dc_bits = spec.dc.permute(perm).bits if spec.dc is not None else None
        mask = 0
        for step in range(1 << n):
            if step:
                var = (step & -step).bit_length() - 1
                mask ^= 1 << owner[var]
                tt_bits = _flip(tt_bits, var, n)
                if dc_bits is not None:
                    dc_bits = _flip(dc_bits, var, n)
            tt_key = tt_bits.to_bytes(nbytes, "little")
            if best is not None and tt_key > best[0]:
                continue
            key = (
                tt_key,
                dc_bits.to_bytes(nbytes, "little") if dc_bits is not None else b"",
                perm,
                mask,
            )
            if best is None or key < best:
                best = key
                best_t = InputTransform(perm, mask)
    assert best is not None and best_t is not None
    fingerprint = {
        "num_vars": n,
        "tt": best[0].hex(),
        "dc": best[1].hex() if best[1] else None,
    }
    return fingerprint, best_t


def npn_alias_key(
    spec: TargetSpec,
    options: JanusOptions,
) -> Optional[tuple[str, InputTransform]]:
    """(alias cache key, transform-to-canonical) for suite-entry sharing
    across NP-equivalent specs, or ``None`` when not canonicalizable."""
    canonical = npn_canonical(spec)
    if canonical is None:
        return None
    fingerprint, transform = canonical
    payload = {
        "v": _KEY_VERSION,
        "kind": "npn-alias",
        "mode": "eager",
        "spec": fingerprint,
        "options": options_fingerprint(options),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), transform
