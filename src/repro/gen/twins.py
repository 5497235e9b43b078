"""SAT/UNSAT twin pairs at the realizability frontier.

The NeuroSAT-style benchmark construction (sample until UNSAT, flip one
literal for the SAT twin) translated to lattice synthesis: synthesize a
spec to its minimal shape ``(rows, cols)`` — realizable there by
construction — then flip seeded minterms of the function until the
flipped function is *unrealizable at that same shape*.  The pair brackets
the realizability frontier exactly, which is the hardest regime for the
probe layer: one decisive SAT and one decisive UNSAT at the same bound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import SynthesisError
from repro.boolf.truthtable import TruthTable
from repro.core.target import TargetSpec
from repro.gen.families import MAX_DRAWS

__all__ = ["TwinPair", "make_twins"]


@dataclass(frozen=True)
class TwinPair:
    """A frontier pair: ``sat`` is realizable at ``rows x cols`` (it is
    the shape JANUS found minimal), ``unsat`` provably is not."""

    sat: TargetSpec
    unsat: TargetSpec
    rows: int
    cols: int

    @property
    def shape(self) -> str:
        return f"{self.rows}x{self.cols}"


def make_twins(
    spec: TargetSpec,
    rng: np.random.Generator,
    options=None,
    max_flips: int = MAX_DRAWS,
) -> TwinPair:
    """Build the twin pair for one spec.

    ``rng`` is the caller-injected stream (families provide
    ``family.rng(seed, stream=1)`` so twin construction never perturbs
    the sampling stream).  Flipped candidates are tried in stream order;
    each is checked for unrealizability at the base shape with a full
    decisive probe, so the construction is deterministic and the UNSAT
    label is a proof, not a guess.  Raises
    :class:`~repro.errors.SynthesisError` when no flip within
    ``max_flips`` breaks realizability (a sign the shape has slack —
    rare at minimal shapes).
    """
    from repro.core.janus import JanusOptions, solve_lm, synthesize

    if options is None:
        options = JanusOptions(max_conflicts=50_000)
    base = synthesize(spec, name=spec.name, options=options)
    rows, cols = base.rows, base.cols
    n = spec.num_inputs
    sat_spec = dataclasses.replace(spec, name=f"{spec.name}+sat")
    tried: set[int] = set()
    for _ in range(max_flips):
        minterm = int(rng.integers(0, 1 << n))
        if minterm in tried:
            continue
        tried.add(minterm)
        tt = TruthTable(spec.tt.bits ^ 1 << minterm, n)
        if tt.is_zero() or tt.is_one():
            continue
        twin = TargetSpec.from_truthtable(tt, name=f"{spec.name}+unsat")
        if solve_lm(twin, rows, cols, options).status == "unsat":
            return TwinPair(sat=sat_spec, unsat=twin, rows=rows, cols=cols)
    raise SynthesisError(
        f"no unsat twin for {spec.name} at {rows}x{cols} within "
        f"{max_flips} minterm flips"
    )
