"""The workload universe: seeded, parameterized instance generators.

The paper's evaluation is frozen to the 48 reconstructed Table II slices
(:mod:`repro.bench.instances`); this package widens it into families of
reproducible synthetic targets with a difficulty ladder:

* :mod:`repro.gen.families` — the :class:`Family` hierarchy (random
  truth tables, PLA covers with don't-cares, autosymmetric and
  D-reducible specs, multi-output specs, fault scenarios), each with a
  ``sample(seed) -> TargetSpec`` contract;
* :mod:`repro.gen.ladder` — the numbered difficulty levels mapping to
  concrete family parameters, plus the family registry;
* :mod:`repro.gen.twins` — SAT/UNSAT twin pairs at the realizability
  frontier (realizable-at-bound spec vs. one nudged unrealizable at the
  same shape);
* :mod:`repro.gen.workload` — batch builders bridging families to the
  wire schema (``janus gen`` / ``POST /v1/batch``).

Everything here is deterministic given ``(family, level, seed)``: the
same call produces byte-identical specs in any process on any platform.
See ``docs/workloads.md``.
"""

import importlib

from repro.gen.ladder import FAMILY_KINDS, LEVELS, ladder, make_family
from repro.gen.workload import generated_specs, to_batch_request

# The family classes and twin builder draw from numpy random streams.
# They load on first use, so importing the ladder or the batch builders
# from this package stays numpy-free.
_LAZY = {
    "AutosymmetricFamily": "repro.gen.families",
    "DReducibleFamily": "repro.gen.families",
    "Family": "repro.gen.families",
    "FaultFamily": "repro.gen.families",
    "MultiOutputFamily": "repro.gen.families",
    "PlaCoverFamily": "repro.gen.families",
    "RandomTruthTableFamily": "repro.gen.families",
    "TwinPair": "repro.gen.twins",
    "make_twins": "repro.gen.twins",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "AutosymmetricFamily",
    "DReducibleFamily",
    "FAMILY_KINDS",
    "Family",
    "FaultFamily",
    "LEVELS",
    "MultiOutputFamily",
    "PlaCoverFamily",
    "RandomTruthTableFamily",
    "TwinPair",
    "generated_specs",
    "ladder",
    "make_family",
    "make_twins",
    "to_batch_request",
]
