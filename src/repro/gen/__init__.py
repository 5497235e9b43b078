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

from repro._lazy import lazy_exports

# Bound eagerly: the name is also its submodule's, and importing the
# submodule later would rebind the package attribute to the module.
from repro.gen.ladder import ladder

# The family classes and twin builder draw from numpy random streams;
# like every export they load on first use, so importing the ladder or
# the batch builders from this package stays numpy-free.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.gen.ladder": ("FAMILY_KINDS", "LEVELS", "ladder", "make_family"),
    "repro.gen.workload": ("generated_specs", "to_batch_request"),
    "repro.gen.families": (
        "AutosymmetricFamily", "DReducibleFamily", "Family", "FaultFamily",
        "MultiOutputFamily", "PlaCoverFamily", "RandomTruthTableFamily",
    ),
    "repro.gen.twins": ("TwinPair", "make_twins"),
})
