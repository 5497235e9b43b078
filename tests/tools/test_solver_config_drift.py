"""Drift tripwire: SolverConfig fields vs cache keys vs documentation.

A new knob on :class:`repro.sat.solver.SolverConfig` only works end to
end when it (a) participates in the probe cache key — otherwise two
differently-tuned runs can serve each other stale answers — and (b) is
documented in the wire schema page, which the janalyze wire-schema
checker gates on.  This test fails the moment a field is added to the
dataclass without both.
"""

from __future__ import annotations

import dataclasses

from repro.core.janus import JanusOptions
from repro.engine.signature import options_fingerprint
from repro.engine.wire import solver_config_to_wire
from repro.sat.solver import SOLVER_PRESETS, SolverConfig


def config_field_names() -> set[str]:
    return {f.name for f in dataclasses.fields(SolverConfig)}


def test_every_field_reaches_the_options_fingerprint():
    fingerprint = options_fingerprint(JanusOptions())
    assert "solver_config" in fingerprint
    assert set(fingerprint["solver_config"]) == config_field_names()


def test_every_field_reaches_the_wire_block():
    # Any non-default config serializes every field explicitly; a field
    # missing from the dict literal would silently drop its tuning on
    # the wire (and the janalyze harvest of that literal would miss it).
    tuned = dataclasses.replace(SolverConfig(), restart_base=7)
    assert set(solver_config_to_wire(tuned)) == config_field_names()


def test_every_field_is_documented(repo_root):
    import re

    doc = (repo_root / "docs" / "wire-schema.md").read_text(encoding="utf-8")
    words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", doc))
    missing = config_field_names() - words
    assert not missing, (
        f"SolverConfig fields undocumented in docs/wire-schema.md: "
        f"{sorted(missing)}"
    )
    # The block name itself is part of the schema.
    assert "solver_config" in words


def test_every_preset_is_documented(repo_root):
    import re

    readme = (repo_root / "README.md").read_text(encoding="utf-8")
    words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", readme))
    missing = set(SOLVER_PRESETS) - words
    assert not missing, (
        f"solver presets missing from the README tuning section: "
        f"{sorted(missing)}"
    )
