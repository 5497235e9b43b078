"""The synthesis and serving path imports only what it runs.

A fresh interpreter imports :mod:`repro.api`, synthesizes a 4-input
target cold through a :class:`~repro.api.Session`, then imports the CLI
and serves the same request warm through
:meth:`repro.server.core.ServiceCore.handle`.  numpy must still be
absent from ``sys.modules`` afterwards: its import is removed from the
path, not deferred to the first operation.  The package exports load
lazily, so the modules of off-path features (CEGAR, the baselines,
proof checking, rendering, fault models, cache GC and audit) and the
process-pool stack must stay unloaded as well.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys, tempfile

from repro.api import Session
from repro.api.schema import SynthesisRequest


def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro"))

body = json.dumps({
    "api": 1,
    "kind": "synthesis_request",
    "target": {"form": "truthtable", "num_vars": 4, "on": "4d2e", "dc": None},
    "name": "f",
    "backend": "janus",
    "options": {"max_conflicts": 60000},
})
with tempfile.TemporaryDirectory() as cache:
    with Session(jobs=1, cache=cache) as session:
        cold = session.synthesize(SynthesisRequest.from_json(body))
    api_modules = loaded()
    api_futures = "concurrent.futures" in sys.modules
    import repro.cli
    from repro.server.core import ServiceCore

    core = ServiceCore(cache=cache)
    try:
        warm = core.handle("POST", "/v1/synthesize", body.encode())
    finally:
        core.close()
served = json.loads(warm.body)
print(json.dumps({
    "cold_size": cold.result.size,
    "warm_status": warm.status,
    "warm_size": served["size"],
    "warm_suite_hits": served["stats"]["suite_hits"],
    "numpy": "numpy" in sys.modules,
    "api_modules": api_modules,
    "api_futures": api_futures,
    "serve_modules": loaded(),
    "serve_futures": "concurrent.futures" in sys.modules,
}))
"""


# Modules no cold JANUS synthesis or warm serve runs.
OFF_PATH = {
    "repro.core.baselines",
    "repro.core.cegar",
    "repro.core.multi",
    "repro.core.autosymmetric",
    "repro.core.dreducible",
    "repro.sat.drat",
    "repro.sat.dimacs",
    "repro.lattice.render",
    "repro.lattice.faults",
    "repro.lattice.count",
    "repro.lattice.function",
    "repro.lattice.symmetry",
    "repro.boolf.pla",
    "repro.boolf.gf2",
    "repro.engine.gc",
    "repro.engine.verify",
}

# repro.* modules the API path may load (61 when every package
# re-exported its whole subpackage eagerly).
API_MODULE_CEILING = 45


@pytest.fixture(scope="module")
def report() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_synthesis_and_serving_never_import_numpy(report):
    assert report["warm_status"] == 200
    assert report["warm_size"] == report["cold_size"] == 9
    assert report["warm_suite_hits"] == 1
    assert report["numpy"] is False


def test_api_path_loads_only_what_it_runs(report):
    assert sorted(OFF_PATH & set(report["api_modules"])) == []
    assert report["api_futures"] is False
    modules = report["api_modules"]
    assert len(modules) <= API_MODULE_CEILING, modules


def test_serve_path_loads_only_what_it_runs(report):
    # The CLI reads PLA files, so it may load the PLA reader.
    off_path = OFF_PATH - {"repro.boolf.pla"}
    assert sorted(off_path & set(report["serve_modules"])) == []
    assert report["serve_futures"] is False
