"""The synthesis and serving path runs without importing numpy.

A fresh interpreter imports :mod:`repro.api`, synthesizes a 4-input
target cold through a :class:`~repro.api.Session`, then serves the same
request warm through :meth:`repro.server.core.ServiceCore.handle`.
numpy must still be absent from ``sys.modules`` afterwards: its import
is removed from the path, not deferred to the first operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, sys, tempfile

from repro.api import Session
from repro.api.schema import SynthesisRequest
from repro.server.core import ServiceCore

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
}))
"""


def test_synthesis_and_serving_never_import_numpy():
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
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["warm_status"] == 200
    assert report["warm_size"] == report["cold_size"] == 9
    assert report["warm_suite_hits"] == 1
    assert report["numpy"] is False
