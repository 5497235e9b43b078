"""Golden bytes: cache keys, wire tables and attempt traces are pinned.

Every value below was computed by the numpy-backed truth tables that
preceded the int-packed ones.  Persistent cache entries and wire
payloads written by either representation must stay interchangeable,
so a change that moves any of these bytes is a cache format change and
needs a key-version bump, not an edit here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Session
from repro.api.schema import SynthesisRequest
from repro.boolf.truthtable import TruthTable
from repro.core.janus import JanusOptions
from repro.core.target import TargetSpec
from repro.engine.signature import lm_cache_key, spec_fingerprint
from repro.engine.suite import suite_cache_key
from repro.engine.wire import _tt_from_hex, _tt_hex


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint_digest(spec: TargetSpec) -> str:
    fingerprint = spec_fingerprint(spec)
    return _digest(json.dumps(fingerprint, sort_keys=True, separators=(",", ":")))


TARGETS = {
    "n0": lambda: TargetSpec.from_truthtable(TruthTable.from_minterms([0], 0)),
    "n1": lambda: TargetSpec.from_truthtable(TruthTable.from_minterms([1], 1)),
    "n2": lambda: TargetSpec.from_truthtable(TruthTable.from_minterms([0, 3], 2)),
    "n4dc": lambda: TargetSpec.from_truthtable(
        TruthTable.from_minterms([1, 2, 7, 8, 13], 4),
        dc=TruthTable.from_minterms([0, 5, 14], 4),
    ),
    "n6": lambda: TargetSpec.from_string("ab'c + de + a'f + bcf'"),
    "n11": lambda: TargetSpec.from_string("ab + c'd + efg + hi'jk"),
}

# name: (tt hex, dc hex, sha256 of the canonical spec fingerprint,
#        suite_cache_key, lm_cache_key at 3x3)
GOLDEN = {
    "n0": (
        "01", None,
        "c29adeabfe81973f7e1f3ba3354dde473a7a01971220a728a79c5fba04e2dc5c",
        "5fd148e1ed179a3e0d0128703c218a4ad91dd83837c62a2e0242773c6555fb72",
        "9dcc1a3be4ef002f99a6359217c4a48cce689468c44d2992c3385071fd914124",
    ),
    "n1": (
        "02", None,
        "590aa863096cca4bf98371af13468f8bf84697108b26d8ceb4dfe0e1db96f7a1",
        "ff7331173087f1332e77ebbe64ff2bf3cae2ee60b68e03515ea86021717fcc96",
        "2af4075cd688d3e64d47cace0581e176264a85d7af2b6149b9276f558b319f34",
    ),
    "n2": (
        "09", None,
        "3149c66b76268c69408b374f84ea59dd117340649f58ab834ccea15da4c1e69d",
        "7739b0ce5dbc8027226d8d2d76a9a4d4b691c01ee97ecf0725d0f26452e24490",
        "53736360c9166a89022baed4c42eb9b41ae1d24ac446e887301c0d79465429a8",
    ),
    "n4dc": (
        "8621", "2140",
        "dd89c51e9fe8a7e425d6aedbe81562e0d9c753619f90b57b04608c9da05337da",
        "9a707a0c955b0e56729948629184ea59f108d8ff58e608149337913152aeefbd",
        "0ada318aadefe2582380466a9f6a5f78c2d69024efb63664f2c43b66cad672ad",
    ),
    "n6": (
        "e0e0e0ff757575ff", None,
        "85c1e64196c7819d0858dee62edd70131018b03ee860e32b8f7002077d0a6ea6",
        "e6885f8c785d7098d52d05172b899f4d7afaad86e5bb285f5f6af5f048c96332",
        "e8f17005fc7cdbe577d9353636cce8efd2193942a83c4e7e272e235034f41740",
    ),
    # 512 hex digits; pinned by their SHA-256.
    "n11": (
        "sha256:e3f66d04639f66dadc49d57f61ea8e1daafe0d000de0ead1a3d4d1df5b1d2c9e",
        None,
        "9708d805605355d1576f119ad1a452de223c4ea30e42fa13c32459f73014c0a7",
        "857a666c91e5ae3671d0d5b20e91d3ea2d599ea71d8e66dd5e944d14b9045144",
        "42e356b3ce5c1fae2273822c5c1059b34c5731043684c82276715c5da5ec1e50",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_keys_and_wire_tables_match_golden(name):
    spec = TARGETS[name]()
    tt_hex, dc_hex, fingerprint, suite, lm = GOLDEN[name]
    opts = JanusOptions()
    got_tt = _tt_hex(spec.tt)
    if tt_hex.startswith("sha256:"):
        assert "sha256:" + _digest(got_tt) == tt_hex
    else:
        assert got_tt == tt_hex
    assert (_tt_hex(spec.dc) if spec.dc is not None else None) == dc_hex
    assert _tt_from_hex(got_tt, spec.num_inputs) == spec.tt
    assert _fingerprint_digest(spec) == fingerprint
    assert suite_cache_key(spec, opts) == suite
    assert lm_cache_key(spec, 3, 3, opts) == lm


# Two recorded cold-benchmark targets, synthesized through the public API.
# Per attempt: rows, cols, status, side, complexity, conflicts,
# propagations, restarts.
TRACES = {
    (4, "4d2e", None): [
        (3, 4, "sat", "primal", 536976, 194, 5986, 1),
        (2, 5, "structural", None, 0, 0, 0, 0),
        (5, 2, "structural", None, 0, 0, 0, 0),
        (1, 10, "structural", None, 0, 0, 0, 0),
        (10, 1, "structural", None, 0, 0, 0, 0),
        (3, 3, "sat", "primal", 241059, 345, 10723, 2),
    ],
    (5, "03c333c0", "00000002"): [
        (2, 5, "structural", None, 0, 0, 0, 0),
        (5, 2, "structural", None, 0, 0, 0, 0),
        (1, 10, "structural", None, 0, 0, 0, 0),
        (10, 1, "structural", None, 0, 0, 0, 0),
        (3, 3, "sat", "primal", 204984, 330, 9972, 2),
    ],
}


@pytest.mark.parametrize("num_vars,on,dc", sorted(TRACES))
def test_attempt_traces_match_golden(tmp_path, num_vars, on, dc):
    body = json.dumps({
        "api": 1,
        "kind": "synthesis_request",
        "target": {"form": "truthtable", "num_vars": num_vars, "on": on,
                   "dc": dc},
        "name": "golden",
        "backend": "janus",
        "options": {"max_conflicts": 60000},
    })
    with Session(jobs=1, cache=tmp_path) as session:
        result = session.synthesize(SynthesisRequest.from_json(body)).result
    assert (result.rows, result.cols) == (3, 3)
    trace = [
        (a.rows, a.cols, a.status, a.side, a.complexity, a.conflicts,
         a.propagations, a.restarts)
        for a in result.attempts
    ]
    assert trace == TRACES[(num_vars, on, dc)]
