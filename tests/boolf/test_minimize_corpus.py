"""Golden cover corpus: the minimizer's exact output bytes, pinned by digest.

Every cover is rendered canonically as ``[[pos, neg], ...]`` in the order
``minimize`` returns its cubes, and a SHA-256 over the whole section is
compared with the digest pinned below.  A change to the prime generator,
the covering solver or the literal-count preference that alters any cover
(not just its size) changes the digest.

The tier-1 corpus is every 3-input function, seeded 4/5/6-input samples
with and without don't-cares, heuristic (``exact=False``) covers of a
sample, and the Table II specs except ``mp2d_03``/``mp2d_04`` — each with
its dual, built the way ``TargetSpec.from_truthtable`` builds it.

Run as a script for the long sweep as well: all 65,536 4-input functions
and their duals, plus the ``mp2d_03``/``mp2d_04`` specs::

    PYTHONPATH=src python tests/boolf/test_minimize_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from typing import Iterator, Optional

import pytest

from repro.boolf.minimize import minimize
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable

TIER1_DIGESTS = {
    "all-3-input": (
        "3213954c8ba15661a826221943622e98"
        "61ab15092169e1b36fb193eab94d3950"
    ),
    "samples": (
        "f9c895088ba2a676b6ff3cf6e14e1ef3"
        "91205e3b9a6d89c02223bd292525699f"
    ),
    "heuristic": (
        "c7866ef8fe1f5632fd1b5a2b85c60918"
        "df0d54df04e40d03dfb5981ad7284e0c"
    ),
    "table2": (
        "fd7638b52723cb90d179960241ba8bbb"
        "8caec7f55fae92fa4b844b07bc38d5dd"
    ),
}

SWEEP_DIGESTS = {
    "all-4-input": (
        "502e9627b667656a453bf1617ca5576b"
        "ac96040280d2574fa14e5ec01dc4006b"
    ),
    "mp2d-wide": (
        "0ad94afeaf6f4b5fb128b5aecccbe260"
        "f63692cd72beb63338ef8dd78be0f412"
    ),
}

_WIDE_INSTANCES = ("mp2d_03", "mp2d_04")


def canonical(sop: Sop) -> list[list[int]]:
    return [[cube.pos, cube.neg] for cube in sop.cubes]


def digest(covers: Iterator[list[list[int]]]) -> str:
    h = hashlib.sha256()
    for cover in covers:
        h.update(json.dumps(cover, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _with_dual(
    tt: TruthTable, dc: Optional[TruthTable] = None, exact: bool = True
) -> Iterator[list[list[int]]]:
    """The cover and its dual's cover, as ``TargetSpec.from_truthtable``
    computes them."""
    cover = minimize(tt, dc, exact=exact)
    yield canonical(cover)
    dual = tt.dual() if dc is None else cover.to_truthtable().dual()
    yield canonical(minimize(dual, exact=exact))


def _random_function(
    rng: random.Random, num_vars: int, with_dc: bool
) -> tuple[TruthTable, Optional[TruthTable]]:
    size = 1 << num_vars
    on = rng.getrandbits(size)
    if not with_dc:
        return TruthTable(on, num_vars), None
    dc = rng.getrandbits(size) & rng.getrandbits(size) & ~on
    return TruthTable(on, num_vars), TruthTable(dc, num_vars)


def all_3_input() -> Iterator[list[list[int]]]:
    for bits in range(1 << 8):
        yield from _with_dual(TruthTable(bits, 3))


def samples() -> Iterator[list[list[int]]]:
    rng = random.Random(2019)
    for num_vars, count in ((4, 300), (5, 200), (6, 60)):
        for k in range(count):
            tt, dc = _random_function(rng, num_vars, with_dc=k % 5 == 4)
            yield from _with_dual(tt, dc)


def heuristic() -> Iterator[list[list[int]]]:
    rng = random.Random(1984)
    for num_vars, count in ((4, 100), (5, 60), (6, 20)):
        for k in range(count):
            tt, dc = _random_function(rng, num_vars, with_dc=k % 5 == 4)
            yield from _with_dual(tt, dc, exact=False)


def _table2(names) -> Iterator[list[list[int]]]:
    from repro.bench.instances import build_instance

    for name in names:
        spec = build_instance(name)
        yield canonical(spec.isop)
        yield canonical(spec.dual_isop)


def table2() -> Iterator[list[list[int]]]:
    from repro.bench.instances import instance_names

    yield from _table2(n for n in instance_names() if n not in _WIDE_INSTANCES)


def all_4_input() -> Iterator[list[list[int]]]:
    for bits in range(1 << 16):
        yield from _with_dual(TruthTable(bits, 4))


def mp2d_wide() -> Iterator[list[list[int]]]:
    yield from _table2(_WIDE_INSTANCES)


TIER1_SECTIONS = {
    "all-3-input": all_3_input,
    "samples": samples,
    "heuristic": heuristic,
    "table2": table2,
}

SWEEP_SECTIONS = {
    "all-4-input": all_4_input,
    "mp2d-wide": mp2d_wide,
}


@pytest.mark.parametrize("section", sorted(TIER1_SECTIONS))
def test_corpus_digest(section):
    if section == "table2":
        pytest.importorskip("numpy")
    assert digest(TIER1_SECTIONS[section]()) == TIER1_DIGESTS[section]


def main() -> int:
    failed = 0
    pinned = {**TIER1_DIGESTS, **SWEEP_DIGESTS}
    for section, build in {**TIER1_SECTIONS, **SWEEP_SECTIONS}.items():
        got = digest(build())
        ok = got == pinned[section]
        failed += not ok
        print(f"{section}: {'ok' if ok else 'MISMATCH ' + got}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
