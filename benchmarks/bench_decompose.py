"""Decomposition baselines vs plain JANUS ([8] D-reducible, [10]
autosymmetric).

The related-work methods shrink the lattice at the price of external
EXOR logic.  Each bench synthesizes the same target three ways and
records lattice sizes and gate counts, reproducing the qualitative
claim in the paper's Section II-B: decomposition helps exactly when the
function has the right structure.
"""

from __future__ import annotations

import pytest

from repro.boolf import TruthTable
from repro.core import (
    JanusOptions,
    make_spec,
    synthesize,
    synthesize_autosymmetric,
    synthesize_dreducible,
)

OPTIONS = JanusOptions(max_conflicts=40_000)


def structured_target() -> TruthTable:
    """(a^b)(c^d)e — autosymmetric (k=2) and D-reducible."""
    return TruthTable.from_function(
        lambda x: (x[0] ^ x[1]) and (x[2] ^ x[3]) and x[4], 5
    )


def unstructured_target() -> TruthTable:
    """Majority-of-5: neither autosymmetric nor D-reducible."""
    return TruthTable.from_values(
        [bin(m).count("1") >= 3 for m in range(32)], 5
    )


TARGETS = {
    "structured": structured_target,
    "unstructured": unstructured_target,
}


@pytest.mark.parametrize("kind", sorted(TARGETS))
@pytest.mark.parametrize("method", ["janus", "autosymmetric", "dreducible"])
def bench_decompose(benchmark, kind, method):
    tt = TARGETS[kind]()

    def run():
        if method == "janus":
            result = synthesize(make_spec(tt, name=kind), options=OPTIONS)
            return result.size, 0
        if method == "autosymmetric":
            result = synthesize_autosymmetric(tt, options=OPTIONS, name=kind)
            return result.lattice_size, result.num_exor_gates
        result = synthesize_dreducible(tt, options=OPTIONS, name=kind)
        return result.lattice_size, result.num_exor_gates

    size, gates = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["lattice_size"] = size
    benchmark.extra_info["exor_gates"] = gates
    if kind == "structured" and method != "janus":
        # The engineered target must show a decomposition win.
        assert size <= 6
