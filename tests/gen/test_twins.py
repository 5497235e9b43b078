"""SAT/UNSAT twin construction: frontier pairs, proved and reproducible."""

from __future__ import annotations

from repro.core.janus import JanusOptions, solve_lm, synthesize
from repro.gen import make_family, make_twins


def test_twins_bracket_the_frontier():
    family = make_family("random-tt", 1)
    spec = family.sample(2)
    options = JanusOptions(max_conflicts=50_000)
    pair = make_twins(spec, family.rng(2, stream=1), options=options)
    assert pair.sat.name.endswith("+sat")
    assert pair.unsat.name.endswith("+unsat")
    assert pair.shape == f"{pair.rows}x{pair.cols}"
    # The SAT twin is the sampled function at its minimal shape; the
    # UNSAT twin is one minterm away and provably unrealizable there.
    base = synthesize(spec, name=spec.name, options=options)
    assert (pair.rows, pair.cols) == (base.rows, base.cols)
    assert solve_lm(pair.sat, pair.rows, pair.cols, options).status == "sat"
    assert (
        solve_lm(pair.unsat, pair.rows, pair.cols, options).status == "unsat"
    )


def test_twins_are_reproducible():
    family = make_family("pla-cover", 0)
    spec = family.sample(1)
    a = make_twins(spec, family.rng(1, stream=1))
    b = make_twins(spec, family.rng(1, stream=1))
    assert a.sat.tt.key() == b.sat.tt.key()
    assert a.unsat.tt.key() == b.unsat.tt.key()
    assert (a.rows, a.cols) == (b.rows, b.cols)
    # The twin stream (stream=1) never perturbs the sampling stream.
    assert family.sample(1).tt.key() == spec.tt.key()
