"""Learned portfolio dispatch at the engine layer.

The contract from the workload-generator loop: a warmed
:class:`~repro.gen.dispatch.DispatchTable` lets portfolio mode launch a
single learned probe per shape instead of the full blind race — strictly
fewer probe launches, identical minimal sizes — and an engine (or
session) that *resolved the table path itself* persists the tallies on
close.
"""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.core.janus import JanusOptions, synthesize
from repro.gen import DispatchTable, classify, generated_specs

WORKLOAD = ("random-tt", "pla-cover")


@pytest.fixture(scope="module")
def specs():
    return generated_specs(WORKLOAD, level=1, base_seed=0, count=2)


@pytest.fixture
def opts() -> JanusOptions:
    return JanusOptions(max_conflicts=20_000)


def _warmed_table(specs, min_wins=2) -> DispatchTable:
    table = DispatchTable(min_wins=min_wins, min_share=0.5)
    for spec in specs:
        table.record(classify(spec), "eager:default", count=min_wins)
    return table


def test_warmed_table_races_less_and_matches_serial(specs, opts):
    from repro.engine import ParallelEngine

    serial = {s.name: synthesize(s, name=s.name, options=opts) for s in specs}
    presets = ("agile", "default")

    with ParallelEngine(jobs=2, portfolio=True, presets=presets) as blind:
        for spec in specs:
            blind.synthesize(spec, name=spec.name, options=opts)
    assert blind.stats.dispatch_hits == 0
    assert blind.stats.dispatch_misses == 0  # no table attached at all

    table = _warmed_table(specs)
    with ParallelEngine(
        jobs=2, portfolio=True, presets=presets, dispatch=table
    ) as learned:
        results = {
            spec.name: learned.synthesize(spec, name=spec.name, options=opts)
            for spec in specs
        }

    assert learned.stats.dispatch_hits > 0
    # The learned probe replaces a len(presets)+1 race per shape, so the
    # warmed engine must launch strictly fewer probes than blind racing.
    assert learned.stats.dispatched < blind.stats.dispatched
    for spec in specs:
        got, want = results[spec.name], serial[spec.name]
        # Any valid lattice may win a race, but the minimal *size* is
        # unique — learned dispatch must not change it.
        assert (got.rows * got.cols, got.size) == (
            want.rows * want.cols,
            want.size,
        )
        assert spec.accepts(got.assignment.realized_truthtable())
    # Decisive learned probes keep feeding the tallies they came from.
    # (Not every spec launches a probe — bound closure can settle a shape
    # without the solver — so assert the aggregate grew, not each class.)
    recorded = sum(
        table.wins(classify(spec)).get("eager:default", 0) for spec in specs
    )
    warmed = 2 * len({classify(spec) for spec in specs})
    assert recorded > warmed


def test_unknown_rule_falls_back_to_blind_race(specs, opts):
    from repro.engine import ParallelEngine

    spec = specs[1]  # a spec whose shapes genuinely reach the solver
    table = DispatchTable(min_wins=2, min_share=0.5)
    table.record(classify(spec), "eager:no-such-preset", count=5)
    with ParallelEngine(
        jobs=2, portfolio=True, presets=("agile", "default"), dispatch=table
    ) as engine:
        result = engine.synthesize(spec, name=spec.name, options=opts)
    # The bogus rule is rejected before launching anything; every shape
    # falls through to the race and counts a miss.
    assert engine.stats.dispatch_hits == 0
    assert engine.stats.dispatch_misses > 0
    assert spec.accepts(result.assignment.realized_truthtable())


def test_engine_owns_and_saves_a_path_table(tmp_path, specs, opts):
    from repro.engine import ParallelEngine

    path = tmp_path / "dispatch.json"
    with ParallelEngine(
        jobs=2, portfolio=True, presets=("agile", "default"), dispatch=path
    ) as engine:
        spec = specs[1]  # needs real probes, not bound closure
        engine.synthesize(spec, name=spec.name, options=opts)
        assert engine.stats.dispatch_misses > 0  # cold table: blind races
    assert path.exists()
    assert len(DispatchTable(path)) > 0


def test_session_owns_and_saves_a_path_table(tmp_path, specs, opts):
    from repro.api.schema import RequestOptions

    spec = specs[1]  # needs real probes, not bound closure
    path = tmp_path / "dispatch.json"
    with Session(jobs=2, presets=("agile", "default"), dispatch=path) as s:
        s.synthesize(
            spec,
            name=spec.name,
            backend="portfolio",
            options=RequestOptions(max_conflicts=20_000),
        )
        # The engine received the resolved table but must not own it.
        assert s._portfolio_engine is not None
        assert not s._portfolio_engine._dispatch_owner
    assert path.exists()
    reloaded = DispatchTable(path, min_wins=1, min_share=0.0)
    assert reloaded.best(classify(spec)) is not None


def test_dispatch_class_memo_separates_universes():
    # x'y' over two inputs and x'y'z' over three pack to the same bits;
    # the per-engine class memo must still classify each on its own.
    from repro.boolf.truthtable import TruthTable
    from repro.core.target import TargetSpec
    from repro.engine import ParallelEngine

    narrow = TargetSpec.from_truthtable(TruthTable.from_minterms([0], 2))
    wide = TargetSpec.from_truthtable(TruthTable.from_minterms([0], 3))
    assert classify(narrow) != classify(wide)
    with ParallelEngine(jobs=1) as engine:
        assert engine._dispatch_class(narrow) == classify(narrow)
        assert engine._dispatch_class(wide) == classify(wide)
