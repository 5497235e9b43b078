"""Tests for the experiment runner."""

import pytest

from repro.api import BatchResponse
from repro.bench import (
    default_options,
    format_table2,
    profile_names,
    run_table2,
)
from repro.core.encoder import EncodeOptions
from repro.core.janus import JanusOptions


class TestProfiles:
    def test_fast_profile_small_instances(self):
        names = profile_names("fast")
        assert names
        from repro.bench import PAPER_TABLE2

        by_name = {r.name: r for r in PAPER_TABLE2}
        assert all(by_name[n].num_inputs <= 7 for n in names)

    def test_profiles_nested(self):
        fast = set(profile_names("fast"))
        medium = set(profile_names("medium"))
        full = set(profile_names("full"))
        assert fast <= medium <= full
        assert len(full) == 48

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_names("turbo")

    def test_default_options_budgets_grow(self):
        assert (
            default_options("fast").max_conflicts
            < default_options("medium").max_conflicts
            < default_options("full").max_conflicts
        )


class TestRunner:
    def test_bounds_come_from_the_janus_response(self, fast_options):
        (row,), _batch = run_table2(["b12_03"], ("janus",), fast_options)
        janus = row.results["janus"]
        assert row.lb == janus.initial_lower_bound
        assert row.lb <= row.new_ub <= row.old_ub
        assert "dp" in janus.upper_bounds

    def test_each_algorithm_gets_its_response(self, fast_options):
        (row,), batch = run_table2(
            ["b12_03"], ("janus", "exact"), fast_options
        )
        assert list(row.results) == ["janus", "exact"]
        assert [r.backend for r in batch.responses] == ["janus", "exact"]
        assert row.results["exact"] is batch.responses[1]
        assert row.results["janus"].size >= 1

    def test_run_instance_and_format(self, fast_options):
        rows, _batch = run_table2(["b12_03"], ("janus",), fast_options)
        assert "janus" in rows[0].results
        text = format_table2(rows)
        assert "b12_03" in text
        assert "nub(paper)" in text

    def test_run_table2_multiple(self, fast_options):
        rows, batch = run_table2(
            ["b12_03", "c17_01"], ("janus",), fast_options
        )
        assert [r.name for r in rows] == ["b12_03", "c17_01"]
        assert isinstance(batch, BatchResponse)
        assert [r.name for r in batch.responses] == ["b12_03", "c17_01"]

    def test_algorithms_without_janus_are_an_error(self, fast_options):
        with pytest.raises(ValueError, match="janus"):
            run_table2(["b12_03"], ("exact",), fast_options)

    def test_options_the_wire_cannot_carry_are_an_error(self):
        options = JanusOptions(encode=EncodeOptions(row_facts=False))
        with pytest.raises(ValueError, match="encode"):
            run_table2(["b12_03"], ("janus",), options)


#: Table II cells of two cheap rows under the ``fast`` budgets, captured
#: from the harness that recomputed every bound beside the JANUS run.
PINNED = {
    "b12_03": {
        "lb": 8,
        "old_ub": 12,
        "new_ub": 8,
        "upper_bounds": {
            "dp": (3, 4), "ps": (2, 7), "dps": (5, 4),
            "ips": (2, 4), "idps": (4, 4), "ds": (2, 5),
        },
        "shape": "2x4",
    },
    "c17_01": {
        "lb": 8,
        "old_ub": 8,
        "new_ub": 8,
        "upper_bounds": {
            "dp": (2, 4), "ps": (2, 7), "dps": (3, 4),
            "ips": (2, 4), "idps": (2, 4), "ds": (2, 5),
        },
        "shape": "2x4",
    },
}


class TestPinnedRows:
    @pytest.fixture(scope="class")
    def serial(self):
        rows, _batch = run_table2(
            list(PINNED), ("janus",), default_options("fast")
        )
        return rows

    def test_cells_match_the_pinned_values(self, serial):
        for row in serial:
            pinned = PINNED[row.name]
            janus = row.results["janus"]
            assert (row.lb, row.old_ub, row.new_ub) == (
                pinned["lb"], pinned["old_ub"], pinned["new_ub"]
            ), row.name
            assert janus.upper_bounds == pinned["upper_bounds"], row.name
            assert janus.shape == pinned["shape"], row.name

    def test_sharded_rows_agree_cell_by_cell(self, serial):
        sharded, _batch = run_table2(
            list(PINNED), ("janus",), default_options("fast"), jobs=2
        )

        def cells(row):
            janus = row.results["janus"]
            return (
                row.name, row.lb, row.old_ub, row.new_ub,
                janus.upper_bounds, janus.shape, janus.size, janus.entries,
            )

        assert [cells(r) for r in sharded] == [cells(r) for r in serial]
