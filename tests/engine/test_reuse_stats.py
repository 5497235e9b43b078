"""Solver-reuse counters through the engine layer: attempts carry
per-probe solver work over the wire, the engine aggregates it into
:class:`EngineStats`, and pooled runs return the serial answer."""

from dataclasses import asdict

import pytest

from repro.boolf.truthtable import TruthTable
from repro.core.janus import JanusOptions, LmAttempt
from repro.engine import ParallelEngine
from repro.engine.wire import attempt_from_wire, attempt_to_wire

OPTS = JanusOptions(max_conflicts=10_000)


class TestAttemptWire:
    def test_roundtrip_carries_reuse_fields(self):
        attempt = LmAttempt(
            rows=3, cols=4, status="unsat", side="primal", complexity=99,
            conflicts=7, wall_time=0.5, propagations=123, restarts=2,
            reused=True, pruned=True,
        )
        back = attempt_from_wire(attempt_to_wire(attempt))
        assert back.propagations == 123
        assert back.restarts == 2
        assert back.reused and back.pruned

    def test_old_payloads_default_reuse_fields_off(self):
        """Cache entries written before these fields existed lack the
        new keys and must still decode."""
        legacy = {
            "rows": 2, "cols": 2, "status": "sat", "side": "dual",
            "complexity": 5, "conflicts": 1, "wall_time": 0.1,
        }
        back = attempt_from_wire(legacy, cached=True)
        assert back.propagations == 0
        assert back.restarts == 0
        assert not back.reused and not back.pruned
        assert back.cached


class TestEngineAggregation:
    def test_propagations_aggregate_across_probes(self):
        with ParallelEngine(jobs=1) as engine:
            # 3-input parity: the bounds never close the gap, so the
            # dichotomic loop performs real SAT probes.
            result = engine.synthesize(
                "a'b'c' + a'bc + ab'c + abc'", options=OPTS
            )
        probed = [a for a in result.attempts if a.propagations > 0]
        assert probed, "expected at least one real SAT probe"
        assert engine.stats.propagations >= sum(a.propagations for a in probed)

    def test_stats_snapshot_has_reuse_keys(self):
        with ParallelEngine(jobs=1) as engine:
            engine.synthesize("ab + a'b'c", options=OPTS)
            snapshot = asdict(engine.stats)
        for key in ("propagations", "reuse_hits", "pruned_shapes",
                    "solver_restarts", "restarts_avoided", "npn_hits"):
            assert key in snapshot

    def test_restarts_avoided_counts_cache_replays(self, tmp_path):
        expr = "a'b'c' + a'bc + ab'c + abc'"
        with ParallelEngine(jobs=1, cache=tmp_path / "c", suite=False) as one:
            first = one.synthesize(expr, options=OPTS)
        restarts = sum(a.restarts for a in first.attempts)
        with ParallelEngine(jobs=1, cache=tmp_path / "c", suite=False) as two:
            two.synthesize(expr, options=OPTS)
            assert two.stats.restarts_avoided == restarts


# Full per-attempt metadata: every probe, pooled or local, is the same
# one-shot solve as the serial prober's, so the solver work matches too.
ATTEMPT_FIELDS = (
    "rows", "cols", "status", "side", "complexity", "conflicts",
    "propagations", "restarts", "core",
)
PARITY = "a'b'c' + a'bc + ab'c + abc'"
# A recorded cold-pool target (on-set hex "7004" over 4 inputs) whose
# search refutes a 3x2 shape with a real SAT call.
COLD = TruthTable.from_minterms([4, 5, 6, 10], 4)


def _trace(result):
    return [
        tuple(getattr(a, name) for name in ATTEMPT_FIELDS)
        for a in result.attempts
    ]


class TestPooledIdentity:
    @pytest.mark.parametrize("jobs, target", [
        pytest.param(1, PARITY, id="1"),
        pytest.param(2, PARITY, id="2"),
        pytest.param(1, COLD, id="1-cold-7004"),
        pytest.param(2, COLD, id="2-cold-7004"),
    ])
    def test_results_identical_across_jobs(self, jobs, target):
        from repro.core.janus import synthesize

        serial = synthesize(target, options=OPTS)
        with ParallelEngine(jobs=jobs) as engine:
            pooled = engine.synthesize(target, options=OPTS)
        assert pooled.assignment.entries == serial.assignment.entries
        assert _trace(pooled) == _trace(serial)
        assert (pooled.size, pooled.shape, pooled.lower_bound) == (
            serial.size, serial.shape, serial.lower_bound
        )
        if target is COLD:
            assert any(
                a.status == "unsat" and a.side is not None
                for a in serial.attempts
            ), "the cold target must exercise a solver-backed refutation"


class TestCoreTally:
    """`EngineStats.cores` counts which propagation core served each
    *solver-backed* probe — structural prechecks never construct a
    solver and must stay out of the tally."""

    def test_cores_tally_counts_only_solver_backed_probes(self):
        from repro.sat.solver import resolve_core_class

        with ParallelEngine(jobs=1) as engine:
            result = engine.synthesize("cd + c'd' + abe", options=OPTS)
            cores = dict(engine.stats.cores)
        solver_backed = [
            a for a in result.attempts
            if a.status != "structural" and not a.cached
        ]
        structural = [a for a in result.attempts if a.status == "structural"]
        assert structural, "workload should include structural prechecks"
        assert sum(cores.values()) == len(solver_backed)
        # Every label is a real core, and the ambient core is among them.
        assert set(cores) <= {"pure", "native"}
        assert resolve_core_class().core_name in cores

    def test_structural_only_run_records_no_cores(self):
        # 2x2 constant-ish target: bounds close the gap, zero SAT probes.
        with ParallelEngine(jobs=1) as engine:
            engine.synthesize("ab", options=OPTS)
            assert engine.stats.cores == {}
