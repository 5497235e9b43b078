"""SolverConfig: presets, budgets, wire forms, keys, and proofs.

The contract this file pins down:

* the default :class:`SolverConfig` is **byte-identical** to the
  historical solver — same trajectory at the CDCL level, same
  ``SynthesisResult`` end to end;
* ``CdclSolver(config=...)`` is the one tuning surface, budgets included;
* every named preset round-trips through the wire form, and the default
  config normalizes to the absent/null spelling;
* differently-tuned option sets get different cache keys;
* every preset's UNSAT trajectory emits a DRAT proof that checks.
"""

import dataclasses

import pytest

from repro.errors import SolverError, ValidationError
from repro.sat import SOLVER_PRESETS, CdclSolver, SolverConfig, check_refutation
from repro.sat.solver import solve_cnf


def php_clauses(holes: int) -> list[list[int]]:
    """Pigeonhole principle: holes+1 pigeons into ``holes`` holes — UNSAT."""
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> list[list[int]]:
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def run_solver(clauses, **kwargs):
    solver = CdclSolver(**kwargs)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    return result, solver


def trajectory(result, solver):
    """Everything observable about one solve, for identity comparisons."""
    return (
        result.status,
        result.model,
        dataclasses.asdict(solver.stats),
    )


class TestConfigValidation:
    def test_default_and_named_presets(self):
        assert SolverConfig.default() == SolverConfig()
        assert set(SOLVER_PRESETS) >= {"default", "agile", "stable", "heavy"}
        assert SOLVER_PRESETS["default"] == SolverConfig()
        for name, config in SOLVER_PRESETS.items():
            assert SolverConfig.preset(name) == config

    def test_unknown_preset_raises(self):
        with pytest.raises(SolverError, match="agile"):
            SolverConfig.preset("bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restart_strategy": "fibonacci"},
            {"phase_saving": "sometimes"},
            {"restart_base": 0},
            {"restart_growth": 1.0},
            {"var_decay": 0.0},
            {"var_decay": 1.5},
            {"clause_decay": -0.1},
            {"reduce_base": 0},
            {"reduce_growth": 0.5},
            {"max_conflicts": -1},
            {"max_time": -0.5},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(SolverError):
            SolverConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().restart_base = 7


class TestByteIdentity:
    """The default config must reproduce the historical solver exactly."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_config_solver_trajectory(self, seed):
        clauses = random_3cnf(12, 50, seed)
        plain = trajectory(*run_solver(clauses))
        explicit = trajectory(*run_solver(clauses, config=SolverConfig()))
        preset = trajectory(
            *run_solver(clauses, config=SolverConfig.preset("default"))
        )
        assert plain == explicit == preset

    def test_default_config_synthesis_result(self):
        from repro.core.janus import JanusOptions, synthesize

        spec_str = "ab + a'b'c"
        base = synthesize(spec_str, options=JanusOptions())
        explicit = synthesize(
            spec_str, options=JanusOptions(solver=SolverConfig())
        )
        assert base.assignment.entries == explicit.assignment.entries
        assert base.shape == explicit.shape
        assert base.size == explicit.size
        assert base.lower_bound == explicit.lower_bound
        assert base.upper_bounds == explicit.upper_bounds
        assert [
            (a.rows, a.cols, a.status, a.conflicts) for a in base.attempts
        ] == [
            (a.rows, a.cols, a.status, a.conflicts) for a in explicit.attempts
        ]


class TestKwargShim:
    """The loose budget kwargs are gone; the config's budgets apply."""

    def test_config_budgets_apply_when_not_overridden(self):
        solver = CdclSolver(config=SolverConfig(max_conflicts=5))
        assert solver.max_conflicts == 5


class TestWireRoundTrips:
    @pytest.mark.parametrize("name", sorted(SOLVER_PRESETS))
    def test_preset_round_trips(self, name):
        from repro.engine.wire import (
            solver_config_from_wire,
            solver_config_to_wire,
        )

        config = SOLVER_PRESETS[name]
        payload = solver_config_to_wire(config)
        assert solver_config_from_wire(payload) == config
        if name == "default":
            assert payload is None  # the back-compat spelling

    @pytest.mark.parametrize("name", sorted(SOLVER_PRESETS))
    def test_request_options_round_trip(self, name):
        from repro.api.schema import RequestOptions

        options = RequestOptions(solver_config=SOLVER_PRESETS[name])
        again = RequestOptions.from_wire(options.to_wire())
        assert again == options

    def test_explicit_default_normalizes_to_absent(self):
        from repro.api.schema import RequestOptions

        explicit = RequestOptions(solver_config=SolverConfig())
        absent = RequestOptions()
        assert explicit == absent
        assert explicit.solver_config is None
        assert explicit.to_wire() == absent.to_wire()
        assert "solver_config" in explicit.to_wire()
        assert explicit.to_wire()["solver_config"] is None

    def test_malformed_block_rejected(self):
        from repro.api.schema import RequestOptions

        good = RequestOptions().to_wire()
        for bad in (
            {**good, "solver_config": {"bogus_field": 1}},
            {**good, "solver_config": {"var_decay": 7.0}},
            {**good, "solver_config": 42},
        ):
            with pytest.raises(ValidationError):
                RequestOptions.from_wire(bad)


class TestCacheKeys:
    def test_fingerprint_carries_solver_config(self):
        from repro.core.janus import JanusOptions
        from repro.engine.signature import options_fingerprint

        fp = options_fingerprint(JanusOptions())
        assert "solver" not in fp
        block = fp["solver_config"]
        for field in dataclasses.fields(SolverConfig):
            assert field.name in block

    def test_distinct_configs_get_distinct_keys(self):
        from repro.core.janus import JanusOptions, make_spec
        from repro.engine.signature import lm_cache_key

        spec = make_spec("ab + a'b'c")
        keys = {
            lm_cache_key(
                spec,
                3,
                2,
                JanusOptions(solver=SOLVER_PRESETS[name]),
            )
            for name in sorted(SOLVER_PRESETS)
        }
        assert len(keys) == len(SOLVER_PRESETS)
        # ...and the default-config key is the pre-SolverConfig key shape:
        # explicit default and plain options collide on purpose.
        assert lm_cache_key(spec, 3, 2, JanusOptions()) == lm_cache_key(
            spec, 3, 2, JanusOptions(solver=SolverConfig())
        )


class TestPresetProofs:
    """Every preset's non-default trajectory must stay DRAT-checkable."""

    @pytest.mark.parametrize("name", sorted(SOLVER_PRESETS))
    def test_unsat_trajectory_emits_valid_refutation(self, name):
        clauses = php_clauses(3)
        solver = CdclSolver(config=SOLVER_PRESETS[name], proof=True)
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.is_unsat
        check = check_refutation(clauses, solver.proof)
        assert check.valid, check.reason

    @pytest.mark.parametrize("name", sorted(set(SOLVER_PRESETS) - {"default"}))
    def test_presets_change_the_trajectory_yet_agree(self, name):
        # Sanity that the knobs are actually plumbed in: a tuned preset
        # must diverge from the default trajectory on a hard instance
        # while reaching the same verdict.
        clauses = php_clauses(5)
        default_result, default_solver = run_solver(
            clauses, config=SolverConfig()
        )
        tuned_result, tuned_solver = run_solver(
            clauses, config=SOLVER_PRESETS[name]
        )
        assert default_result.is_unsat and tuned_result.is_unsat
        assert dataclasses.asdict(default_solver.stats) != dataclasses.asdict(
            tuned_solver.stats
        )


class TestSolveCnfPlumbing:
    def test_solve_cnf_forwards_config(self):
        from repro.sat.cnf import Cnf, VarPool

        pool = VarPool()
        a, b = pool.fresh(), pool.fresh()
        cnf = Cnf(pool)
        cnf.add([a, b])
        cnf.add([-a])
        budgeted = solve_cnf(cnf, config=SolverConfig(max_conflicts=1))
        assert budgeted.status == "sat"
        assert budgeted.value(b)
