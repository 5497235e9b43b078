"""Tests for the JANUS driver."""

import pytest

from repro.api import RequestOptions, Session
from repro.core import (
    JanusOptions,
    candidate_shapes,
    fit_columns,
    make_spec,
    solve_lm,
    synthesize,
)
from repro.engine import ParallelEngine


class TestPaperExamples:
    def test_fig1_minimum_4x2(self, fast_options):
        """Paper Fig. 1(d): minimum lattice for abcd + a'b'c'd' is 4x2."""
        result = synthesize("abcd + a'b'c'd'", options=fast_options)
        assert result.size == 8
        assert result.assignment.realizes(result.spec.tt)
        assert result.is_provably_minimum

    def test_fig4_minimum_3x4(self, fast_options):
        """Paper Section III-B: the Fig. 4 function's optimum is 3x4."""
        result = synthesize("cd + c'd' + abe + a'b'e'", options=fast_options)
        assert result.size == 12
        assert (result.rows, result.cols) in [(3, 4), (4, 3)]
        assert result.initial_lower_bound == 12
        assert result.initial_upper_bound == 15


class TestTrivialCases:
    def test_constant_zero(self, fast_options):
        result = synthesize("0", name="zero", options=fast_options)
        assert result.size == 1
        assert result.assignment.realized_truthtable().is_zero()

    def test_constant_one(self, fast_options):
        result = synthesize("1", name="one", options=fast_options)
        assert result.size == 1
        assert result.assignment.realized_truthtable().is_one()

    def test_single_literal(self, fast_options):
        result = synthesize("a", options=fast_options)
        assert result.size == 1
        assert result.assignment.realizes(result.spec.tt)

    def test_single_product_column(self, fast_options):
        result = synthesize("abc", options=fast_options)
        assert (result.rows, result.cols) == (3, 1)
        assert result.is_provably_minimum


class TestSearchInvariants:
    @pytest.mark.parametrize(
        "expr", ["ab + a'b'", "ab + cd", "a + bc", "ab + bc + ca"]
    )
    def test_result_verified_and_bounded(self, expr, fast_options):
        result = synthesize(expr, options=fast_options)
        assert result.assignment.realizes(result.spec.tt)
        assert result.initial_lower_bound <= result.size
        assert result.size <= result.initial_upper_bound

    def test_xor_minimum(self, fast_options):
        # a xor b = ab' + a'b; known minimum 2x2 (VERIFY: lb=4 via shapes).
        result = synthesize("ab' + a'b", options=fast_options)
        assert result.size == 4
        assert result.assignment.realizes(result.spec.tt)

    def test_attempts_recorded(self, fast_options):
        result = synthesize("cd + c'd' + abe + a'b'e'", options=fast_options)
        assert result.attempts
        sat_attempts = [a for a in result.attempts if a.status == "sat"]
        assert sat_attempts, "the search must have found its solution via LM"


class TestCandidateShapes:
    def test_maximal_under_domination(self):
        shapes = candidate_shapes(12)
        assert (3, 4) in shapes and (4, 3) in shapes
        assert (5, 2) not in shapes  # dominated by (6, 2)

    def test_respects_lower_bound(self):
        shapes = candidate_shapes(12, lower_bound=10)
        assert all(m * n >= 10 for m, n in shapes)

    def test_all_areas_at_most_mp(self):
        for mp in (5, 9, 16, 23):
            for m, n in candidate_shapes(mp):
                assert m * n <= mp

    def test_ordering_prefers_large_balanced(self):
        shapes = candidate_shapes(16)
        assert shapes[0] == (4, 4)


class TestSolveLm:
    def test_structural_fail_is_unsat(self, fast_options):
        spec = make_spec("abcd + a'b'c'd'")
        outcome = solve_lm(spec, 2, 4, fast_options)
        assert outcome.status == "unsat"
        assert outcome.attempt.status == "structural"

    def test_sat_is_verified(self, fast_options):
        spec = make_spec("ab + a'b'")
        outcome = solve_lm(spec, 2, 2, fast_options)
        assert outcome.status == "sat"
        assert outcome.assignment.realizes(spec.tt)

    def test_side_recorded(self, fast_options):
        spec = make_spec("ab + a'b'")
        outcome = solve_lm(spec, 2, 2, fast_options)
        assert outcome.attempt.side in ("primal", "dual")
        assert outcome.attempt.complexity > 0


class TestFitColumns:
    def test_finds_minimal_width(self, fast_options):
        spec = make_spec("ab + a'b'")
        la = fit_columns(spec, 2, 4, fast_options)
        assert la is not None
        assert la.cols == 2  # 2x2 is the optimum
        assert la.realizes(spec.tt)

    def test_returns_none_when_impossible(self, fast_options):
        spec = make_spec("abcd + a'b'c'd'")
        assert fit_columns(spec, 2, 3, fast_options) is None

    def test_attempts_collected(self, fast_options):
        spec = make_spec("ab + a'b'")
        attempts = []
        fit_columns(spec, 2, 4, fast_options, attempts=attempts)
        assert attempts


class TestOptions:
    def test_for_subproblems_drops_ds(self):
        options = JanusOptions()
        sub = options.for_subproblems()
        assert "ds" not in sub.ub_methods
        assert sub.ds_depth == 0

    def test_zero_conflict_budget_falls_back_to_bounds(self):
        options = JanusOptions(max_conflicts=0, ub_methods=("dp", "ps", "dps"))
        result = synthesize("ab + a'b'", options=options)
        # With no SAT budget every LM probe is unknown; the initial upper
        # bound must be returned, still verified.
        assert result.assignment.realizes(result.spec.tt)
        assert result.size == result.initial_upper_bound


FIG4 = "cd + c'd' + abe + a'b'e'"


def _fig4(path: str, max_conflicts: int, cache) -> tuple[str, int, bool]:
    """Synthesize the Fig. 4 function along one path; return its shape,
    size and proof flag."""
    options = JanusOptions(max_conflicts=max_conflicts)
    if path == "serial":
        result = synthesize(FIG4, options=options)
    elif path == "pool":
        with ParallelEngine(jobs=2) as engine:
            result = synthesize(FIG4, options=options, prober=engine)
    else:
        request = RequestOptions(max_conflicts=max_conflicts)
        with Session(cache=cache) as session:
            session.synthesize(FIG4, options=request)
        with Session(cache=cache) as session:
            warm = session.synthesize(FIG4, options=request)
        assert warm.stats["suite_hits"] == 1
        return warm.shape, warm.size, warm.provably_minimum
    return result.shape, result.size, result.is_provably_minimum


class TestProvablyMinimum:
    """The flag claims a proof only when every probe below the answer
    was decided; a probe that ran out of budget proves nothing."""

    @pytest.mark.parametrize("path", ["serial", "pool", "warm-suite"])
    def test_budget_limited_search_is_not_a_proof(self, path, tmp_path):
        # At 100 conflicts the 3x4 probe comes back unknown, so the
        # search settles on the 3x5 upper bound.
        assert _fig4(path, 100, tmp_path) == ("3x5", 15, False)

    @pytest.mark.parametrize("path", ["serial", "pool", "warm-suite"])
    def test_default_budget_proves_the_optimum(self, path, tmp_path):
        assert _fig4(path, 60_000, tmp_path) == ("3x4", 12, True)
