"""Tests for the LM SAT encoder: solutions decode to verified lattices."""

from dataclasses import replace

import pytest

from repro.core import EncodeOptions, best_encoding, encode_lm, make_spec
from repro.errors import EncodingError
from repro.lattice.paths import left_right_paths8, top_bottom_paths
from repro.sat import solve_cnf


def solve_side(spec, rows, cols, side, options=EncodeOptions()):
    enc = encode_lm(spec, rows, cols, side, options)
    assert enc.cnf is not None
    result = solve_cnf(enc.cnf, max_conflicts=50_000)
    return enc, result


class TestPrimalEncoding:
    def test_sat_and_verified(self):
        spec = make_spec("ab + a'b'")
        enc, result = solve_side(spec, 2, 2, "primal")
        assert result.is_sat
        la = enc.decode(result)
        assert la.realizes(spec.tt)

    def test_unsat_when_too_small(self):
        # f needs 2 distinct products; a 2x1 lattice has a single path.
        spec = make_spec("ab + a'b'")
        enc, result = solve_side(spec, 2, 1, "primal")
        assert result.is_unsat

    def test_fig1_3x3_realization(self):
        """Paper Fig. 1(c): the Fig. 1 function fits on 3x3.

        Reconstruction note: the paper's TL set {a,a',b,b',c,d,d',0,1}
        lacks c', so the second product keeps c positive.  (The fully
        complemented abcd + a'b'c'd' is provably NOT 3x3-realizable: every
        length->=4 path in a 3x3 lattice crosses the centre switch, forcing
        the two 4-literal products to share a literal.)
        """
        spec = make_spec("abcd + a'b'cd'")
        enc, result = solve_side(spec, 3, 3, "primal")
        assert result.is_sat
        assert enc.decode(result).realizes(spec.tt)

    def test_fully_complemented_pair_not_3x3_realizable(self):
        spec = make_spec("abcd + a'b'c'd'")
        for side in ("primal", "dual"):
            _, result = solve_side(spec, 3, 3, side)
            assert result.is_unsat

    def test_row_facts_do_not_change_satisfiability(self):
        spec = make_spec("ab + a'c")
        for rows, cols in [(2, 2), (2, 3), (3, 2)]:
            with_facts = solve_side(
                spec, rows, cols, "primal", EncodeOptions(row_facts=True)
            )[1].status
            without = solve_side(
                spec, rows, cols, "primal", EncodeOptions(row_facts=False)
            )[1].status
            assert with_facts == without

    def test_degree_constraints_preserve_known_solutions(self):
        spec = make_spec("abcd + a'b'c'd'")
        for flag in (True, False):
            enc, result = solve_side(
                spec, 4, 2, "primal", EncodeOptions(degree_constraints=flag)
            )
            assert result.is_sat
            assert enc.decode(result).realizes(spec.tt)


class TestDualEncoding:
    def test_dual_side_sat_and_verified(self):
        spec = make_spec("ab + a'b'")
        enc, result = solve_side(spec, 2, 2, "dual")
        assert result.is_sat
        la = enc.decode(result)
        # The decoded grid must realize f between top and bottom plates.
        assert la.realizes(spec.tt)

    @pytest.mark.parametrize("expr", ["ab + a'c", "a + bc", "ab + cd"])
    def test_dual_side_decodes_with_constants(self, expr):
        """Force the dual side on lattices with slack so constants appear;
        the constant-flip in decode must keep the TB function correct."""
        spec = make_spec(expr)
        enc, result = solve_side(spec, 3, 3, "dual")
        assert result.is_sat
        assert enc.decode(result).realizes(spec.tt)

    def test_sides_agree_on_unsat(self):
        spec = make_spec("ab + a'b'")
        _, primal = solve_side(spec, 2, 1, "primal")
        _, dual = solve_side(spec, 2, 1, "dual")
        assert primal.is_unsat and dual.is_unsat


class TestBestEncoding:
    def test_picks_smaller_complexity(self):
        spec = make_spec("ab + a'b'")
        chosen, built = best_encoding(spec, 2, 2)
        assert chosen is not None
        complexities = [e.complexity for e in built if e.cnf is not None]
        assert chosen.complexity == min(complexities)

    def test_single_side_selection(self):
        spec = make_spec("ab")
        chosen, built = best_encoding(spec, 2, 1, sides=("primal",))
        assert chosen is not None and chosen.side == "primal"
        assert len(built) == 1

    def test_unknown_side_rejected(self):
        with pytest.raises(EncodingError):
            encode_lm(make_spec("a"), 1, 1, side="sideways")

    def test_too_big_marker(self):
        spec = make_spec("ab + a'b'")
        enc = encode_lm(spec, 6, 6, "primal", EncodeOptions(max_products=10))
        assert enc.too_big
        assert enc.cnf is None


class TestEncodingShape:
    def test_mapping_variables_exactly_one(self):
        spec = make_spec("ab + a'b'")
        enc, result = solve_side(spec, 2, 2, "primal")
        assert result.is_sat
        model = result.model
        for cell in range(4):
            mapped = [
                j
                for j in range(len(enc.tl))
                if model[enc.mapping_vars[(cell, j)] - 1]
            ]
            assert len(mapped) == 1

    def test_tl_contains_cover_literals_and_constants(self):
        spec = make_spec("ab + a'b'")
        enc = encode_lm(spec, 2, 2, "primal")
        strings = {e.to_string(spec.name_list()) for e in enc.tl}
        assert {"a", "b", "a'", "b'", "0", "1"} <= strings

    def test_complexity_positive(self):
        spec = make_spec("ab + a'b'")
        enc = encode_lm(spec, 2, 2, "primal")
        assert enc.complexity > 0


def _exhaustive_specs():
    from tests.core.test_lm_exhaustive import CASES

    return [make_spec(expr) for expr in sorted({c[0] for c in CASES})] + [
        make_spec("abc + a'b'c'")
    ]


def _ladder_specs():
    from repro.gen.ladder import ladder

    return [family.sample(seed) for family, seed in ladder(levels=(0,))]


def _infeasible_primal_spec():
    # The primal TL is {a, 0, 1}: entries ab and ab' agree on it but
    # need opposite outputs, so the primal side is infeasible.
    return replace(make_spec("ab"), isop=make_spec("ab + ab'").isop)


SIDES = ("primal", "dual")
PATHS = {"primal": top_bottom_paths, "dual": left_right_paths8}
SHAPES = [(1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]


class TestCountedComplexity:
    """Each side's CNF size is counted from the pattern analysis alone;
    the count must equal the CNF `_build` writes, and the side the
    counts pick must be the one a build-both-and-compare would pick."""

    def _check(self, spec, options):
        limits = replace(options, max_clauses=10**9, max_products=10**9)
        for rows, cols in SHAPES:
            built = []
            for side in SIDES:
                enc = encode_lm(spec, rows, cols, side, options)
                full = encode_lm(spec, rows, cols, side, limits)
                paths = PATHS[side](rows, cols)
                if len(paths) > options.max_products:
                    assert enc.too_big and not enc.infeasible
                elif full.infeasible:
                    assert enc.infeasible and not enc.too_big
                else:
                    assert (full.num_vars, full.num_clauses) == (
                        full.cnf.num_vars, full.cnf.num_clauses
                    )
                    assert full.complexity == full.cnf.complexity
                    assert enc.too_big == (
                        full.cnf.num_clauses > options.max_clauses
                    )
                if enc.cnf is None:
                    assert enc.complexity == 0
                    assert enc.too_big or enc.infeasible
                else:
                    assert enc.complexity == enc.cnf.complexity
                    assert enc.cnf.clauses == full.cnf.clauses
                built.append(enc)
            chosen, analyzed = best_encoding(spec, rows, cols, options)
            assert [e.complexity for e in analyzed] == [
                e.complexity for e in built
            ]
            usable = [e for e in built if e.cnf is not None]
            if not usable:
                assert chosen is None
                continue
            expected = min(usable, key=lambda e: e.complexity)
            assert chosen.side == expected.side
            assert chosen.cnf.clauses == expected.cnf.clauses
            assert chosen.mapping_vars == expected.mapping_vars
            # Only the chosen side is built.
            assert [e.cnf is not None for e in analyzed] == [
                e is chosen for e in analyzed
            ]

    @pytest.mark.parametrize(
        "options",
        [
            EncodeOptions(),
            EncodeOptions(row_facts=False, degree_constraints=False),
            EncodeOptions(eo_method="sequential", big_product_threshold=2),
            EncodeOptions(eo_method="commander"),
        ],
        ids=["default", "bare", "sequential", "commander"],
    )
    def test_exhaustive_specs(self, options):
        for spec in _exhaustive_specs():
            self._check(spec, options)

    def test_ladder_specs(self):
        for spec in _ladder_specs():
            self._check(spec, EncodeOptions())

    def test_too_big_cases(self):
        spec = make_spec("abc + a'b'c'")
        for options in (
            EncodeOptions(max_clauses=150),
            EncodeOptions(max_products=4),
        ):
            self._check(spec, options)
        enc = encode_lm(spec, 3, 3, "primal", EncodeOptions(max_clauses=150))
        assert enc.too_big and enc.complexity == 0

    def test_infeasible_side(self):
        spec = _infeasible_primal_spec()
        self._check(spec, EncodeOptions())
        chosen, analyzed = best_encoding(spec, 2, 2)
        assert [e.infeasible for e in analyzed] == [True, False]
        assert chosen.side == "dual"
