"""Robustness fuzzing of the text-format parsers.

Two properties for each parser (SOP expressions, DIMACS, PLA, DRAT):
round-trips are lossless on valid inputs, and arbitrary junk
either parses or raises one of the library's typed errors — never an
uncontrolled exception (KeyError, IndexError, ...).
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolf import Sop, parse_sop, read_pla
from repro.errors import ParseError, ReproError
from repro.sat import Cnf, VarPool, read_dimacs, write_dimacs
from repro.sat.drat import read_drat

ACCEPTED_ERRORS = (ReproError, ValueError)


def junk_text():
    return st.text(
        alphabet=st.sampled_from(
            list("abcdef'+~ .01-\n\t|&x123456789pcnfdmoile")
        ),
        max_size=120,
    )


def directive_lines(keywords):
    """Directive-shaped junk: real keywords with malformed operand lists.

    Plain character soup rarely spells a directive, so this strategy aims
    straight at the crash class the parsers must survive: a recognized
    keyword followed by missing, extra, non-integer, negative or absurdly
    large operands.
    """
    operands = st.sampled_from(
        ["", " ", " 3", " -1", " x", " 0", " 99999999999999999", " 3 4", " fr", " a b"]
    )
    line = st.tuples(st.sampled_from(keywords), operands).map("".join)
    return st.lists(line, max_size=8).map("\n".join)


PLA_KEYWORDS = [".i", ".o", ".p", ".type", ".ilb", ".ob", ".e", ".end", ".mv"]
DIMACS_KEYWORDS = ["p cnf", "p", "c", "%", "1 2 0", "0"]


class TestSopParser:
    @given(junk_text())
    @settings(max_examples=150, deadline=None)
    def test_never_crashes_uncontrolled(self, text):
        try:
            parse_sop(text)
        except ACCEPTED_ERRORS:
            pass

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=4), st.booleans()
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda lit: lit[0],
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_through_text(self, cube_specs):
        from repro.boolf import Cube

        cubes = [Cube.from_literals(lits, 5) for lits in cube_specs]
        sop = Sop(cubes, 5)
        again = parse_sop(sop.to_string(), names=["a", "b", "c", "d", "e"])
        assert again.to_truthtable() == sop.to_truthtable()


class TestDimacs:
    @given(junk_text())
    @settings(max_examples=150, deadline=None)
    def test_never_crashes_uncontrolled(self, text):
        try:
            read_dimacs(io.StringIO(text))
        except ACCEPTED_ERRORS:
            pass

    @given(directive_lines(DIMACS_KEYWORDS))
    @settings(max_examples=150, deadline=None)
    def test_directive_junk_never_crashes(self, text):
        try:
            read_dimacs(io.StringIO(text))
        except ACCEPTED_ERRORS:
            pass

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf",
            "p cnf 1",
            "p cnf x 2",
            "p cnf -1 2",
            "p cnf 1 -2",
            "p cnf 999999999999 1",  # must refuse, not allocate/hang
            "p cnf 1 1\n999999999999 0",  # oversized literal: same guard
            "p cnf 2 1\n1 a 0",
        ],
    )
    def test_malformed_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            read_dimacs(io.StringIO(text))

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-6, max_value=6).filter(bool),
                min_size=1,
                max_size=4,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, clauses):
        pool = VarPool()
        for _ in range(6):
            pool.fresh()
        cnf = Cnf(pool)
        for clause in clauses:
            cnf.add(clause)
        text = write_dimacs(cnf, comment="fuzz roundtrip")
        again = read_dimacs(io.StringIO(text))
        assert [sorted(c) for c in again] == [sorted(c) for c in cnf]


class TestDrat:
    @given(junk_text())
    @settings(max_examples=150, deadline=None)
    def test_never_crashes_uncontrolled(self, text):
        try:
            read_drat(io.StringIO(text))
        except ACCEPTED_ERRORS:
            pass


class TestPla:
    @given(junk_text())
    @settings(max_examples=150, deadline=None)
    def test_never_crashes_uncontrolled(self, text):
        try:
            read_pla(io.StringIO(text))
        except ACCEPTED_ERRORS:
            pass

    @given(directive_lines(PLA_KEYWORDS))
    @settings(max_examples=150, deadline=None)
    def test_directive_junk_never_crashes(self, text):
        try:
            read_pla(io.StringIO(text))
        except ACCEPTED_ERRORS:
            pass

    @pytest.mark.parametrize(
        "text",
        [
            ".o",  # the seed-red fuzz input: directive with no operand
            ".i",
            ".i 3 4",
            ".i x",
            ".i -1",
            ".i 99999999999",
            ".p x",
            ".type",
            ".type zz",
        ],
    )
    def test_malformed_directive_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            read_pla(io.StringIO(text + "\n"))
