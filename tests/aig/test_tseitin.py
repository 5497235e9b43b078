"""Tests for Tseitin encoding and miter-based equivalence checking."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import Aig, equivalent_sat, miter, tseitin
from repro.boolf import Sop, TruthTable
from repro.errors import EncodingError
from repro.sat import CdclSolver


def random_table(num_vars: int, seed: int) -> TruthTable:
    rng = np.random.default_rng(seed)
    return TruthTable.random(num_vars, rng)


class TestTseitin:
    def test_single_and_gate_models(self):
        aig = Aig(2)
        f = aig.and_(aig.input_lit(0), aig.input_lit(1))
        cnf, out, var_map = tseitin(aig, f)
        # Project models on the inputs with output asserted.
        models = 0
        for bits in itertools.product([False, True], repeat=2):
            solver = CdclSolver()
            for clause in cnf:
                solver.add_clause(clause)
            solver.add_clause([out])
            for i, bit in enumerate(bits):
                solver.add_clause([var_map[i + 1] if bit else -var_map[i + 1]])
            if solver.solve().is_sat:
                models += 1
                assert all(bits)
        assert models == 1

    def test_encoding_agrees_with_simulation(self):
        sop = Sop.from_string("ab + c'd + a'd'")
        aig = Aig(4)
        f = aig.from_sop(sop)
        cnf, out, var_map = tseitin(aig, f)
        for m in range(16):
            solver = CdclSolver()
            for clause in cnf:
                solver.add_clause(clause)
            for i in range(4):
                solver.add_clause(
                    [var_map[i + 1] if m >> i & 1 else -var_map[i + 1]]
                )
            result = solver.solve()
            assert result.is_sat  # circuit consistency is always satisfiable
            assert result.value(abs(out)) == (
                aig.evaluate(f, m) if out > 0 else not aig.evaluate(f, m)
            )

    def test_shared_cone_encoded_once(self):
        aig = Aig(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        f = aig.and_(a, b)
        g = aig.or_(f, a)
        cnf, _, var_map = tseitin(aig, f)
        clause_count = cnf.num_clauses
        tseitin(aig, g, cnf, var_map)
        # The AND node is reused, only the OR node's 3 clauses are new.
        assert cnf.num_clauses == clause_count + 3


class TestMiter:
    def test_equivalent_functions(self):
        aig = Aig(3)
        a, b, c = (aig.input_lit(i) for i in range(3))
        left = aig.and_(a, aig.or_(b, c))
        right = aig.or_(aig.and_(a, b), aig.and_(a, c))
        # Structural hashing may or may not collapse them; SAT must say
        # equivalent either way.
        eq, cex = equivalent_sat(aig, left, right)
        assert eq and cex is None

    def test_inequivalent_functions_give_counterexample(self):
        aig = Aig(2)
        a, b = aig.input_lit(0), aig.input_lit(1)
        f, g = aig.and_(a, b), aig.or_(a, b)
        eq, cex = equivalent_sat(aig, f, g)
        assert not eq
        assert aig.evaluate(f, cex) != aig.evaluate(g, cex)

    def test_miter_on_identical_literal(self):
        aig = Aig(1)
        x = aig.input_lit(0)
        cnf, _ = miter(aig, x, x)
        solver = CdclSolver()
        ok = True
        for clause in cnf:
            ok = solver.add_clause(clause) and ok
        assert not ok or solver.solve().is_unsat

    def test_budget_exhaustion_raises(self):
        # An UNSAT miter (equivalent functions, structurally different)
        # needs conflicts to refute; a zero budget must raise, not guess.
        tt = TruthTable.from_minterms([3, 5, 6, 7], 3)  # majority
        aig = Aig(3)
        f = aig.from_truthtable(tt)
        g = aig.from_sop(Sop.from_string("ab + ac + bc"))
        with pytest.raises(EncodingError):
            equivalent_sat(aig, f, g, max_conflicts=0)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_sat_equivalence_matches_truthtables(self, num_vars, seed_a, seed_b):
        ta, tb = random_table(num_vars, seed_a), random_table(num_vars, seed_b)
        aig = Aig(num_vars)
        fa, fb = aig.from_truthtable(ta), aig.from_truthtable(tb)
        eq, cex = equivalent_sat(aig, fa, fb)
        assert eq == (ta == tb)
        if not eq:
            assert ta.evaluate(cex) != tb.evaluate(cex)


class TestLatticeCrossCheck:
    def test_lattice_solution_verified_through_aig_miter(self):
        # Second, fully independent verification pipeline for a JANUS
        # solution: lattice truth table -> AIG vs target SOP -> AIG, SAT
        # equivalence on the miter.
        from repro.core import JanusOptions, make_spec, synthesize

        spec = make_spec("ab + a'c", name="crosscheck")
        result = synthesize(spec, options=JanusOptions(max_conflicts=20_000))
        realized = result.assignment.realized_truthtable()
        aig = Aig(spec.num_inputs)
        f = aig.from_truthtable(realized)
        g = aig.from_sop(spec.isop)
        eq, _ = equivalent_sat(aig, f, g)
        assert eq
