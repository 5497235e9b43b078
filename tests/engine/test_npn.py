"""NPN-class suite-cache aliasing: NP-equivalent functions share one
whole-result entry (opt-in), with the donor lattice relabeled through
the input transform and re-verified before it is trusted."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolf.truthtable import TruthTable
from repro.core.janus import JanusOptions
from repro.core.target import TargetSpec
from repro.engine import ParallelEngine
from repro.engine.signature import InputTransform, npn_alias_key, npn_canonical

OPTS = JanusOptions(max_conflicts=10_000)


class TestInputTransform:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_inverse_and_compose_laws(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        tt = TruthTable.from_values(rng.random(1 << n) < 0.5, n)
        perm_a = tuple(rng.permutation(n).tolist())
        perm_b = tuple(rng.permutation(n).tolist())
        a = InputTransform(perm_a, int(rng.integers(0, 1 << n)))
        b = InputTransform(perm_b, int(rng.integers(0, 1 << n)))
        assert a.inverse().apply_tt(a.apply_tt(tt)) == tt
        assert a.compose(b).apply_tt(tt) == a.apply_tt(b.apply_tt(tt))

    def test_entry_transform_matches_function_transform(self):
        # x0 & ~x1 under swap+negate
        t = InputTransform((1, 0), 0b01)
        assert t.apply_entry(0, True) == (1, False)
        assert t.apply_entry(1, False) == (0, False)
        assert t.apply_entry(None, True) == (None, True)


class TestCanonicalization:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_np_equivalent_specs_share_canonical_form(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        bits = rng.random(1 << n) < 0.5
        if not bits.any() or bits.all():
            bits[0] = True
            bits[-1] = False
        tt = TruthTable.from_values(bits, n)
        t = InputTransform(
            tuple(rng.permutation(n).tolist()), int(rng.integers(0, 1 << n))
        )
        spec_a = TargetSpec.from_truthtable(tt, name="a")
        spec_b = TargetSpec.from_truthtable(t.apply_tt(tt), name="b")
        canon_a = npn_canonical(spec_a)
        canon_b = npn_canonical(spec_b)
        assert canon_a is not None and canon_b is not None
        assert canon_a[0] == canon_b[0]
        # The recorded transforms actually reach the canonical form.
        fp_a, t_a = canon_a
        reached = t_a.apply_tt(tt)
        assert reached.to_bytes().hex() == fp_a["tt"]

    def test_wide_inputs_fall_back_to_none(self):
        rng = np.random.default_rng(0)
        bits = rng.random(1 << 7) < 0.5
        spec = TargetSpec.from_truthtable(
            TruthTable.from_values(bits, 7), name="wide"
        )
        assert npn_canonical(spec) is None
        assert npn_alias_key(spec, OPTS) is None


class TestAliasSharing:
    def test_equivalent_functions_share_suite_entry(self, tmp_path):
        cache = tmp_path / "cache"
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            donor = engine.synthesize("ab + ac'", name="donor", options=OPTS)
            assert engine.stats.npn_hits == 0
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            twin = engine.synthesize("ab + bc'", name="twin", options=OPTS)
            assert engine.stats.npn_hits == 1
            assert engine.stats.solver_calls == 0  # whole result reused
            assert twin.size == donor.size
            # The relabeled lattice genuinely realizes the twin target.
            assert twin.spec.accepts(twin.assignment.realized_truthtable())

    def test_npn_off_by_default(self, tmp_path):
        cache = tmp_path / "cache"
        with ParallelEngine(jobs=1, cache=cache) as engine:
            engine.synthesize("ab + ac'", name="donor", options=OPTS)
        with ParallelEngine(jobs=1, cache=cache) as engine:
            engine.synthesize("ab + bc'", name="twin", options=OPTS)
            assert engine.stats.npn_hits == 0
            assert engine.stats.suite_hits == 0  # no whole-result reuse

    def test_exact_entry_takes_precedence_over_alias(self, tmp_path):
        """A warm re-run of the same spec must serve its own entry, so
        results stay byte-identical run over run even with npn on."""
        cache = tmp_path / "cache"
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            first = engine.synthesize("ab + ac'", name="f", options=OPTS)
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            second = engine.synthesize("ab + ac'", name="f", options=OPTS)
            assert engine.stats.suite_hits == 1
            assert engine.stats.npn_hits == 0
        assert first.assignment.entries == second.assignment.entries

    def test_corrupt_alias_degrades_to_miss(self, tmp_path):
        from repro.engine.signature import npn_alias_key

        cache = tmp_path / "cache"
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            engine.synthesize("ab + ac'", name="donor", options=OPTS)
        # Point the twin's alias at a missing exact entry.
        from repro.core.janus import make_spec

        twin_spec = make_spec("ab + bc'", name="twin")
        alias_key, _ = npn_alias_key(twin_spec, OPTS)
        from repro.engine.cache import ResultCache

        ResultCache(cache).put(
            alias_key,
            {"kind": "npn-alias", "exact_key": "0" * 64,
             "perm": [0, 1, 2], "mask": 0},
        )
        with ParallelEngine(jobs=1, cache=cache, npn=True) as engine:
            result = engine.synthesize("ab + bc'", name="twin", options=OPTS)
            assert engine.stats.npn_hits == 0
            assert result.spec.accepts(result.assignment.realized_truthtable())
