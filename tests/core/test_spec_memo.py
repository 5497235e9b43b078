"""The process-wide cover memo behind :meth:`TargetSpec.from_truthtable`.

A memoized build must equal a fresh one field by field, keep the
caller's ``name``, stay within its bound under eviction and under
concurrent builders, and take the minimizer off a repeated request.
"""

import random
import sys
import threading

import pytest

import repro.core.target as target_mod
from repro.api import RequestOptions, Session, SynthesisRequest
from repro.boolf import TruthTable, parse_sop
from repro.boolf.minimize import minimize
from repro.core import TargetSpec
from repro.core.janus import synthesize
from repro.core.target import _COVERS, _MEMO_ENTRIES, _MEMO_MAX_VARS


@pytest.fixture
def cold_memo():
    """An empty memo for the test, emptied again afterwards."""
    _COVERS.clear()
    yield _COVERS
    _COVERS.clear()


@pytest.fixture
def minimize_calls(monkeypatch):
    """Count the minimizer calls made through ``repro.core.target``."""
    calls = []
    real = target_mod.minimize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(target_mod, "minimize", counting)
    return calls


def _corpus(seed: int = 32, count: int = 48) -> list[dict]:
    """Seeded ``from_truthtable`` arguments: tables of 3 to 6 inputs,
    some with don't-cares, some with input names, some heuristic."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = rng.randint(3, 6)
        on = rng.getrandbits(1 << n)
        dc = None
        if i % 3 == 1:
            dc = TruthTable(rng.getrandbits(1 << n) & ~on, n)
        names = [f"x{k}" for k in range(n)] if i % 4 == 2 else None
        cases.append(
            dict(tt=TruthTable(on, n), dc=dc, names=names, exact=i % 5 != 3)
        )
    return cases


def _fresh(case: dict, name: str = "f") -> TargetSpec:
    """The spec :meth:`from_truthtable` built before the memo existed."""
    tt, dc, names, exact = case["tt"], case["dc"], case["names"], case["exact"]
    cover = minimize(tt, dc, names=names, exact=exact)
    dual_of = tt.dual() if dc is None else cover.to_truthtable().dual()
    return TargetSpec(
        name=name,
        tt=tt,
        isop=cover.sorted(),
        dual_isop=minimize(dual_of, names=names, exact=exact).sorted(),
        names=tuple(names) if names else None,
        dc=dc if dc is not None and not dc.is_zero() else None,
    )


def _fields(spec: TargetSpec) -> tuple:
    return (
        spec.name,
        spec.tt,
        spec.isop.cubes,
        spec.isop.names,
        spec.dual_isop.cubes,
        spec.dual_isop.names,
        spec.names,
        spec.dc,
    )


def _covers(spec: TargetSpec) -> tuple:
    return (tuple(spec.isop.cubes), tuple(spec.dual_isop.cubes))


class TestMemoizedBuild:
    def test_equals_a_fresh_build_field_by_field(self, cold_memo, minimize_calls):
        corpus = _corpus()
        assert any(c["dc"] is not None for c in corpus)
        assert any(c["names"] is not None for c in corpus)
        assert any(not c["exact"] for c in corpus)
        for case in corpus:
            expected = _fields(_fresh(case))
            assert _fields(TargetSpec.from_truthtable(**case)) == expected
            missed = len(minimize_calls)
            assert _fields(TargetSpec.from_truthtable(**case)) == expected
            assert len(minimize_calls) == missed  # the second build hit

    def test_names_dc_and_exact_are_separate_entries(
        self, cold_memo, minimize_calls
    ):
        tt = TruthTable.from_function(lambda b: (b[0] and b[1]) or b[2], 3)
        variants = [
            dict(),
            dict(names=["p", "q", "r"]),
            dict(dc=TruthTable.from_function(lambda b: not any(b), 3)),
            dict(exact=False),
        ]
        for k, extra in enumerate(variants, start=1):
            before = len(minimize_calls)
            TargetSpec.from_truthtable(tt, **extra)
            assert len(cold_memo) == k
            assert len(minimize_calls) == before + 2
        for extra in variants:
            TargetSpec.from_truthtable(tt, **extra)
        assert len(cold_memo) == len(variants)
        assert len(minimize_calls) == 2 * len(variants)

    def test_another_name_shares_the_covers(self, cold_memo):
        tt = parse_sop("ab + a'c").to_truthtable()
        first = TargetSpec.from_truthtable(tt, name="first")
        second = TargetSpec.from_truthtable(tt, name="second")
        assert (first.name, second.name) == ("first", "second")
        assert second.isop is first.isop
        assert second.dual_isop is first.dual_isop

    def test_bound_holds_oldest_evicted_first(self, cold_memo, minimize_calls):
        tables = [TruthTable(bits, 4) for bits in range(1, _MEMO_ENTRIES + 2)]
        for tt in tables:
            TargetSpec.from_truthtable(tt)
        assert len(cold_memo) == _MEMO_ENTRIES
        before = len(minimize_calls)
        TargetSpec.from_truthtable(tables[-1])
        assert len(minimize_calls) == before  # the newest is kept
        TargetSpec.from_truthtable(tables[0])
        assert len(minimize_calls) == before + 2  # the oldest went
        assert len(cold_memo) == _MEMO_ENTRIES

    def test_wide_tables_are_not_kept(self, cold_memo):
        wide = _MEMO_MAX_VARS + 1
        TargetSpec.from_truthtable(TruthTable.variable(0, wide), exact=False)
        assert len(cold_memo) == 0

    def test_threads_building_the_same_specs_agree(self, cold_memo):
        cases = _corpus(seed=7, count=64)
        expected = [_covers(_fresh(case)) for case in cases]
        results: list = [None] * 8
        barrier = threading.Barrier(len(results))

        def build(slot: int) -> None:
            barrier.wait()
            results[slot] = [
                _covers(TargetSpec.from_truthtable(**case)) for case in cases
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        assert len(cold_memo) == len(cases)


class TestRequestPath:
    def test_repeated_post_runs_no_minimize(
        self, cold_memo, minimize_calls, tmp_path
    ):
        from repro.server.core import ServiceCore

        def body(name: str) -> bytes:
            return SynthesisRequest.from_target(
                "cd + c'd' + abe",
                name=name,
                options=RequestOptions(max_conflicts=20_000),
            ).to_json().encode("utf-8")

        with ServiceCore(pool=1, cache=str(tmp_path)) as core:
            first = core.handle("POST", "/v1/synthesize", body("first"))
            assert first.status == 200
            assert len(minimize_calls) >= 2
            before = len(minimize_calls)
            for name in ("first", "renamed"):
                answer = core.handle("POST", "/v1/synthesize", body(name))
                assert answer.status == 200
                assert f'"name":"{name}"' in answer.body.decode("utf-8")
            assert len(minimize_calls) == before

    @pytest.mark.parametrize("name", ["misex1_02", "clpl_00"])
    def test_table2_request_reuses_the_instance_covers(
        self, name, cold_memo, minimize_calls
    ):
        pytest.importorskip("numpy")
        from repro.bench.instances import build_instance

        # Unwrapped: build_instance's own lru_cache may predate this
        # test's cold memo.
        spec = build_instance.__wrapped__(name)
        before = len(minimize_calls)
        rebuilt = SynthesisRequest.from_target(spec).to_spec()
        assert len(minimize_calls) == before
        assert _fields(rebuilt) == _fields(spec)

    def test_live_spec_keeps_its_own_cover(self, cold_memo):
        minimal = TargetSpec.from_string("ab + a'c + bc")
        custom = TargetSpec(
            name="f",
            tt=minimal.tt,
            isop=parse_sop("ab + a'c + bc"),
            dual_isop=minimal.dual_isop,
            names=minimal.names,
        )
        custom.validate()
        assert custom.num_products == 3 > minimal.num_products
        with Session() as session:
            answer = session.synthesize(custom)
        own = synthesize(custom)
        assert answer.result.upper_bounds == own.upper_bounds
        assert own.upper_bounds != synthesize(minimal).upper_bounds
        # Nor did the live spec's cover reach the memo.
        again = TargetSpec.from_truthtable(minimal.tt, names=minimal.names)
        assert again.isop is minimal.isop
