"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.boolf import Cube, Sop, TruthTable
from repro.core import JanusOptions


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running soak/stress tests (run with -m slow on the "
        "nightly path; brief versions run by default)",
    )


@pytest.fixture
def rng():
    """A seeded ``numpy.random.Generator``; numpy loads only when a test
    asks for it, so the numpy-free tests run without numpy installed."""
    import numpy as np

    return np.random.default_rng(12345)


@pytest.fixture
def fast_options() -> JanusOptions:
    """Small budgets for unit tests."""
    return JanusOptions(max_conflicts=20_000)


# ------------------------------------------------------ hypothesis strategies
def truthtables(num_vars: int = 4):
    """Strategy producing TruthTable objects over ``num_vars`` variables."""
    size = 1 << num_vars
    return st.integers(min_value=0, max_value=(1 << size) - 1).map(
        lambda bits: TruthTable(bits, num_vars)
    )


def cubes(num_vars: int = 4):
    """Strategy producing consistent cubes over ``num_vars`` variables."""

    def build(choices: list[int]) -> Cube:
        pos = neg = 0
        for var, c in enumerate(choices):
            if c == 1:
                pos |= 1 << var
            elif c == 2:
                neg |= 1 << var
        return Cube(pos, neg, num_vars)

    return st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=num_vars,
        max_size=num_vars,
    ).map(build)


def sops(num_vars: int = 4, max_products: int = 5):
    return st.lists(cubes(num_vars), min_size=0, max_size=max_products).map(
        lambda cs: Sop(cs, num_vars)
    )
