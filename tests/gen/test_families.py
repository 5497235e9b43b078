"""Family generators: seeded reproducibility and structural guarantees."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.core.autosymmetric import autosymmetry_degree
from repro.core.dreducible import is_dreducible
from repro.gen import FAMILY_KINDS, LEVELS, ladder, make_family
from repro.gen.families import MultiOutputFamily

CHEAP_LEVELS = (0, 1)


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@pytest.mark.parametrize("level", CHEAP_LEVELS)
def test_sample_is_reproducible_and_valid(kind, level):
    family = make_family(kind, level)
    a = family.sample(7)
    b = family.sample(7)
    assert a.tt.key() == b.tt.key()
    assert a.name == b.name
    # Multi-output samples are named per component ("...#0"); everything
    # else carries the bare instance name.
    assert a.name.startswith(family.instance_name(7))
    assert (a.dc is None) == (b.dc is None)
    if a.dc is not None:
        assert a.dc.key() == b.dc.key()
    a.validate()
    assert not a.tt.is_zero() and not a.tt.is_one()


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_different_seeds_diverge(kind):
    family = make_family(kind, 0)
    keys = {family.sample(seed).tt.key() for seed in range(6)}
    # Tiny level-0 spaces may collide occasionally, but six consecutive
    # seeds collapsing to one function would mean the stream is ignored.
    assert len(keys) > 1


def test_autosymmetric_family_achieves_degree():
    family = make_family("autosymmetric", 1)
    for seed in range(3):
        spec = family.sample(seed)
        assert autosymmetry_degree(spec.tt) >= family.autosymmetry


def test_dreducible_family_is_dreducible():
    family = make_family("d-reducible", 1)
    for seed in range(3):
        assert is_dreducible(family.sample(seed).tt)


def test_pla_cover_dc_is_disjoint_from_onset():
    family = make_family("pla-cover", 3)  # dc_fraction > 0 at this level
    spec = family.sample(0)
    if spec.dc is not None:
        assert not spec.tt.overlaps(spec.dc)


def test_multi_output_family_names_outputs():
    family = make_family("multi-output", 0)
    outputs = family.sample_outputs(4)
    assert len(outputs) == family.num_outputs
    assert [o.name for o in outputs] == [
        f"{family.instance_name(4)}#{k}" for k in range(len(outputs))
    ]
    # sample() is the first output, so single-output consumers work too.
    assert family.sample(4).tt.key() == outputs[0].tt.key()


def test_fault_family_differs_from_fault_free_base():
    family = make_family("fault", 0)
    a = family.sample(3)
    b = family.sample(3)
    assert a.tt.key() == b.tt.key()
    a.validate()


def test_make_family_rejects_unknown():
    with pytest.raises(ValidationError):
        make_family("no-such-family", 0)
    with pytest.raises(ValidationError):
        make_family("random-tt", 99)


def test_ladder_enumeration_is_deterministic():
    a = ladder(["random-tt", "fault"], levels=(0, 1), count=2, base_seed=5)
    b = ladder(["random-tt", "fault"], levels=(0, 1), count=2, base_seed=5)
    assert [(f.name, s) for f, s in a] == [(f.name, s) for f, s in b]
    assert len(a) == 2 * 2 * 2
    assert [s for _, s in a[:2]] == [5, 6]


def test_levels_cover_the_documented_range():
    assert LEVELS == (0, 1, 2, 3, 4)
    for kind in FAMILY_KINDS:
        for level in LEVELS:
            family = make_family(kind, level)
            assert family.level == level
            assert family.kind == kind
            assert not isinstance(family, MultiOutputFamily) or (
                family.num_outputs > 1
            )
