"""The difficulty ladder: numbered levels -> concrete family parameters.

Levels 0..4 scale each family from smoke-test size (level 0 probes
answer in milliseconds) to sizes where the dichotomic search does real
work.  The tables below are the single source of truth; ``janus gen``
and the benchmarks resolve ``(kind, level)`` through :func:`make_family`
so a level means the same instance everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.errors import ValidationError

if TYPE_CHECKING:
    from repro.gen.families import Family

# The family classes (and the numpy streams they draw from) load when a
# level is first resolved, not when the package is imported.

__all__ = ["FAMILY_KINDS", "LEVELS", "ladder", "make_family"]

LEVELS: tuple[int, ...] = (0, 1, 2, 3, 4)

# Per-level parameters, indexed by level.  Dense random functions blow
# up fast with input count (a random 5-input function at density 0.5 is
# already a multi-minute dichotomic search), so wider levels thin the
# on-set — difficulty still climbs, but smoothly enough that levels 0-1
# stay smoke-test cheap and level 2 is tractable on one core.
_RANDOM = (  # (num_inputs, density)
    (3, 0.5),
    (4, 0.5),
    (5, 0.375),
    (6, 0.3125),
    (7, 0.25),
)
_PLA = (  # (num_inputs, num_cubes, degree, dc_fraction)
    (4, 2, 2, 0.0),
    (5, 3, 3, 0.125),
    (6, 4, 3, 0.125),
    (7, 5, 4, 0.25),
    (8, 7, 4, 0.25),
)
_AUTO = ((4, 1), (4, 2), (5, 2), (6, 3), (7, 3))  # (num_inputs, k)
_DRED = ((4, 2), (4, 3), (5, 3), (6, 4), (7, 5))  # (num_inputs, hull_dim)
_MULTI = ((3, 2), (4, 3), (4, 4), (5, 4), (5, 6))  # (num_inputs, outputs)
_FAULT_INPUTS = (3, 3, 4, 4, 5)


def _random_tt(level: int) -> Family:
    from repro.gen.families import RandomTruthTableFamily

    n, density = _RANDOM[level]
    return RandomTruthTableFamily(level=level, num_inputs=n, density=density)


def _pla(level: int) -> Family:
    from repro.gen.families import PlaCoverFamily

    n, cubes, degree, dc = _PLA[level]
    return PlaCoverFamily(
        level=level, num_inputs=n, num_cubes=cubes, degree=degree,
        dc_fraction=dc,
    )


def _autosymmetric(level: int) -> Family:
    from repro.gen.families import AutosymmetricFamily

    n, k = _AUTO[level]
    return AutosymmetricFamily(level=level, num_inputs=n, autosymmetry=k)


def _dreducible(level: int) -> Family:
    from repro.gen.families import DReducibleFamily

    n, d = _DRED[level]
    return DReducibleFamily(level=level, num_inputs=n, hull_dim=d)


def _multi(level: int) -> Family:
    from repro.gen.families import MultiOutputFamily

    n, outputs = _MULTI[level]
    return MultiOutputFamily(level=level, num_inputs=n, num_outputs=outputs)


def _fault(level: int) -> Family:
    from repro.gen.families import FaultFamily

    return FaultFamily(level=level, num_inputs=_FAULT_INPUTS[level])


FAMILY_KINDS: dict[str, Callable[[int], Family]] = {
    "random-tt": _random_tt,
    "pla-cover": _pla,
    "autosymmetric": _autosymmetric,
    "d-reducible": _dreducible,
    "multi-output": _multi,
    "fault": _fault,
}


def make_family(kind: str, level: int) -> Family:
    """Resolve a ``(kind, level)`` pair to a parameterized family."""
    factory = FAMILY_KINDS.get(kind)
    if factory is None:
        raise ValidationError(
            f"unknown family kind {kind!r}; known: {sorted(FAMILY_KINDS)}"
        )
    if level not in LEVELS:
        raise ValidationError(
            f"unknown ladder level {level!r}; known: {list(LEVELS)}"
        )
    return factory(level)


def ladder(
    kinds: Optional[Sequence[str]] = None,
    levels: Iterable[int] = (0, 1),
    count: int = 1,
    base_seed: int = 0,
) -> list[tuple[Family, int]]:
    """Enumerate ``(family, seed)`` pairs across kinds and levels.

    The canonical way to build a mixed workload: for every kind and
    level, ``count`` consecutive seeds starting at ``base_seed``.  Order
    is deterministic (kinds in registry order, then level, then seed).
    """
    if kinds is None:
        kinds = list(FAMILY_KINDS)
    out: list[tuple[Family, int]] = []
    for kind in kinds:
        for level in levels:
            family = make_family(kind, level)
            for i in range(count):
                out.append((family, base_seed + i))
    return out
