"""Workload builders: families -> specs -> canonical wire-schema batches.

The bridge between the generator and everything that consumes work: the
``janus gen`` CLI, the generated-workload modes of the benchmarks, and
``POST /v1/batch``.  ``generated_specs`` is pure and deterministic;
``to_batch_request`` produces the canonical
:class:`~repro.api.schema.BatchRequest` wire form, so two identical
``janus gen`` invocations emit byte-identical JSON.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.core.target import TargetSpec
from repro.gen.ladder import FAMILY_KINDS, ladder, make_family

__all__ = ["generated_specs", "resolve_kinds", "to_batch_request"]

#: The ``--family`` alias meaning "every registered kind".
MIXED = "mixed"


def resolve_kinds(kinds: Union[str, Sequence[str], None]) -> list[str]:
    """Normalize a kind selector: a name, a comma list, ``"mixed"``/None
    for everything.  Unknown names fail in :func:`make_family`."""
    if kinds is None:
        return list(FAMILY_KINDS)
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",") if k.strip()]
    out = []
    for kind in kinds:
        if kind == MIXED:
            out.extend(k for k in FAMILY_KINDS if k not in out)
        elif kind not in out:
            out.append(kind)
    return out or list(FAMILY_KINDS)


def generated_specs(
    kinds: Union[str, Sequence[str], None] = None,
    level: int = 1,
    base_seed: int = 0,
    count: int = 1,
) -> list[TargetSpec]:
    """Sample a deterministic workload: ``count`` seeds per kind.

    Multi-output families contribute every output (named ``...#k``), so
    the result is a flat list of single-output specs any backend can
    consume.
    """
    from repro.gen.families import MultiOutputFamily

    specs: list[TargetSpec] = []
    for family, seed in ladder(
        resolve_kinds(kinds), levels=(level,), count=count,
        base_seed=base_seed,
    ):
        if isinstance(family, MultiOutputFamily):
            specs.extend(family.sample_outputs(seed))
        else:
            specs.append(family.sample(seed))
    return specs


def to_batch_request(
    specs: Iterable[TargetSpec],
    backend: str = "janus",
    options: Optional[object] = None,
):
    """Package specs as a canonical :class:`BatchRequest`.

    Targets cross the wire in the packed-truth-table form (hex onset,
    plus the don't-care set when present), so the JSON is a pure
    function of the specs — reproducibility survives the round trip.
    """
    from repro.api.schema import BatchRequest, RequestOptions, SynthesisRequest

    if options is None:
        options = RequestOptions()
    return BatchRequest(
        requests=tuple(
            SynthesisRequest.from_target(
                spec, name=spec.name, backend=backend, options=options
            )
            for spec in specs
        )
    )
