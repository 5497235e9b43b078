"""D-reducible-function decomposition (the method of [8]).

A function ``f`` over n variables is *D-reducible* when its onset is
contained in an affine subspace ``A`` strictly smaller than the whole
cube.  Writing ``A = p ^ span(B)`` for a base point ``p`` and a basis
``B`` of dimension d < n, the function factors as

    f(x) = chi_A(x) AND f_A(pi(x))

where ``chi_A`` is the characteristic function of ``A`` and ``f_A`` is
the *projection* of ``f`` onto d coordinates of ``A``.  Bernasconi,
Ciriani, Frontini and Trucco synthesize the small projection exactly and
attach the characteristic-function logic; the JANUS paper cites this as
the VLSI-SoC 2016 baseline and notes that "not every logic function can
be represented in the D-reducible form".

This module reproduces that flow honestly for the simulator setting:

* :func:`affine_hull` — smallest affine space containing the onset,
* :func:`reduce_dreducible` — base point, basis, the d projection
  coordinates, the affine constraints and the projection function,
* :func:`synthesize_dreducible` — JANUS on the projection; the affine
  constraints split into *cube constraints* (a variable fixed to a
  constant — realizable on the lattice rows directly, as [8] does) and
  general *EXOR constraints* (external parity gates, reported like the
  p-circuit/autosymmetry baselines do).  Composition is verified on
  every input vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import SynthesisError
from repro.boolf.gf2 import dot, row_reduce
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.janus import JanusOptions, SynthesisResult, make_spec, synthesize
from repro.core.target import TargetSpec

__all__ = [
    "AffineSpace",
    "DReducibleReduction",
    "DReducibleResult",
    "affine_hull",
    "is_dreducible",
    "reduce_dreducible",
    "synthesize_dreducible",
]


@dataclass
class AffineSpace:
    """``point ^ span(basis)`` inside GF(2)^num_vars."""

    point: int
    basis: list[int]
    num_vars: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, vector: int) -> bool:
        shifted = vector ^ self.point
        for b in self.basis:
            shifted = min(shifted, shifted ^ b)
        return shifted == 0

    def characteristic(self) -> TruthTable:
        """Truth table of ``chi_A``."""
        return TruthTable.from_values(
            map(self.contains, range(1 << self.num_vars)), self.num_vars
        )

    def constraints(self) -> list[tuple[int, int]]:
        """Affine constraints ``(mask, bit)``: x in A iff
        ``dot(mask, x) == bit`` for every pair.

        There are ``num_vars - dimension`` of them (a basis of the
        orthogonal complement, each with its right-hand side).
        """
        from repro.boolf.gf2 import orthogonal_complement

        masks = orthogonal_complement(self.basis, self.num_vars)
        return [(mask, dot(mask, self.point)) for mask in masks]


def affine_hull(tt: TruthTable) -> AffineSpace:
    """Smallest affine space containing the onset of ``tt``.

    Raises :class:`~repro.errors.SynthesisError` for the constant-0
    function, whose onset is empty.
    """
    onset = tt.onset()
    if not onset:
        raise SynthesisError("the zero function has no affine hull")
    point = onset[0]
    basis = row_reduce(m ^ point for m in onset[1:])
    return AffineSpace(point, basis, tt.num_vars)


def is_dreducible(tt: TruthTable) -> bool:
    """True iff the affine hull is a proper subspace of the cube."""
    if tt.is_zero():
        return False
    return affine_hull(tt).dimension < tt.num_vars


@dataclass
class DReducibleReduction:
    """Outcome of :func:`reduce_dreducible`."""

    hull: AffineSpace
    projection: TruthTable  # f_A over hull.dimension variables
    # Constraints fixing single variables: (var, value) — lattice-friendly.
    cube_constraints: list[tuple[int, int]]
    # General parity constraints: (mask, bit) with mask of weight >= 2.
    exor_constraints: list[tuple[int, int]]

    def embed(self, y: int) -> int:
        """Map a projection input vector back into the affine space."""
        x = self.hull.point
        for i, b in enumerate(self.hull.basis):
            if y >> i & 1:
                x ^= b
        return x

    def project(self, x: int) -> int:
        """Coordinates of ``x`` in the hull basis (meaningful when
        ``hull.contains(x)``)."""
        shifted = x ^ self.hull.point
        y = 0
        for i, b in enumerate(self.hull.basis):
            lead = 1 << (b.bit_length() - 1)
            if shifted & lead:
                shifted ^= b
                y |= 1 << i
        return y

    def compose(self, x: int) -> bool:
        """``chi_A(x) AND f_A(pi(x))`` — must equal ``f(x)``."""
        if not self.hull.contains(x):
            return False
        return self.projection.evaluate(self.project(x))


def reduce_dreducible(tt: TruthTable) -> DReducibleReduction:
    """Compute the D-reducible decomposition of ``tt``."""
    hull = affine_hull(tt)
    d = hull.dimension
    reduction = DReducibleReduction(hull, tt, [], [])
    reduction.projection = TruthTable.from_values(
        (tt.evaluate(reduction.embed(y)) for y in range(1 << d)), d
    )
    for mask, bit in hull.constraints():
        if mask.bit_count() == 1:
            reduction.cube_constraints.append((mask.bit_length() - 1, bit))
        else:
            reduction.exor_constraints.append((mask, bit))
    return reduction


@dataclass
class DReducibleResult:
    """Lattice for the projection plus the characteristic-function logic."""

    reduction: DReducibleReduction
    synthesis: SynthesisResult
    wall_time: float = 0.0

    @property
    def lattice_size(self) -> int:
        return self.synthesis.size

    @property
    def num_exor_gates(self) -> int:
        return len(self.reduction.exor_constraints)

    def evaluate(self, minterm: int) -> bool:
        if not self.reduction.hull.contains(minterm):
            return False
        return self.synthesis.assignment.evaluate(
            self.reduction.project(minterm)
        )

    def realized_truthtable(self) -> TruthTable:
        n = self.reduction.hull.num_vars
        return TruthTable.from_values(map(self.evaluate, range(1 << n)), n)


def synthesize_dreducible(
    target: Union[TargetSpec, Sop, TruthTable, str],
    options: JanusOptions = JanusOptions(),
    name: str = "f",
) -> DReducibleResult:
    """The [8]-style flow: project onto the affine hull, synthesize the
    projection with JANUS, verify the composition.

    Works for any non-zero function; the decomposition only *wins* when
    the function is properly D-reducible (hull dimension < n).
    """
    import time

    start = time.monotonic()
    spec = make_spec(target, name=name)
    reduction = reduce_dreducible(spec.tt)
    projection_spec = TargetSpec.from_truthtable(
        reduction.projection,
        name=f"{name}_A",
        exact=options.exact_minimization,
    )
    synthesis = synthesize(projection_spec, options)
    result = DReducibleResult(reduction, synthesis)
    result.wall_time = time.monotonic() - start
    if options.verify and result.realized_truthtable() != spec.tt:
        raise SynthesisError(
            "D-reducible composition does not reproduce the target"
        )
    return result
