"""Autosymmetric-function decomposition (the method of [10]).

A function ``f`` over n variables is *k-autosymmetric* when its linear
space

    L_f = { alpha : f(x ^ alpha) = f(x) for all x }

has dimension k > 0.  Then f factors through the quotient of the cube by
L_f: there exist n-k GF(2) linear functionals ``c_1..c_{n-k}`` (a basis
of the orthogonal complement of L_f) and a *restriction function* ``f_k``
over n-k variables with

    f(x) = f_k(c_1 . x, ..., c_{n-k} . x).

Bernasconi et al. exploit this for lattice synthesis: synthesize the
(smaller) restriction on a lattice and feed its inputs through EXOR gates
computing the functionals — extra logic outside the lattice, which the
JANUS paper's related-work section notes "may not be desirable", but
often a large area win.  This module reproduces that flow:

* :func:`linear_space` / :func:`autosymmetry_degree` — detect L_f,
* :func:`reduce_autosymmetric` — the reduction (functionals + f_k),
* :func:`synthesize_autosymmetric` — run JANUS on the restriction and
  package the full decomposition, with an end-to-end verification that
  the composition reproduces ``f`` on every input vector.

A functional is *trivial* when it is a single variable (no EXOR gate
needed); :attr:`AutosymmetricResult.num_exor_gates` counts only the
non-trivial ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import SynthesisError
from repro.boolf.gf2 import dot, orthogonal_complement, row_reduce
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable, _flip
from repro.core.janus import JanusOptions, SynthesisResult, make_spec, synthesize
from repro.core.target import TargetSpec

__all__ = [
    "AutosymmetricResult",
    "autosymmetry_degree",
    "linear_space",
    "reduce_autosymmetric",
    "synthesize_autosymmetric",
]


def linear_space(tt: TruthTable) -> list[int]:
    """Reduced basis of ``L_f`` (bitmask vectors; empty list for k = 0).

    Brute-forces the defining condition over every candidate, visited in
    Gray-code order so each step is one input-polarity flip of the packed
    table; fine for the at-most-16-input functions handled here.  Constant
    functions have ``L_f`` equal to the whole cube.
    """
    n = tt.num_vars
    shifted, alpha = tt.bits, 0
    members = []
    for step in range(1, 1 << n):
        var = (step & -step).bit_length() - 1
        alpha ^= 1 << var
        shifted = _flip(shifted, var, n)
        if shifted == tt.bits:
            members.append(alpha)
    return row_reduce(sorted(members))


def autosymmetry_degree(tt: TruthTable) -> int:
    """The k in "k-autosymmetric" (0 for functions with trivial L_f)."""
    return len(linear_space(tt))


@dataclass
class AutosymmetricReduction:
    """Outcome of :func:`reduce_autosymmetric`."""

    degree: int  # k
    basis: list[int]  # reduced basis of L_f
    functionals: list[int]  # n-k masks; functional i is dot(mask_i, x)
    restriction: TruthTable  # f_k over n-k variables

    def project(self, minterm: int) -> int:
        """Map an input vector to the restriction's input vector."""
        out = 0
        for i, mask in enumerate(self.functionals):
            out |= dot(mask, minterm) << i
        return out

    def compose(self, minterm: int) -> bool:
        """Evaluate ``f_k(c(x))`` — must equal ``f(x)``."""
        return self.restriction.evaluate(self.project(minterm))


def reduce_autosymmetric(tt: TruthTable) -> AutosymmetricReduction:
    """Compute the autosymmetry reduction of ``tt``.

    For k = 0 the reduction is trivial (functionals are the identity and
    the restriction is ``tt`` itself).
    """
    basis = linear_space(tt)
    k = len(basis)
    n = tt.num_vars
    functionals = orthogonal_complement(basis, n) if k else [
        1 << i for i in range(n)
    ]
    if len(functionals) != n - k:
        raise SynthesisError(
            f"orthogonal complement has dimension {len(functionals)}, "
            f"expected {n - k}"
        )
    # f_k(y) = f(x) for any x with c(x) = y.  Build a representative per y
    # by scanning the cube once; every y is hit because c is surjective.
    values: list[Optional[bool]] = [None] * (1 << (n - k))
    reduction = AutosymmetricReduction(k, basis, functionals, tt)
    for x in range(1 << n):
        y = reduction.project(x)
        if values[y] is None:
            values[y] = tt.evaluate(x)
    if None in values:
        raise SynthesisError("projection missed a restriction input")
    reduction.restriction = TruthTable.from_values(values, n - k)
    return reduction


@dataclass
class AutosymmetricResult:
    """A lattice for the restriction plus the EXOR input network."""

    reduction: AutosymmetricReduction
    synthesis: SynthesisResult
    wall_time: float = 0.0

    @property
    def lattice_size(self) -> int:
        return self.synthesis.size

    @property
    def num_exor_gates(self) -> int:
        """Functionals needing a real EXOR gate (fan-in >= 2)."""
        return sum(
            1 for mask in self.reduction.functionals if mask.bit_count() >= 2
        )

    def evaluate(self, minterm: int) -> bool:
        """Full composition: EXOR network feeding the lattice."""
        return self.synthesis.assignment.evaluate(
            self.reduction.project(minterm)
        )

    def realized_truthtable(self) -> TruthTable:
        # The original universe size, recovered from the reduction.
        n = len(self.reduction.functionals) + self.reduction.degree
        return TruthTable.from_values(map(self.evaluate, range(1 << n)), n)


def synthesize_autosymmetric(
    target: Union[TargetSpec, Sop, TruthTable, str],
    options: JanusOptions = JanusOptions(),
    name: str = "f",
) -> AutosymmetricResult:
    """The [10]-style flow: reduce, synthesize the restriction, verify."""
    import time

    start = time.monotonic()
    spec = make_spec(target, name=name)
    reduction = reduce_autosymmetric(spec.tt)
    restriction_spec = TargetSpec.from_truthtable(
        reduction.restriction, name=f"{name}_k", exact=options.exact_minimization
    )
    synthesis = synthesize(restriction_spec, options)
    result = AutosymmetricResult(reduction, synthesis)
    result.wall_time = time.monotonic() - start
    if options.verify and result.realized_truthtable() != spec.tt:
        raise SynthesisError(
            "autosymmetric composition does not reproduce the target"
        )
    return result
