"""Seeded instance families: parameterized distributions over targets.

Every family is a frozen dataclass whose :meth:`Family.sample` maps a
seed to a fully-built :class:`~repro.core.target.TargetSpec`.  The
seeding contract is the one :mod:`repro.bench.instances` established:

* streams come from ``numpy.random.default_rng`` seeded with a tuple of
  plain integers — a package salt, the crc32 of the family kind (never
  ``hash()``, which is salted per process), the level, the seed, and a
  stream index — so two families, levels, or purposes never share a
  stream even on equal seeds;
* rejection loops are bounded (``MAX_DRAWS``) and advance the *same*
  stream, so acceptance after k rejections is itself deterministic;
* no module-level ``random``/``os.urandom`` anywhere — the janalyze
  determinism checker scopes this package and enforces exactly that.

The same ``(family, seed)`` therefore produces byte-identical specs in
any process on any platform, which is what lets two ``janus gen`` runs
be compared with ``cmp`` in CI.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from repro.errors import SynthesisError
from repro.boolf.cube import Cube
from repro.boolf.gf2 import row_reduce
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.target import TargetSpec

__all__ = [
    "MAX_DRAWS",
    "Family",
    "RandomTruthTableFamily",
    "PlaCoverFamily",
    "AutosymmetricFamily",
    "DReducibleFamily",
    "MultiOutputFamily",
    "FaultFamily",
]

#: Package-wide salt folded into every stream, so generated workloads
#: can never collide with the Table II reconstruction streams (which
#: seed with bare ``(base_seed, attempt, ...)`` tuples).
GEN_SALT = 0x4A414E55  # "JANU"

#: Bound on every rejection-sampling loop: drawing this many candidates
#: without an acceptable one is a bug in the family's parameters, not
#: bad luck, and raises :class:`~repro.errors.SynthesisError`.
MAX_DRAWS = 256


def _independent_masks(
    rng: np.random.Generator, num_vars: int, count: int
) -> list[int]:
    """``count`` linearly independent GF(2) vectors over ``num_vars``."""
    masks: list[int] = []
    for _ in range(MAX_DRAWS):
        if len(masks) == count:
            break
        cand = int(rng.integers(1, 1 << num_vars))
        if len(row_reduce(masks + [cand])) == len(masks) + 1:
            masks.append(cand)
    if len(masks) != count:
        raise SynthesisError(
            f"could not draw {count} independent GF(2) vectors over "
            f"{num_vars} variables within {MAX_DRAWS} draws"
        )
    return masks


def _random_cube(
    rng: np.random.Generator, num_inputs: int, size: int
) -> Cube:
    chosen = rng.choice(num_inputs, size=size, replace=False)
    polarity = rng.integers(0, 2, size=size)
    return Cube.from_literals(
        [(int(v), bool(p)) for v, p in zip(chosen, polarity)], num_inputs
    )


@dataclass(frozen=True)
class Family:
    """A seeded distribution over synthesis targets.

    Subclasses set :attr:`kind` and implement :meth:`sample`.  ``level``
    is the family's rung on the difficulty ladder (see
    :mod:`repro.gen.ladder`) — it participates in naming and seeding, so
    the same seed at different levels yields unrelated instances.
    """

    kind: ClassVar[str] = "abstract"
    level: int = 0

    @property
    def name(self) -> str:
        return f"{self.kind}-L{self.level}"

    def instance_name(self, seed: int) -> str:
        return f"{self.name}:{seed}"

    def rng(self, seed: int, stream: int = 0) -> np.random.Generator:
        """The family's deterministic stream for one seed.

        ``stream`` separates independent purposes sharing a seed (0 is
        :meth:`sample`'s draw stream; :func:`repro.gen.twins.make_twins`
        callers use 1 for the minterm-flip stream).
        """
        return np.random.default_rng((
            GEN_SALT,
            zlib.crc32(self.kind.encode()),
            int(self.level),
            int(seed),
            int(stream),
        ))

    def sample(self, seed: int) -> TargetSpec:
        raise NotImplementedError

    def _exhausted(self, seed: int) -> SynthesisError:
        return SynthesisError(
            f"family {self.name} drew {MAX_DRAWS} candidates for seed "
            f"{seed} without an acceptable function — the parameters are "
            "degenerate"
        )

    def _usable(self, tt: TruthTable) -> bool:
        """Constant functions synthesize trivially; reject them."""
        return not tt.is_zero() and not tt.is_one()


@dataclass(frozen=True)
class RandomTruthTableFamily(Family):
    """Uniform random truth tables at a target on-set density.

    The unstructured end of the ladder: high-density functions of many
    variables have large irredundant covers and exercise the dichotomic
    search hardest.
    """

    kind: ClassVar[str] = "random-tt"
    num_inputs: int = 4
    density: float = 0.5

    def sample(self, seed: int) -> TargetSpec:
        rng = self.rng(seed)
        for _ in range(MAX_DRAWS):
            tt = TruthTable.random(self.num_inputs, rng, density=self.density)
            if self._usable(tt):
                return TargetSpec.from_truthtable(
                    tt, name=self.instance_name(seed)
                )
        raise self._exhausted(seed)


@dataclass(frozen=True)
class PlaCoverFamily(Family):
    """Random PLA-style covers, optionally with a don't-care set.

    Mirrors how the LGSynth91 slices look: a handful of cubes of bounded
    degree.  ``dc_fraction > 0`` marks that fraction of the offset as
    don't-care, exercising the interval-minimization path the paper does
    not cover.
    """

    kind: ClassVar[str] = "pla-cover"
    num_inputs: int = 5
    num_cubes: int = 4
    degree: int = 3
    dc_fraction: float = 0.0

    def sample(self, seed: int) -> TargetSpec:
        rng = self.rng(seed)
        lo = max(1, self.degree - 1)
        for _ in range(MAX_DRAWS):
            cubes: set[Cube] = set()
            guard = 0
            while len(cubes) < self.num_cubes and guard < 16 * MAX_DRAWS:
                guard += 1
                size = int(rng.integers(lo, self.degree + 1))
                cubes.add(_random_cube(rng, self.num_inputs, size))
            tt = Sop(sorted(cubes), self.num_inputs).to_truthtable()
            if not self._usable(tt):
                continue
            dc = self._draw_dc(rng, tt)
            return TargetSpec.from_truthtable(
                tt, name=self.instance_name(seed), dc=dc
            )
        raise self._exhausted(seed)

    def _draw_dc(
        self, rng: np.random.Generator, onset: TruthTable
    ) -> Optional[TruthTable]:
        if self.dc_fraction <= 0.0:
            return None
        raw = TruthTable.random(
            self.num_inputs, rng, density=self.dc_fraction
        )
        dc = raw - onset
        # Keep the admissible interval proper: some don't-cares, but not
        # "everything above the onset is fine" (constant-1 admissible).
        if dc.is_zero() or (onset | dc).is_one():
            return None
        return dc


@dataclass(frozen=True)
class AutosymmetricFamily(Family):
    """Functions that are k-autosymmetric by construction.

    Draws a restriction ``f_k`` over ``n - k`` variables and ``n - k``
    independent GF(2) functionals ``c_i``, then composes
    ``f(x) = f_k(c_1.x, ..., c_{n-k}.x)`` — the factorization
    :mod:`repro.core.autosymmetric` detects.  The kernel of the linear
    map has dimension k, so ``autosymmetry_degree(f) >= k`` always.
    """

    kind: ClassVar[str] = "autosymmetric"
    num_inputs: int = 5
    autosymmetry: int = 2  # guaranteed lower bound on the degree k
    density: float = 0.5

    def sample(self, seed: int) -> TargetSpec:
        n, k = self.num_inputs, self.autosymmetry
        if not 0 < k < n:
            raise SynthesisError(
                f"autosymmetry degree {k} must satisfy 0 < k < {n}"
            )
        rng = self.rng(seed)
        for _ in range(MAX_DRAWS):
            masks = _independent_masks(rng, n, n - k)
            restriction = TruthTable.random(n - k, rng, density=self.density)
            if not self._usable(restriction):
                continue
            tt = TruthTable.from_values(
                (restriction.evaluate(_project(x, masks)) for x in range(1 << n)),
                n,
            )
            if self._usable(tt):
                return TargetSpec.from_truthtable(
                    tt, name=self.instance_name(seed)
                )
        raise self._exhausted(seed)


def _project(x: int, masks: list[int]) -> int:
    """Map an input vector through GF(2) functionals (parity per mask)."""
    y = 0
    for j, mask in enumerate(masks):
        y |= (bin(x & mask).count("1") & 1) << j
    return y


@dataclass(frozen=True)
class DReducibleFamily(Family):
    """Functions whose onset lives in a proper affine subspace.

    Draws a base point, a ``hull_dim``-dimensional basis and a projection
    function over the basis coordinates; the onset is the image of the
    projection's onset inside the affine space, so
    :func:`repro.core.dreducible.is_dreducible` holds by construction.
    """

    kind: ClassVar[str] = "d-reducible"
    num_inputs: int = 5
    hull_dim: int = 3
    density: float = 0.5

    def sample(self, seed: int) -> TargetSpec:
        n, d = self.num_inputs, self.hull_dim
        if not 0 < d < n:
            raise SynthesisError(
                f"hull dimension {d} must satisfy 0 < d < {n}"
            )
        rng = self.rng(seed)
        for _ in range(MAX_DRAWS):
            basis = _independent_masks(rng, n, d)
            point = int(rng.integers(0, 1 << n))
            projection = TruthTable.random(d, rng, density=self.density)
            if not self._usable(projection):
                continue
            bits = 0
            for y in projection.onset():
                vec = point
                for j, mask in enumerate(basis):
                    if y >> j & 1:
                        vec ^= mask
                bits |= 1 << vec
            # Non-constant is guaranteed: the onset is non-empty and
            # fits inside 2**d < 2**n points.
            return TargetSpec.from_truthtable(
                TruthTable(bits, n), name=self.instance_name(seed)
            )
        raise self._exhausted(seed)


@dataclass(frozen=True)
class MultiOutputFamily(Family):
    """Multi-output specs over a shared input universe.

    :meth:`sample_outputs` yields one spec per output (named
    ``...#k``), the form :func:`repro.core.multi.synthesize_multi` and
    the straightforward-merge path consume; :meth:`sample` returns the
    first output so the family still satisfies the uniform contract.
    """

    kind: ClassVar[str] = "multi-output"
    num_inputs: int = 4
    num_outputs: int = 3
    density: float = 0.5

    def sample_outputs(self, seed: int) -> tuple[TargetSpec, ...]:
        rng = self.rng(seed)
        specs: list[TargetSpec] = []
        for k in range(self.num_outputs):
            for _ in range(MAX_DRAWS):
                tt = TruthTable.random(
                    self.num_inputs, rng, density=self.density
                )
                if self._usable(tt):
                    specs.append(
                        TargetSpec.from_truthtable(
                            tt, name=f"{self.instance_name(seed)}#{k}"
                        )
                    )
                    break
            else:
                raise self._exhausted(seed)
        return tuple(specs)

    def sample(self, seed: int) -> TargetSpec:
        return self.sample_outputs(seed)[0]


@dataclass(frozen=True)
class FaultFamily(Family):
    """Fault-tolerance scenarios driven by :mod:`repro.lattice.faults`.

    Synthesizes a seeded base function, injects one seeded non-vacuous
    stuck-at fault into the resulting lattice, and targets the faulty
    lattice's *realized* function — "what does the defective part
    actually compute, and what is its minimal lattice" specs.  Sampling
    runs a full (deterministic) synthesis per draw, so the family stays
    on small input counts.
    """

    kind: ClassVar[str] = "fault"
    num_inputs: int = 3
    density: float = 0.5
    max_conflicts: int = 20_000

    def sample(self, seed: int) -> TargetSpec:
        from repro.core.janus import JanusOptions, synthesize
        from repro.lattice.faults import fault_universe, inject

        rng = self.rng(seed)
        options = JanusOptions(max_conflicts=self.max_conflicts)
        name = self.instance_name(seed)
        for _ in range(MAX_DRAWS):
            tt = TruthTable.random(self.num_inputs, rng, density=self.density)
            if not self._usable(tt):
                continue
            base = TargetSpec.from_truthtable(tt, name=name)
            result = synthesize(base, name=name, options=options)
            faults = fault_universe(result.assignment)
            for idx in rng.permutation(len(faults)):
                faulty = inject(result.assignment, faults[int(idx)])
                realized = faulty.realized_truthtable()
                if not self._usable(realized) or realized == tt:
                    continue
                return TargetSpec.from_truthtable(realized, name=name)
            # Every fault was degenerate (constant or invisible): redraw
            # the base function from the same stream.
        raise self._exhausted(seed)
