"""SAT encoding of the lattice mapping (LM) problem (paper, Section III-A).

Given a target function and an ``m x n`` lattice, decide whether assigning
target literals / constants to the switches realizes the target.  The
encoding follows the paper:

* **Mapping variables** ``M[cell][k]`` say switch ``cell`` is assigned the
  k-th element of the target-literal set *TL* (the literals of the
  minimized cover plus constants 0 and 1); an exactly-one constraint holds
  per cell (pairwise, as in the paper).
* For every truth-table entry where the target is **0**, every lattice
  product (path) must be cut: some switch on the path is assigned an
  element of TL that evaluates to 0 at this entry.  The paper reaches this
  clause set by constant-propagating the circuit POS formula; here the
  per-entry circuit inputs are substituted straight through the mapping
  variables, which yields exactly those reduced clauses without auxiliary
  circuit variables.
* For every entry where the target is **1**, a selector per path asserts
  that all its switches conduct (via per-entry conduction variables
  ``V[cell]``), at least one selector is on, and the paper's two
  path facts are added: every level (row) contains a conducting switch,
  and every pair of consecutive levels is vertically linked somewhere.
* **Degree constraints**: when the target degree equals the lattice
  function degree, each maximum-degree product must be realized by a
  maximum-degree path mapped entirely into that product's literals;
  products with more than five literals must be realized by paths with
  more than five switches (the paper's empirical rule).

Two encodings exist per LM instance: the *primal* one (target on the
4-connected top-bottom products) and the *dual* one (dual target on the
8-connected left-right products).  Both realize the same physical
assignment — the duality theorem converts one view into the other — and
JANUS solves whichever has the smaller ``variables x clauses`` complexity,
as the paper prescribes.  Each side is first *analyzed* (TL patterns,
infeasibility, limits, and its exact variable and clause counts in
closed form); only the chosen side's clauses are then built.

Entries of the truth table are grouped by the value pattern they induce on
TL: entries with identical patterns yield identical constraint blocks, so
each distinct pattern is encoded once.  Zero-patterns whose false-literal
set contains another zero-pattern's set are subsumed and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from repro.errors import EncodingError, SynthesisError
from repro.boolf.sop import Sop
from repro.core.target import TargetSpec
from repro.lattice.assignment import CONST0, CONST1, Entry, LatticeAssignment
from repro.lattice.paths import left_right_paths8, top_bottom_paths
from repro.sat.cnf import Cnf
from repro.sat.encodings import exactly_one
from repro.sat.solver import SolveResult

__all__ = [
    "EncodeOptions",
    "LmEncoding",
    "encode_lm",
    "best_encoding",
]


@dataclass(frozen=True)
class EncodeOptions:
    """Tuning knobs for the LM encoding (defaults follow the paper)."""

    row_facts: bool = True
    degree_constraints: bool = True
    big_product_threshold: int = 5
    eo_method: str = "pairwise"
    max_products: int = 50_000  # refuse to encode pathologically rich lattices
    max_clauses: int = 2_000_000


@dataclass
class LmEncoding:
    """A built LM SAT instance for one side (primal or dual)."""

    side: str  # "primal" | "dual"
    rows: int
    cols: int
    spec: TargetSpec
    tl: list[Entry]
    cnf: Optional[Cnf] = None  # built for the chosen side only
    infeasible: bool = False  # proven unrealizable during encoding
    too_big: bool = False  # encoding limits hit; undecided
    # Size of the side's CNF, counted before (and whether or not) it is
    # built; 0 for an infeasible or too-big side.
    num_vars: int = 0
    num_clauses: int = 0
    mapping_vars: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def complexity(self) -> int:
        """The paper's measure: variables times clauses."""
        return self.num_vars * self.num_clauses

    def decode(self, result: SolveResult) -> LatticeAssignment:
        """Extract the lattice assignment from a SAT model.

        For the dual side the decoded grid is the same physical lattice,
        with one twist: the duality theorem relates the top-bottom and
        left-right functions *of the switch variables*, and a literal
        substitution commutes with input complementation while a constant
        does not.  Concretely, if the 8-connected left-right function of
        assignment A equals f^D, then the 4-connected top-bottom function
        of A *with its constants complemented* equals f.  So dual-side
        decoding flips every constant cell.
        """
        if not result.is_sat or result.model is None:
            raise SynthesisError("cannot decode a non-SAT result")
        entries: list[Entry] = []
        for cell in range(self.rows * self.cols):
            chosen: Optional[Entry] = None
            for j, tl_entry in enumerate(self.tl):
                var = self.mapping_vars.get((cell, j))
                if var is not None and result.model[var - 1]:
                    if chosen is not None:
                        raise SynthesisError(
                            f"cell {cell} mapped twice (exactly-one violated)"
                        )
                    chosen = tl_entry
            if chosen is None:
                raise SynthesisError(f"cell {cell} has no mapping in the model")
            if self.side == "dual" and chosen.is_const:
                chosen = CONST0 if chosen.positive else CONST1
            entries.append(chosen)
        return LatticeAssignment(
            self.rows,
            self.cols,
            entries,
            self.spec.num_inputs,
            self.spec.name_list(),
        )


def _target_literal_set(cover: Sop) -> list[Entry]:
    """TL: the cover's literals plus the constants 0 and 1."""
    literals = sorted(cover.literal_set())
    return [Entry.lit(v, pos) for v, pos in literals] + [CONST0, CONST1]


def _dual_cross_pairs(rows: int, cols: int, col: int) -> list[tuple[int, int]]:
    """8-connected links from column ``col`` to ``col + 1``."""
    pairs = []
    for r in range(rows):
        for rr in (r - 1, r, r + 1):
            if 0 <= rr < rows:
                pairs.append((r * cols + col, rr * cols + col + 1))
    return pairs


@dataclass
class _Plan:
    """What the pattern analysis of one side hands to :func:`_build`:
    everything the clause writer needs, nothing it must recompute."""

    products: tuple[int, ...]
    levels: list[list[int]]
    cross: list[list[tuple[int, int]]]
    zero_masks: list[int]  # kept (unsubsumed) false-literal masks
    one_patterns: list[tuple[bool, ...]]  # sorted; position = pattern id
    realization: list[tuple[list[int], list[int]]]


@lru_cache(maxsize=None)
def _exactly_one_size(n: int, method: str) -> tuple[int, int]:
    """(auxiliary variables, clauses) of one exactly-one over ``n``
    literals, read off a throwaway build (exact for every method)."""
    cnf = Cnf()
    exactly_one(cnf, [cnf.pool.fresh() for _ in range(n)], method=method)
    return cnf.num_vars - n, cnf.num_clauses


def _realization_groups(
    cover: Sop,
    sizes: list[int],
    tl: list[Entry],
    threshold: int,
) -> list[tuple[list[int], list[int]]]:
    """The paper's third encoding step, as data: one ``(TL indices,
    eligible product indices)`` group per degree constraint.  Each
    eligible product gets a selector forcing its switches onto the
    group's TL indices; some selector of the group must hold."""
    if not sizes:
        return []
    lattice_degree = max(sizes)
    tl_index = {
        (entry.var, entry.positive): j
        for j, entry in enumerate(tl)
        if not entry.is_const
    }
    const1_idx = tl.index(CONST1)
    groups = []
    for cube in cover.cubes:
        q_size = cube.num_literals
        q_lits = [tl_index[(v, pos)] for v, pos in cube.literals()]
        if q_size == cover.degree and cover.degree == lattice_degree:
            # Must use a maximum-degree path, mapped onto q's literals only.
            eligible = [
                p for p, s in enumerate(sizes)
                if s == lattice_degree and s >= q_size
            ]
            groups.append((q_lits, eligible))
        if q_size > threshold:
            eligible = [
                p for p, s in enumerate(sizes) if s > threshold and s >= q_size
            ]
            groups.append((q_lits + [const1_idx], eligible))
    return groups


def _analyze(
    spec: TargetSpec,
    rows: int,
    cols: int,
    side: str,
    options: EncodeOptions,
) -> tuple[LmEncoding, Optional[_Plan]]:
    """Pattern analysis of one side, with its CNF size in closed form.

    Settles ``infeasible`` and ``too_big`` and sets ``num_vars`` /
    ``num_clauses`` to exactly what :func:`_build` would produce, without
    building a clause.  The plan is ``None`` when the side is unusable.
    """
    if side == "primal":
        # The realized function g must satisfy tt <= g <= upper.
        required1 = spec.tt.bits
        required0 = (~spec.upper).bits
        cover = spec.isop
        products = top_bottom_paths(rows, cols)
        levels = [[r * cols + c for c in range(cols)] for r in range(rows)]
        cross = [
            [(r * cols + c, (r + 1) * cols + c) for c in range(cols)]
            for r in range(rows - 1)
        ]
    elif side == "dual":
        # The left-right function is g^D: forced 1 where every admissible g
        # is 0 at the complemented input, forced 0 where every g is 1.
        required1 = spec.upper.dual().bits
        required0 = spec.tt.compose_complement_inputs().bits
        cover = spec.dual_isop
        products = left_right_paths8(rows, cols)
        levels = [[r * cols + c for r in range(rows)] for c in range(cols)]
        cross = [_dual_cross_pairs(rows, cols, c) for c in range(cols - 1)]
    else:
        raise EncodingError(f"unknown encoding side {side!r}")

    tl = _target_literal_set(cover)
    enc = LmEncoding(side=side, rows=rows, cols=cols, spec=spec, tl=tl)
    if len(products) > options.max_products:
        enc.too_big = True
        return enc, None

    num_entries = 1 << spec.num_inputs
    lit_entries = [e for e in tl if not e.is_const]

    # ---- group truth-table entries by their TL value pattern -------------
    # Entries with identical TL patterns constrain the mapping identically;
    # conflicting required values prove the instance unrealizable with this
    # TL set (the realized value at an entry depends on the inputs only
    # through the TL literal values).
    pattern_flags: dict[tuple[bool, ...], list[bool]] = {}
    for e in range(num_entries):
        r1 = bool(required1 >> e & 1)
        r0 = bool(required0 >> e & 1)
        if not (r1 or r0):
            continue  # don't-care entry: no constraint
        pattern = tuple(entry.evaluate(e) for entry in lit_entries)
        flags = pattern_flags.setdefault(pattern, [False, False])
        flags[0] |= r1
        flags[1] |= r0
        if flags[0] and flags[1]:
            # Two entries with identical TL values but opposite required
            # outputs: no mapping into TL can realize the target.
            enc.infeasible = True
            return enc, None
    one_patterns = sorted(p for p, f in pattern_flags.items() if f[0])
    zero_patterns = sorted(p for p, f in pattern_flags.items() if f[1])

    # Subsume zero patterns: a pattern whose false-TL set contains another
    # zero pattern's false set yields implied (weaker) clauses.
    zero_masks: list[int] = []
    for pattern in zero_patterns:
        mask = 0
        for j, val in enumerate(pattern):
            if not val:
                mask |= 1 << j
        zero_masks.append(mask)
    zero_masks = sorted(set(zero_masks), key=lambda m: m.bit_count())
    kept_zero_masks: list[int] = []
    for mask in zero_masks:
        if not any(prev & mask == prev for prev in kept_zero_masks):
            kept_zero_masks.append(mask)

    # ---- count the CNF _build would write ---------------------------------
    num_cells = rows * cols
    sizes = [mask.bit_count() for mask in products]
    eo_vars, eo_clauses = _exactly_one_size(len(tl), options.eo_method)
    num_vars = num_cells * (len(tl) + eo_vars)
    num_clauses = num_cells * eo_clauses + len(kept_zero_masks) * len(products)
    per_one_vars = num_cells + len(products)
    per_one_clauses = num_cells + sum(sizes) + 1
    if options.row_facts:
        links = sum(len(pairs) for pairs in cross)
        per_one_vars += links
        per_one_clauses += len(levels) + 2 * links + len(cross)
    num_vars += len(one_patterns) * per_one_vars
    num_clauses += len(one_patterns) * per_one_clauses
    realization = []
    if options.degree_constraints:
        realization = _realization_groups(
            cover, sizes, tl, options.big_product_threshold
        )
        for _q_lits, eligible in realization:
            num_vars += len(eligible)
            num_clauses += sum(sizes[p] for p in eligible) + bool(eligible)
    # The clause limit is checked after each constraint block that exists.
    checked = options.degree_constraints or one_patterns or kept_zero_masks
    if checked and num_clauses > options.max_clauses:
        enc.too_big = True
        return enc, None
    enc.num_vars = num_vars
    enc.num_clauses = num_clauses
    plan = _Plan(
        products, levels, cross, kept_zero_masks, one_patterns, realization
    )
    return enc, plan


def _build(enc: LmEncoding, plan: _Plan, options: EncodeOptions) -> None:
    """Write the side's CNF (exactly ``enc.num_vars`` x ``enc.num_clauses``)
    and its mapping variables into ``enc``."""
    tl = enc.tl
    num_cells = enc.rows * enc.cols
    cnf = Cnf()
    fresh = cnf.pool.fresh
    # Every literal below names a variable just taken from the pool, so
    # the clauses skip ``Cnf.add``'s per-literal validation.
    add = cnf.clauses.append
    mapping: dict[tuple[int, int], int] = {}
    for cell in range(num_cells):
        for j in range(len(tl)):
            mapping[(cell, j)] = fresh()
    enc.mapping_vars = mapping
    m_vars = [
        [mapping[(cell, j)] for j in range(len(tl))] for cell in range(num_cells)
    ]
    for cell_vars in m_vars:
        exactly_one(cnf, cell_vars, method=options.eo_method)

    const0_idx = tl.index(CONST0)
    const1_idx = tl.index(CONST1)
    product_cells = [
        [i for i in range(num_cells) if mask >> i & 1] for mask in plan.products
    ]

    # Zero entries: cut every path.
    for mask in plan.zero_masks:
        # TL lists the cover's literals first, then the constants.
        false_idx = [j for j in range(const0_idx) if mask >> j & 1]
        false_idx.append(const0_idx)
        for cells in product_cells:
            add([m_vars[i][j] for i in cells for j in false_idx])

    # One entries: some path conducts end to end.
    for pattern in plan.one_patterns:
        true_idx = [j for j, val in enumerate(pattern) if val]
        true_idx.append(const1_idx)
        v_vars = []
        for cell in range(num_cells):
            v = fresh()
            v_vars.append(v)
            add([-v] + [m_vars[cell][j] for j in true_idx])
        selectors = []
        for cells in product_cells:
            s = fresh()
            selectors.append(s)
            for i in cells:
                add([-s, v_vars[i]])
        add(selectors)
        if options.row_facts:
            # Fact (i): every level holds a conducting switch.
            for level_cells in plan.levels:
                add([v_vars[i] for i in level_cells])
            # Fact (ii): consecutive levels are linked somewhere.
            for pairs in plan.cross:
                b_vars = []
                for a, b in pairs:
                    bv = fresh()
                    b_vars.append(bv)
                    add([-bv, v_vars[a]])
                    add([-bv, v_vars[b]])
                add(b_vars)

    # Degree-based product-realization constraints.
    for q_lits, eligible in plan.realization:
        u_vars = []
        for p_idx in eligible:
            u = fresh()
            u_vars.append(u)
            for i in product_cells[p_idx]:
                add([-u] + [m_vars[i][j] for j in q_lits])
        if u_vars:
            add(u_vars)
    enc.cnf = cnf


def encode_lm(
    spec: TargetSpec,
    rows: int,
    cols: int,
    side: str = "primal",
    options: EncodeOptions = EncodeOptions(),
) -> LmEncoding:
    """Build the LM SAT instance for one side of the duality."""
    enc, plan = _analyze(spec, rows, cols, side, options)
    if plan is not None:
        _build(enc, plan, options)
    return enc


def best_encoding(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: EncodeOptions = EncodeOptions(),
    sides: Sequence[str] = ("primal", "dual"),
) -> tuple[Optional[LmEncoding], list[LmEncoding]]:
    """Analyze the requested sides, pick the smallest-complexity usable
    one (the paper's selection rule) and build its CNF only.  Returns
    (chosen, all analyzed); only the chosen side carries a ``cnf``."""
    analyzed = [_analyze(spec, rows, cols, side, options) for side in sides]
    usable = [(enc, plan) for enc, plan in analyzed if plan is not None]
    encodings = [enc for enc, _plan in analyzed]
    if not usable:
        return None, encodings
    chosen, plan = min(usable, key=lambda pair: pair[0].complexity)
    _build(chosen, plan, options)
    return chosen, encodings
