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
as the paper prescribes.

Entries of the truth table are grouped by the value pattern they induce on
TL: entries with identical patterns yield identical constraint blocks, so
each distinct pattern is encoded once.  Zero-patterns whose false-literal
set contains another zero-pattern's set are subsumed and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # Mirror symmetry breaking prunes UNSAT proofs but removes easy models
    # from SAT probes; measured net-negative on the dichotomic search (see
    # bench_ablation), so off by default.
    symmetry_breaking: bool = False
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
    cnf: Optional[Cnf] = None
    infeasible: bool = False  # proven unrealizable during encoding
    too_big: bool = False  # encoding limits hit; undecided
    mapping_vars: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def complexity(self) -> int:
        """The paper's measure: variables times clauses."""
        if self.cnf is None:
            return 0
        return self.cnf.complexity

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


def encode_lm(
    spec: TargetSpec,
    rows: int,
    cols: int,
    side: str = "primal",
    options: EncodeOptions = EncodeOptions(),
) -> LmEncoding:
    """Build the LM SAT instance for one side of the duality."""
    if side == "primal":
        # The realized function g must satisfy tt <= g <= upper.
        required1 = spec.tt.values
        required0 = ~spec.upper.values
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
        required1 = spec.upper.dual().values
        required0 = spec.tt.compose_complement_inputs().values
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
        return enc

    num_cells = rows * cols
    num_entries = 1 << spec.num_inputs
    lit_entries = [e for e in tl if not e.is_const]

    # ---- group truth-table entries by their TL value pattern -------------
    # Entries with identical TL patterns constrain the mapping identically;
    # conflicting required values prove the instance unrealizable with this
    # TL set (the realized value at an entry depends on the inputs only
    # through the TL literal values).
    pattern_flags: dict[tuple[bool, ...], list[bool]] = {}
    for e in range(num_entries):
        r1 = bool(required1[e])
        r0 = bool(required0[e])
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
            return enc
    one_patterns = {
        p: i
        for i, p in enumerate(
            sorted(p for p, f in pattern_flags.items() if f[0])
        )
    }
    zero_patterns = {
        p: i
        for i, p in enumerate(
            sorted(p for p, f in pattern_flags.items() if f[1])
        )
    }

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

    # ---- build the CNF ----------------------------------------------------
    cnf = Cnf()
    mapping: dict[tuple[int, int], int] = {}
    for cell in range(num_cells):
        for j in range(len(tl)):
            mapping[(cell, j)] = cnf.pool.var(("m", cell, j))
    enc.mapping_vars = mapping
    for cell in range(num_cells):
        exactly_one(
            cnf,
            [mapping[(cell, j)] for j in range(len(tl))],
            method=options.eo_method,
        )

    const0_idx = tl.index(CONST0)
    const1_idx = tl.index(CONST1)
    product_cells = [
        [i for i in range(num_cells) if mask >> i & 1] for mask in products
    ]

    # Zero entries: cut every path.
    for mask in kept_zero_masks:
        false_idx = [j for j in range(len(lit_entries)) if mask >> j & 1]
        false_idx.append(const0_idx)
        for cells in product_cells:
            clause = [mapping[(i, j)] for i in cells for j in false_idx]
            cnf.add(clause)
        if len(cnf.clauses) > options.max_clauses:
            enc.too_big = True
            return enc

    # One entries: some path conducts end to end.
    for pattern, pid in one_patterns.items():
        true_idx = [j for j, val in enumerate(pattern) if val]
        true_idx.append(const1_idx)
        v_vars = []
        for cell in range(num_cells):
            v = cnf.pool.var(("v", pid, cell))
            v_vars.append(v)
            cnf.add([-v] + [mapping[(cell, j)] for j in true_idx])
        selectors = []
        for p_idx, cells in enumerate(product_cells):
            s = cnf.pool.var(("s", pid, p_idx))
            selectors.append(s)
            for i in cells:
                cnf.add([-s, v_vars[i]])
        cnf.add(selectors)
        if options.row_facts:
            # Fact (i): every level holds a conducting switch.
            for level_cells in levels:
                cnf.add([v_vars[i] for i in level_cells])
            # Fact (ii): consecutive levels are linked somewhere.
            for b_idx, pairs in enumerate(cross):
                b_vars = []
                for k, (a, b) in enumerate(pairs):
                    bv = cnf.pool.var(("b", pid, b_idx, k))
                    b_vars.append(bv)
                    cnf.add([-bv, v_vars[a]])
                    cnf.add([-bv, v_vars[b]])
                cnf.add(b_vars)
        if len(cnf.clauses) > options.max_clauses:
            enc.too_big = True
            return enc

    # Symmetry breaking: mirroring the grid left-right or top-bottom maps
    # both the 4-connected top-bottom paths and the 8-connected left-right
    # paths onto themselves, so the solution set is closed under both
    # mirrors.  Forcing the corner cell's mapping index to be no larger
    # than its mirror image's keeps at least one member of every symmetry
    # orbit while pruning the rest — a pure win on UNSAT proofs.
    if options.symmetry_breaking:
        num_tl = len(tl)
        corner = 0
        for mirror in (cols - 1, (rows - 1) * cols):
            if mirror == corner:
                continue
            for j in range(num_tl):
                for k in range(j):
                    cnf.add([-mapping[(corner, j)], -mapping[(mirror, k)]])

    # Degree-based product-realization constraints.
    if options.degree_constraints:
        _add_product_realization(
            cnf, cover, products, product_cells, tl, mapping, const1_idx, options
        )
        if len(cnf.clauses) > options.max_clauses:
            enc.too_big = True
            return enc

    enc.cnf = cnf
    return enc


def _add_product_realization(
    cnf: Cnf,
    cover: Sop,
    products: tuple[int, ...],
    product_cells: list[list[int]],
    tl: list[Entry],
    mapping: dict[tuple[int, int], int],
    const1_idx: int,
    options: EncodeOptions,
) -> None:
    """Paper's third encoding step: pin hard products to suitable paths."""
    if not products:
        return
    lattice_degree = max(mask.bit_count() for mask in products)
    tl_index = {
        (entry.var, entry.positive): j
        for j, entry in enumerate(tl)
        if not entry.is_const
    }
    threshold = options.big_product_threshold
    for q_idx, cube in enumerate(cover.cubes):
        q_size = cube.num_literals
        modes = []
        if q_size == cover.degree and cover.degree == lattice_degree:
            # Must use a maximum-degree path, mapped onto q's literals only.
            modes.append(("exact", lambda s: s == lattice_degree, False))
        if q_size > threshold:
            modes.append(("big", lambda s: s > threshold, True))
        for tag, size_ok, allow_const1 in modes:
            q_lits = [tl_index[(v, pos)] for v, pos in cube.literals()]
            if allow_const1:
                q_lits = q_lits + [const1_idx]
            u_vars = []
            for p_idx, cells in enumerate(product_cells):
                if not size_ok(len(cells)) or len(cells) < q_size:
                    continue
                u = cnf.pool.var(("u", tag, q_idx, p_idx))
                u_vars.append(u)
                for i in cells:
                    cnf.add([-u] + [mapping[(i, j)] for j in q_lits])
            if u_vars:
                cnf.add(u_vars)


def best_encoding(
    spec: TargetSpec,
    rows: int,
    cols: int,
    options: EncodeOptions = EncodeOptions(),
    sides: Sequence[str] = ("primal", "dual"),
) -> tuple[Optional[LmEncoding], list[LmEncoding]]:
    """Build the requested sides and pick the smallest-complexity solvable
    one (the paper's selection rule).  Returns (chosen, all_built)."""
    built = [encode_lm(spec, rows, cols, side, options) for side in sides]
    usable = [e for e in built if e.cnf is not None]
    if not usable:
        return None, built
    chosen = min(usable, key=lambda e: e.complexity)
    return chosen, built
