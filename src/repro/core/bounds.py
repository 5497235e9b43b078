"""Initial bounds for the LS search (paper, Section III-B).

Every upper-bound method returns a **verified** :class:`BoundResult`: the
constructed lattice assignment is checked against the target truth table
by the independent connectivity checker before being reported.  The
methods:

* **DP** (dual production, Altun & Riedel): an ``m x n`` lattice where the
  n columns are the target's products, the m rows its dual's products, and
  each cell holds a literal shared by its row and column products.
* **PS** (product separation, Gange et al.): one column per product padded
  with constant 1, columns separated by constant-0 isolation columns —
  a ``degree x (2n-1)`` lattice.
* **DPS** (dual product separation, Morgul & Altun): one row per dual
  product padded with constant 0, rows separated by constant-1 rows — a
  ``(2m-1) x gamma`` lattice.
* **IPS / IDPS** (this paper): improved variants that spend fewer isolation
  columns/rows: single-literal products isolate by themselves, two-literal
  products fold into one self-isolating column, and product pairs whose
  two-product subfunction has a dual of at most ``degree`` products share a
  ``degree x 2`` DP block.  The constructions here follow those rules
  greedily and *verify* the resulting lattice, inserting an explicit
  isolation column/row whenever a greedy merge would change the function —
  so the returned bound is always sound, merely possibly one column wider
  than the paper's hand construction.

The **DS** (divide and synthesize) method lives in
:mod:`repro.core.decompose` because it calls JANUS recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import SynthesisError
from repro.boolf.cube import Cube
from repro.boolf.minimize import minimize
from repro.boolf.sop import Sop
from repro.boolf.truthtable import TruthTable
from repro.core.target import TargetSpec
from repro.lattice.assignment import CONST0, CONST1, Entry, LatticeAssignment

__all__ = [
    "BoundResult",
    "ub_dp",
    "ub_ps",
    "ub_dps",
    "ub_ips",
    "ub_idps",
    "best_upper_bound",
    "UB_METHODS",
]


@dataclass
class BoundResult:
    """An upper bound witnessed by a verified lattice assignment."""

    method: str
    assignment: LatticeAssignment

    @property
    def rows(self) -> int:
        return self.assignment.rows

    @property
    def cols(self) -> int:
        return self.assignment.cols

    @property
    def size(self) -> int:
        return self.assignment.size

    def __repr__(self) -> str:
        return f"BoundResult({self.method}, {self.rows}x{self.cols})"


def _verify(result: BoundResult, spec: TargetSpec) -> BoundResult:
    if not spec.accepts(result.assignment.realized_truthtable()):
        raise SynthesisError(
            f"{result.method} bound construction failed verification on "
            f"{spec.name} ({result.rows}x{result.cols})"
        )
    return result


def _require_synthesizable(spec: TargetSpec) -> None:
    if spec.is_constant:
        raise SynthesisError(
            "bound constructions need a non-constant target; constants are "
            "realized directly by the JANUS driver"
        )


def _column_entries(cube: Cube, rows: int, fill: Entry) -> list[Entry]:
    """A product as a column: its literals from the top, then ``fill``."""
    lits = [Entry.lit(v, pos) for v, pos in cube.literals()]
    if len(lits) > rows:
        raise SynthesisError("product does not fit in the column")
    return lits + [fill] * (rows - len(lits))


# --------------------------------------------------------------------- DP
def ub_dp(spec: TargetSpec) -> BoundResult:
    """Dual-production construction: cell (i, j) gets a literal common to
    dual product i and product j (such a literal always exists)."""
    _require_synthesizable(spec)
    prods = spec.isop.cubes
    duals = spec.dual_isop.cubes
    rows, cols = len(duals), len(prods)
    entries: list[Entry] = []
    for dual_cube in duals:
        for cube in prods:
            common = _common_literal(dual_cube, cube)
            if common is None:
                raise SynthesisError(
                    "no shared literal between a product and a dual product; "
                    "the covers are inconsistent"
                )
            entries.append(Entry.lit(*common))
    la = LatticeAssignment(rows, cols, entries, spec.num_inputs, spec.name_list())
    return _verify(BoundResult("dp", la), spec)


def _common_literal(a: Cube, b: Cube) -> Optional[tuple[int, bool]]:
    both_pos = a.pos & b.pos
    if both_pos:
        return (both_pos & -both_pos).bit_length() - 1, True
    both_neg = a.neg & b.neg
    if both_neg:
        return (both_neg & -both_neg).bit_length() - 1, False
    return None


# --------------------------------------------------------------------- PS
def ub_ps(spec: TargetSpec) -> BoundResult:
    """Product separation: degree x (2n - 1)."""
    _require_synthesizable(spec)
    rows = spec.degree
    columns: list[list[Entry]] = []
    for k, cube in enumerate(spec.isop.cubes):
        if k > 0:
            columns.append([CONST0] * rows)
        columns.append(_column_entries(cube, rows, CONST1))
    la = _from_columns(rows, columns, spec)
    return _verify(BoundResult("ps", la), spec)


def _from_columns(
    rows: int, columns: list[list[Entry]], spec: TargetSpec
) -> LatticeAssignment:
    cols = len(columns)
    entries = [columns[c][r] for r in range(rows) for c in range(cols)]
    return LatticeAssignment(rows, cols, entries, spec.num_inputs, spec.name_list())


# -------------------------------------------------------------------- DPS
def ub_dps(spec: TargetSpec) -> BoundResult:
    """Dual product separation: (2m - 1) x gamma.

    Rows carry the dual products (padded with constant 0) separated by
    all-1 routing rows; the top-bottom function is then the product of the
    dual products' literal sums, i.e. the target's POS — the target itself.
    """
    _require_synthesizable(spec)
    cols = spec.dual_degree
    rows_entries: list[list[Entry]] = []
    for k, cube in enumerate(spec.dual_isop.cubes):
        if k > 0:
            rows_entries.append([CONST1] * cols)
        rows_entries.append(_column_entries(cube, cols, CONST0))
    entries = [e for row in rows_entries for e in row]
    la = LatticeAssignment(
        len(rows_entries), cols, entries, spec.num_inputs, spec.name_list()
    )
    return _verify(BoundResult("dps", la), spec)


# -------------------------------------------------------------------- IPS
def ub_ips(spec: TargetSpec) -> BoundResult:
    """Improved product separation (paper's three isolation-saving rules,
    applied greedily with per-step verification)."""
    _require_synthesizable(spec)
    rows = spec.degree
    singles = [c for c in spec.isop.cubes if c.num_literals == 1]
    doubles = [c for c in spec.isop.cubes if c.num_literals == 2]
    bigs = [c for c in spec.isop.cubes if c.num_literals > 2]

    blocks: list[_Block] = []

    # Rule (iii): pair big products on a degree x 2 DP block when the
    # two-product subfunction's dual stays within `degree` products.
    used = [False] * len(bigs)
    for i in range(len(bigs)):
        if used[i]:
            continue
        paired = False
        for j in range(i + 1, len(bigs)):
            if used[j]:
                continue
            block = _pair_block(bigs[i], bigs[j], rows, spec)
            if block is not None:
                pair_tt = TruthTable.from_cubes(
                    [bigs[i], bigs[j]], spec.num_inputs
                )
                blocks.append(_Block("pair", block, pair_tt))
                used[i] = used[j] = True
                paired = True
                break
        if not paired:
            blocks.append(
                _Block(
                    "big",
                    [_column_entries(bigs[i], rows, CONST1)],
                    TruthTable.from_cube(bigs[i]),
                )
            )
            used[i] = True

    # Rule (ii): two-literal products become single self-isolating columns
    # (one literal on the last row, the other on all rows above).
    for cube in doubles:
        (v1, p1), (v2, p2) = list(cube.literals())
        column = [Entry.lit(v1, p1)] * (rows - 1) + [Entry.lit(v2, p2)]
        blocks.append(_Block("double", [column], TruthTable.from_cube(cube)))

    # Rule (i): single-literal products are all-same-literal columns; any
    # path straying through one picks up that literal and is absorbed by
    # the single-literal product, so they are safe separators.
    separators = [
        [Entry.lit(v, pos)] * rows
        for cube in singles
        for v, pos in cube.literals()
    ]

    la = _assemble_separated(rows, blocks, separators, spec, orient_rows=False)
    return _verify(BoundResult("ips", la), spec)


def _pair_block(
    a: Cube, b: Cube, rows: int, spec: TargetSpec
) -> Optional[list[list[Entry]]]:
    """Degree x 2 realization of ``a + b`` via DP, or None if ineligible."""
    sub = Sop([a, b], spec.num_inputs, spec.name_list())
    sub_tt = sub.to_truthtable()
    dual_cover = minimize(sub_tt.dual(), names=spec.name_list())
    if dual_cover.num_products > rows:
        return None
    sub_spec = TargetSpec(
        name="pair", tt=sub_tt, isop=sub, dual_isop=dual_cover,
        names=tuple(spec.names) if spec.names else None,
    )
    try:
        dp = ub_dp(sub_spec)
    except SynthesisError:
        return None
    if dp.cols != 2:
        return None
    padded = dp.assignment.padded_bottom(rows - dp.rows, CONST1)
    return [
        [padded.entry(r, c) for r in range(rows)] for c in range(2)
    ]


@dataclass
class _Block:
    """A placed group of columns (or rows) realizing a partial function."""

    kind: str  # "pair" | "big" | "double"
    lanes: list[list[Entry]]  # columns for IPS, rows for IDPS
    part_tt: TruthTable  # the products this block is responsible for


def _assemble_separated(
    rows: int,
    blocks: list[_Block],
    separators: list[list[Entry]],
    spec: TargetSpec,
    orient_rows: bool,
) -> LatticeAssignment:
    """Lay blocks side by side, spending isolation only at unsafe junctions.

    A junction between two blocks is *locally safe* when the two-block
    mini-lattice realizes a function that still contains both blocks' own
    products and stays inside the target (for the OR-composed primal side)
    — respectively equals the AND of the blocks' POS factors (dual side).
    Blocks are chained greedily to maximize safe junctions; unsafe ones get
    a separator (a leftover single-literal lane if available, else a
    constant lane).  The result is verified globally; failures fall back to
    full isolation, which is always correct.
    """
    sep_pool = list(separators)
    tt = spec.isop.to_truthtable()

    def build(lanes: list[list[Entry]]) -> LatticeAssignment:
        la = _from_columns(rows, lanes, spec)
        return la.transposed() if orient_rows else la

    def junction_safe(a: _Block, b: _Block) -> bool:
        mini = build(a.lanes + b.lanes)
        realized = mini.realized_truthtable()
        if orient_rows:
            # Dual side: the stack must realize exactly the AND of factors.
            return realized == (a.part_tt & b.part_tt)
        combined = a.part_tt | b.part_tt
        return combined.implies(realized) and realized.implies(tt)

    if not blocks and not sep_pool:
        raise SynthesisError("no products to place")

    # Greedy chain: repeatedly extend with a block forming a safe junction.
    remaining = list(blocks)
    chain: list[_Block] = []
    safe_after: list[bool] = []  # safe_after[i]: junction i/i+1 is safe
    if remaining:
        chain.append(remaining.pop(0))
    while remaining:
        last = chain[-1]
        pick = None
        for idx, cand in enumerate(remaining):
            if junction_safe(last, cand):
                pick = idx
                break
        if pick is None:
            chain.append(remaining.pop(0))
            safe_after.append(False)
        else:
            chain.append(remaining.pop(pick))
            safe_after.append(True)

    iso_const = CONST1 if orient_rows else CONST0
    lanes: list[list[Entry]] = []
    kinds: list[str] = []
    for i, block in enumerate(chain):
        if i > 0 and not safe_after[i - 1]:
            lanes.append(sep_pool.pop() if sep_pool else [iso_const] * rows)
            kinds.append("sep")
        lanes.extend(block.lanes)
        kinds.extend([block.kind] * len(block.lanes))
    # Leftover separators still realize their own single-literal products.
    for sep in sep_pool:
        lanes.append(sep)
        kinds.append("sep")
    if not lanes:
        raise SynthesisError("no products to place")

    candidate = build(lanes)
    if candidate.realizes(tt):
        return candidate

    # Greedy layout failed (a multi-block interaction): isolate every
    # junction.  Constant isolation makes the function the OR (resp. AND)
    # of the block functions, which is the target by construction.
    fully: list[list[Entry]] = []
    boundary = set()
    pos = 0
    for block in chain:
        pos += len(block.lanes)
        boundary.add(pos)
    flat = [lane for block in chain for lane in block.lanes]
    for idx, lane in enumerate(flat):
        if idx > 0 and idx in {b for b in boundary if b < len(flat)}:
            fully.append([iso_const] * rows)
        fully.append(lane)
    for sep in separators:
        fully.append([iso_const] * rows)
        fully.append(sep)
    return build(fully)


# ------------------------------------------------------------------- IDPS
def ub_idps(spec: TargetSpec) -> BoundResult:
    """Improved dual product separation: the IPS rules applied to the dual
    cover, with rows in place of columns and constant-1 isolation."""
    _require_synthesizable(spec)
    cols = spec.dual_degree
    rows_cover = spec.dual_isop
    singles = [c for c in rows_cover.cubes if c.num_literals == 1]
    doubles = [c for c in rows_cover.cubes if c.num_literals == 2]
    bigs = [c for c in rows_cover.cubes if c.num_literals > 2]

    blocks: list[_Block] = []
    used = [False] * len(bigs)
    for i in range(len(bigs)):
        if used[i]:
            continue
        paired = False
        for j in range(i + 1, len(bigs)):
            if used[j]:
                continue
            block = _dual_pair_block(bigs[i], bigs[j], cols, spec)
            if block is not None:
                factor = _clause_tt(bigs[i], spec) & _clause_tt(bigs[j], spec)
                blocks.append(_Block("pair", block, factor))
                used[i] = used[j] = True
                paired = True
                break
        if not paired:
            blocks.append(
                _Block(
                    "big",
                    [_column_entries(bigs[i], cols, CONST0)],
                    _clause_tt(bigs[i], spec),
                )
            )
            used[i] = True
    for cube in doubles:
        (v1, p1), (v2, p2) = list(cube.literals())
        row = [Entry.lit(v1, p1)] * (cols - 1) + [Entry.lit(v2, p2)]
        blocks.append(_Block("double", [row], _clause_tt(cube, spec)))
    separators = [
        [Entry.lit(v, pos)] * cols
        for cube in singles
        for v, pos in cube.literals()
    ]
    la = _assemble_separated(cols, blocks, separators, spec, orient_rows=True)
    if not spec.accepts(la.realized_truthtable()):
        # Fall back to plain DPS if even the hardened dual layout fails
        # (possible because dual-side routing is subtler than primal).
        return BoundResult("idps", ub_dps(spec).assignment)
    return _verify(BoundResult("idps", la), spec)


def _clause_tt(dual_cube: Cube, spec: TargetSpec) -> TruthTable:
    """The POS factor of a dual product: the OR of its literals."""
    values = TruthTable.zeros(spec.num_inputs)
    for v, pos in dual_cube.literals():
        lit_tt = TruthTable.variable(v, spec.num_inputs)
        values = values | (lit_tt if pos else ~lit_tt)
    return values


def _dual_pair_block(
    a: Cube, b: Cube, cols: int, spec: TargetSpec
) -> Optional[list[list[Entry]]]:
    """2 x cols block realizing the POS factor pair (a + b clauses)."""
    # The subfunction h with dual products {a, b} is h = (sum of a's
    # literals) * (sum of b's literals).
    h_dual = Sop([a, b], spec.num_inputs, spec.name_list())
    h_tt = h_dual.to_truthtable().dual()
    h_cover = minimize(h_tt, names=spec.name_list())
    if h_cover.num_products > cols:
        return None
    sub_spec = TargetSpec(
        name="dual-pair", tt=h_tt, isop=h_cover, dual_isop=h_dual,
        names=tuple(spec.names) if spec.names else None,
    )
    try:
        dp = ub_dp(sub_spec)
    except SynthesisError:
        return None
    if dp.rows != 2:
        return None
    # Pad to the full width with inert constant-0 columns.
    padded_cols: list[list[Entry]] = []
    for c in range(cols):
        if c < dp.cols:
            padded_cols.append([dp.assignment.entry(r, c) for r in range(2)])
        else:
            padded_cols.append([CONST0, CONST0])
    # Return as rows (2 rows of `cols` entries).
    return [[padded_cols[c][r] for c in range(cols)] for r in range(2)]


UB_METHODS: dict[str, Callable[[TargetSpec], BoundResult]] = {
    "dp": ub_dp,
    "ps": ub_ps,
    "dps": ub_dps,
    "ips": ub_ips,
    "idps": ub_idps,
}


def best_upper_bound(
    spec: TargetSpec, methods: tuple[str, ...] = ("dp", "ps", "dps", "ips", "idps")
) -> tuple[BoundResult, dict[str, BoundResult]]:
    """Run the selected constructions; return (best, all results)."""
    results: dict[str, BoundResult] = {}
    for name in methods:
        try:
            results[name] = UB_METHODS[name](spec)
        except SynthesisError:
            continue
    if not results:
        raise SynthesisError(f"no upper-bound construction succeeded on {spec.name}")
    best = min(results.values(), key=lambda r: (r.size, r.rows))
    return best, results
