"""The pure-Python :class:`PropagationCore`: an int-packed CDCL kernel.

This module is one of the two twin implementations behind the
``PropagationCore`` seam in :mod:`repro.sat.solver` (the other is the
optional C extension in :mod:`repro.sat._native`).  It owns every hot
data structure of the solver — clause storage, watch lists, the trail,
assignments, activities, the VSIDS order heap — and exposes the small
method surface the :class:`~repro.sat.solver.CdclSolver` driver
orchestrates: ``propagate`` (two-watched-literal BCP), ``analyze``
(first-UIP learning with recursive minimization), ``backtrack``,
``decide_next``, ``reduce_db`` and friends.

Micro-architecture (shared verbatim by the C twin, which is what makes
the two cores byte-identical on every trajectory):

* **Flat clause arena** — all clauses live in one growing list of ints.
  A clause reference (*cref*) is the arena index of its first literal;
  ``arena[cref - 1]`` holds the size and ``arena[cref - 2]`` the learnt
  index (``-1`` for problem clauses).  No per-clause Python objects, no
  ``id()``-keyed side tables: activity/LBD live in parallel arrays
  indexed by the learnt index, and every tie-break that used to lean on
  ``id(clause)`` now uses the (deterministic) cref.
* **Blocker watch lists** — ``watches[lit]`` is a flat
  ``[blocker, cref, blocker, cref, ...]`` list.  A watched clause is
  skipped without touching the arena whenever its cached *blocker*
  literal is already true, which is the common case by far.
* **Parallel binary-implication lists** — ``bin_other[lit]`` /
  ``bin_cref[lit]``: when ``lit`` becomes false each partner in
  ``bin_other[lit]`` is forced directly, iterated by a bare list
  iterator with no clause access and no index arithmetic; the matching
  cref is only fetched (by position) for the rare entry that actually
  assigns or conflicts.
* **Literals as ints end-to-end** — internal literal ``v*2`` is the
  positive, ``v*2 + 1`` the negated occurrence of variable ``v``.
  ``assign`` is indexed *per literal* (``2 * nv`` slots): a literal's
  truth value is the single load ``assign[lit]`` (``1`` true, ``0``
  false, ``-1`` unassigned; ``assign[lit ^ 1]`` always holds the
  complement while assigned).  One redundant store per assignment buys
  the cheapest possible test in the BCP loop, where each literal is
  tested many times but assigned once.
* **Indexed VSIDS heap** — a binary max-heap of variables keyed by
  activity with a position index (MiniSat's ``order_heap``), so bumps
  are in-place sift-ups and ``decide_next`` never wades through stale
  entries.  Assigned variables are removed lazily on pop and
  re-inserted on backtrack; activity rescales multiply every key by
  one constant and therefore never disturb the heap order.

Hot arrays are plain Python lists, not ``array('i')``: in CPython,
list indexing returns cached references while ``array`` boxes a fresh
int on every read, and this loop is exactly the place that difference
is measurable (the same observation drove PR 4's loop tightening).

The class keeps **no search policy**: decisions, restarts, budgets,
proof logging and the reduce/restart schedules stay in the driver, so
both cores are forced through one shared orchestration path and cannot
drift in anything but the kernel math this module defines.
"""

from __future__ import annotations

__all__ = ["PurePythonCore"]

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class PurePythonCore:
    """Int-packed BCP + conflict-analysis kernel (pure-Python twin)."""

    core_name = "pure"

    __slots__ = (
        "nv",
        "arena",
        "watches",
        "bin_other",
        "bin_cref",
        "assign",
        "level",
        "reason",
        "trail",
        "trail_lim",
        "qhead",
        "act",
        "var_inc",
        "var_decay",
        "cla_inc",
        "cla_decay",
        "phase",
        "seen",
        "heap",
        "hpos",
        "l_cref",
        "l_act",
        "l_lbd",
        "n_learnts",
        "n_clauses",
        "props",
    )

    def __init__(self, var_decay: float, clause_decay: float) -> None:
        self.nv = 0
        self.arena: list[int] = []
        self.watches: list[list[int]] = []
        self.bin_other: list[list[int]] = []
        self.bin_cref: list[list[int]] = []
        self.assign: list[int] = []
        self.level: list[int] = []
        self.reason: list[int] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.act: list[float] = []
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.cla_inc = 1.0
        self.cla_decay = clause_decay
        self.phase: list[int] = []
        self.seen: list[int] = []
        self.heap: list[int] = []
        self.hpos: list[int] = []
        self.l_cref: list[int] = []
        self.l_act: list[float] = []
        self.l_lbd: list[int] = []
        self.n_learnts = 0
        self.n_clauses = 0
        self.props = 0

    # ----------------------------------------------------------- variables
    def add_var(self) -> None:
        var = self.nv
        self.nv = var + 1
        self.watches.append([])
        self.watches.append([])
        self.bin_other.append([])
        self.bin_other.append([])
        self.bin_cref.append([])
        self.bin_cref.append([])
        self.assign.append(-1)
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(-1)
        self.act.append(0.0)
        self.phase.append(0)
        self.seen.append(0)
        # Activity 0.0 can never exceed an ancestor's key, so appending
        # at the bottom keeps the heap property without a sift.
        self.hpos.append(len(self.heap))
        self.heap.append(var)

    def num_vars(self) -> int:
        return self.nv

    # -------------------------------------------------------------- values
    def value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned (for an internal literal)."""
        return self.assign[lit]

    def decision_level(self) -> int:
        return len(self.trail_lim)

    def propagation_count(self) -> int:
        return self.props

    def num_learnts(self) -> int:
        return self.n_learnts

    def num_clauses(self) -> int:
        """Problem (non-learnt) clauses attached so far."""
        return self.n_clauses

    def model(self) -> list[bool]:
        assign = self.assign
        return [assign[var << 1] == 1 for var in range(self.nv)]

    def decay(self) -> None:
        self.var_inc /= self.var_decay
        self.cla_inc /= self.cla_decay

    # ----------------------------------------------------------- VSIDS heap
    def _pick_branch(self) -> int:
        """Pop the highest-activity unassigned variable (-1 when none).

        Assigned variables encountered at the root are discarded lazily
        (they re-enter on backtrack), so an empty heap means every
        variable is assigned.
        """
        heap = self.heap
        hpos = self.hpos
        act = self.act
        assign = self.assign
        while heap:
            var = heap[0]
            last = heap.pop()
            hpos[var] = -1
            n = len(heap)
            if n:
                # Sift ``last`` down from the root under the total
                # order (activity desc, var asc).
                i = 0
                a = act[last]
                while True:
                    child_i = 2 * i + 1
                    if child_i >= n:
                        break
                    child = heap[child_i]
                    ca = act[child]
                    right_i = child_i + 1
                    if right_i < n:
                        right = heap[right_i]
                        ra = act[right]
                        if ra > ca or (ra == ca and right < child):
                            child_i = right_i
                            child = right
                            ca = ra
                    if ca > a or (ca == a and child < last):
                        heap[i] = child
                        hpos[child] = i
                        i = child_i
                    else:
                        break
                heap[i] = last
                hpos[last] = i
            if assign[var << 1] < 0:
                return var
        return -1

    def decide_next(self) -> int:
        """Open a new decision level on the highest-activity unassigned
        variable with its saved phase; returns the decided literal, or
        -1 when every variable is assigned (a model is found)."""
        var = self._pick_branch()
        if var < 0:
            return -1
        lit = var * 2 + (1 if self.phase[var] == 0 else 0)
        self.trail_lim.append(len(self.trail))
        self.assign[lit] = 1
        self.assign[lit ^ 1] = 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = -1
        self.trail.append(lit)
        return lit

    # ------------------------------------------------------------- clauses
    def attach(self, lits, learnt: int, lbd: int) -> int:
        """Store a clause (>= 2 literals, in the given order) and watch it.

        Returns the clause reference.  Learnt clauses get the current
        clause activity increment and the supplied LBD.
        """
        arena = self.arena
        if learnt:
            lidx = len(self.l_cref)
        else:
            lidx = -1
        arena.append(lidx)
        arena.append(len(lits))
        cref = len(arena)
        arena.extend(lits)
        if learnt:
            self.l_cref.append(cref)
            self.l_act.append(self.cla_inc)
            self.l_lbd.append(lbd)
            self.n_learnts += 1
        else:
            self.n_clauses += 1
        l0 = arena[cref]
        l1 = arena[cref + 1]
        if len(lits) == 2:
            self.bin_other[l0].append(l1)
            self.bin_cref[l0].append(cref)
            self.bin_other[l1].append(l0)
            self.bin_cref[l1].append(cref)
        else:
            w0 = self.watches[l0]
            w0.append(l1)
            w0.append(cref)
            w1 = self.watches[l1]
            w1.append(l0)
            w1.append(cref)
        return cref

    def add_clauses(self, clauses, derived) -> bool:
        """Ingest problem clauses of signed DIMACS literals at level 0.

        Per clause, in order: map to internal literals, sorted and
        deduplicated, allocating variables as needed; skip a tautology
        or a clause already true at level 0; drop literals false at
        level 0; then enqueue and propagate a unit at once (so later
        clauses see its consequences), or attach a longer clause.
        ``derived`` is ``None`` or a list that receives, in internal
        literals, every clause the level-0 facts strengthened and the
        empty clause of a propagation conflict, in order: the DRUP
        lines of the ingest.  Returns False as soon as the formula is
        UNSAT (the remaining clauses are not read).  Raises
        ``ValueError`` on literal 0.
        """
        assign = self.assign
        for clause in clauses:
            lits = sorted(
                {(e << 1) - 2 if e > 0 else (-e << 1) - 1 for e in clause}
            )
            if lits:
                if lits[0] < 0:
                    raise ValueError("literal 0 is not allowed")
                while lits[-1] >> 1 >= self.nv:
                    self.add_var()
            out: list[int] = []
            for lit in lits:
                val = assign[lit]
                if val < 0:
                    # Sorted order puts ``x`` right before ``~x``.
                    if out and out[-1] == lit ^ 1:
                        break  # tautology
                    out.append(lit)
                elif val:
                    break  # already true at level 0
            else:
                n = len(out)
                if n < len(lits) and derived is not None:
                    derived.append(out)
                if n > 1:
                    self.attach(out, 0, 0)
                    continue
                if not n:
                    return False
                self.enqueue(out[0], -1)
                if self.propagate() >= 0:
                    if derived is not None:
                        derived.append([])
                    return False
        return True

    def enqueue(self, lit: int, reason_cref: int) -> bool:
        """Assign ``lit`` true with the given reason; False on conflict."""
        val = self.assign[lit]
        if val >= 0:
            return val == 1
        var = lit >> 1
        self.assign[lit] = 1
        self.assign[lit ^ 1] = 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_cref
        self.trail.append(lit)
        return True

    # ----------------------------------------------------------------- BCP
    def propagate(self) -> int:
        """Two-watched-literal BCP; returns the conflicting cref or -1."""
        arena = self.arena
        watches = self.watches
        bin_other = self.bin_other
        bin_cref = self.bin_cref
        assign = self.assign
        level = self.level
        reason = self.reason
        trail = self.trail
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        props = 0
        confl = -1
        trail_append = trail.append
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            fal = lit ^ 1
            # Binary implications: ``fal`` is false, each partner literal
            # is forced without touching the arena.  The single ``<= 0``
            # gate keeps the dominant already-true case to one compare.
            for other, cref in zip(bin_other[fal], bin_cref[fal]):
                if assign[other] <= 0:
                    if assign[other] < 0:
                        assign[other] = 1
                        assign[other ^ 1] = 0
                        level[other >> 1] = cur_level
                        reason[other >> 1] = cref
                        trail_append(other)
                        if arena[cref] != other:
                            arena[cref] = other
                            arena[cref + 1] = fal
                    else:
                        if arena[cref] != other:
                            arena[cref] = other
                            arena[cref + 1] = fal
                        confl = cref
                        qhead = len(trail)
                        break
            if confl >= 0:
                break
            # Long clauses: blocker check first, arena only on demand.
            wl = watches[fal]
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i]
                if assign[blocker] == 1:
                    if j != i:
                        wl[j] = blocker
                        wl[j + 1] = wl[i + 1]
                    i += 2
                    j += 2
                    continue
                cref = wl[i + 1]
                i += 2
                # Ensure the falsified literal sits at position 1.
                c0 = arena[cref]
                if c0 == fal:
                    c0 = arena[cref + 1]
                    arena[cref] = c0
                    arena[cref + 1] = fal
                v0 = assign[c0]
                if v0 == 1:
                    # Satisfied by the other watcher: keep, cache it as
                    # the new blocker.
                    wl[j] = c0
                    wl[j + 1] = cref
                    j += 2
                    continue
                # Look for a replacement watch (any non-false literal).
                for k in range(cref + 2, cref + arena[cref - 1]):
                    o = arena[k]
                    if assign[o]:  # true (1) or unassigned (-1)
                        arena[cref + 1] = o
                        arena[k] = fal
                        wo = watches[o]
                        wo.append(c0)
                        wo.append(cref)
                        break
                else:
                    # Clause is unit or conflicting; keep watching ``fal``.
                    wl[j] = c0
                    wl[j + 1] = cref
                    j += 2
                    if v0 == 0:  # c0 false: conflict
                        wl[j:] = wl[i:]
                        j += n - i
                        confl = cref
                        qhead = len(trail)
                        break
                    assign[c0] = 1
                    assign[c0 ^ 1] = 0
                    level[c0 >> 1] = cur_level
                    reason[c0 >> 1] = cref
                    trail_append(c0)
            if j != n:
                del wl[j:]
            if confl >= 0:
                break
        self.qhead = qhead
        self.props += props
        return confl

    # ---------------------------------------------------------- backtrack
    def backtrack(self, target: int) -> None:
        """Undo to ``target`` level; unassigned variables re-enter the
        order heap (popped decisions were its only absentees)."""
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        trail = self.trail
        assign = self.assign
        reason = self.reason
        phase = self.phase
        heap = self.heap
        hpos = self.hpos
        act = self.act
        for idx in range(len(trail) - 1, bound - 1, -1):
            lit = trail[idx]
            var = lit >> 1
            # ``lit`` is the true literal: even means the variable is 1,
            # odd means 0.
            phase[var] = (lit & 1) ^ 1
            assign[lit] = -1
            assign[lit ^ 1] = -1
            reason[var] = -1
            if hpos[var] < 0:
                # Re-insert at the bottom and sift up (inlined, as in
                # ``analyze``).
                i = len(heap)
                heap.append(var)
                a = act[var]
                while i > 0:
                    parent_i = (i - 1) >> 1
                    parent = heap[parent_i]
                    pa = act[parent]
                    if pa > a or (pa == a and parent < var):
                        break
                    heap[i] = parent
                    hpos[parent] = i
                    i = parent_i
                heap[i] = var
                hpos[var] = i
        del trail[bound:]
        del self.trail_lim[target:]
        self.qhead = bound

    # ------------------------------------------------------------- analyze
    def analyze(self, confl: int):
        """First-UIP learning with recursive minimization.

        Returns ``(learnt, backjump_level, lbd)``.  Variable and clause
        activity bumps (with their rescales and inlined heap sift-ups)
        happen in here; rescales multiply every key by one constant, so the
        order heap never needs rebuilding.
        """
        arena = self.arena
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        act = self.act
        heap = self.heap
        hpos = self.hpos
        l_act = self.l_act
        var_inc = self.var_inc
        cla_inc = self.cla_inc
        learnt = [0]  # placeholder for the asserting literal
        counter = 0
        lit = -1
        cref = confl
        index = len(trail) - 1
        cur_level = len(self.trail_lim)

        while True:
            lidx = arena[cref - 2]
            if lidx >= 0:
                la = l_act[lidx] + cla_inc
                l_act[lidx] = la
                if la > _RESCALE_LIMIT:
                    for i in range(len(l_act)):
                        l_act[i] *= _RESCALE_FACTOR
                    cla_inc *= _RESCALE_FACTOR
            # For reason clauses (every iteration after the first)
            # position 0 holds the implied literal itself; skip it.
            start = cref if lit == -1 else cref + 1
            for q in arena[start : cref + arena[cref - 1]]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    a = act[var] + var_inc
                    act[var] = a
                    if a > _RESCALE_LIMIT:
                        for v in range(self.nv):
                            act[v] *= _RESCALE_FACTOR
                        var_inc *= _RESCALE_FACTOR
                        a = act[var]
                    i = hpos[var]
                    if i >= 0:
                        # Sift ``var`` up under the total order
                        # (activity desc, var asc): no structural ties,
                        # so the pop sequence is a pure function of the
                        # activities, independent of heap history.
                        while i > 0:
                            parent_i = (i - 1) >> 1
                            parent = heap[parent_i]
                            pa = act[parent]
                            if pa > a or (pa == a and parent < var):
                                break
                            heap[i] = parent
                            hpos[parent] = i
                            i = parent_i
                        heap[i] = var
                        hpos[var] = i
                    if level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next literal from the trail at the current level.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            cref = reason[var]
            if counter == 0:
                break
        self.var_inc = var_inc
        self.cla_inc = cla_inc
        learnt[0] = lit ^ 1

        # Recursive (MiniSat ccmin=deep) minimization: drop literals
        # implied by the rest of the clause through the implication
        # graph.  ``seen`` marks are shared so walks amortize;
        # ``abstract_levels`` prunes chains that touch decision levels
        # absent from the clause.
        to_clear = learnt[1:]
        abstract_levels = 0
        for q in to_clear:
            seen[q >> 1] = 1
            abstract_levels |= 1 << (level[q >> 1] & 31)
        keep = [learnt[0]]
        for q in learnt[1:]:
            if reason[q >> 1] < 0 or not self._lit_redundant(
                q, abstract_levels, to_clear
            ):
                keep.append(q)
        for q in to_clear:
            seen[q >> 1] = 0
        seen[learnt[0] >> 1] = 0
        learnt = keep

        if len(learnt) == 1:
            bt_level = 0
        else:
            # Second-highest decision level moves to slot 1.
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = level[learnt[1] >> 1]

        lbd = len({level[q >> 1] for q in learnt})
        return learnt, bt_level, lbd

    def _lit_redundant(
        self, lit: int, abstract_levels: int, to_clear: list[int]
    ) -> bool:
        """MiniSat's litRedundant over the arena: walk ``lit``'s
        implication ancestry; redundant iff the walk only meets seen
        (in-clause) variables, level-0 facts, or further implied
        variables at clause decision levels."""
        arena = self.arena
        seen = self.seen
        level = self.level
        reason = self.reason
        stack = [lit]
        stack_pop = stack.pop
        stack_append = stack.append
        clear_append = to_clear.append
        top = len(to_clear)
        while stack:
            p = stack_pop()
            cref = reason[p >> 1]
            for q in arena[cref + 1 : cref + arena[cref - 1]]:
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                if reason[var] < 0 or not (
                    abstract_levels >> (level[var] & 31) & 1
                ):
                    # A decision, or a level foreign to the clause: the
                    # chain fails.  Un-mark what this walk added (marks
                    # made by successful walks stay).
                    for q2 in to_clear[top:]:
                        seen[q2 >> 1] = 0
                    del to_clear[top:]
                    return False
                seen[var] = 1
                clear_append(q)
                stack_append(q)
        return True

    # ------------------------------------------------------------ reduce DB
    def reduce_db(self) -> list[tuple[int, ...]]:
        """Drop the weaker half of the learned clauses (by LBD, then
        activity, then cref); returns the deleted clauses' literals in
        deletion order for proof logging."""
        arena = self.arena
        reason = self.reason
        assign = self.assign
        locked = set()
        for var in range(self.nv):
            if assign[var << 1] >= 0 and reason[var] >= 0:
                locked.add(reason[var])
        l_cref = self.l_cref
        l_act = self.l_act
        l_lbd = self.l_lbd
        scored = []
        for lidx in range(len(l_cref)):
            cref = l_cref[lidx]
            if cref < 0 or arena[cref - 1] <= 2 or cref in locked:
                continue
            scored.append((l_lbd[lidx], -l_act[lidx], cref, lidx))
        scored.sort()
        drop = scored[len(scored) // 2 :]
        if not drop:
            return []
        drop_idx = sorted(entry[3] for entry in drop)
        deleted: list[tuple[int, ...]] = []
        for lidx in drop_idx:
            cref = l_cref[lidx]
            lits = tuple(arena[cref : cref + arena[cref - 1]])
            self._detach(cref)
            l_cref[lidx] = -1
            self.n_learnts -= 1
            deleted.append(lits)
        return deleted

    def _detach(self, cref: int) -> None:
        arena = self.arena
        for watch_lit in (arena[cref], arena[cref + 1]):
            wl = self.watches[watch_lit]
            for i in range(1, len(wl), 2):
                if wl[i] == cref:
                    wl[i - 1] = wl[-2]
                    wl[i] = wl[-1]
                    del wl[-2:]
                    break
