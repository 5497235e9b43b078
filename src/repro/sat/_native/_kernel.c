/* NativeCore: the compiled twin of repro.sat.core_pure.PurePythonCore.
 *
 * A hand-written CPython extension type implementing the PropagationCore
 * seam (see repro/sat/solver.py CORE_INTERFACE).  Every data structure
 * and every operation mirrors core_pure.py exactly — same flat clause
 * arena layout, same blocker watch lists, same parallel binary lists,
 * same per-literal assignment array, same indexed VSIDS heap with the
 * (activity desc, var asc) total order, same EVSIDS rescale constants —
 * so that both cores produce byte-identical SolveResult trajectories.
 * All floating-point activity math is plain IEEE-754 double arithmetic
 * in the same operation order as the Python twin (no -ffast-math; see
 * setup.py), which makes the float streams bit-equal as well.
 *
 * The janalyze `dual-source-drift` checker cross-references this file
 * against CORE_INTERFACE; the parity suite
 * (tests/sat/test_native_parity.py) pins the byte-identity down at
 * runtime.  When editing core_pure.py, edit the matching block here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define RESCALE_LIMIT 1e100
#define RESCALE_FACTOR 1e-100

/* ------------------------------------------------------------------ */
/* growable int / double vectors                                       */

typedef struct {
    int *d;
    Py_ssize_t n, cap;
} IVec;

typedef struct {
    double *d;
    Py_ssize_t n, cap;
} DVec;

static int ivec_grow(IVec *v, Py_ssize_t need)
{
    Py_ssize_t cap = v->cap ? v->cap : 8;
    while (cap < need)
        cap *= 2;
    int *nd = (int *)realloc(v->d, (size_t)cap * sizeof(int));
    if (!nd)
        return -1;
    v->d = nd;
    v->cap = cap;
    return 0;
}

static inline int ivec_push(IVec *v, int x)
{
    if (v->n == v->cap && ivec_grow(v, v->n + 1) < 0)
        return -1;
    v->d[v->n++] = x;
    return 0;
}

static int dvec_push(DVec *v, double x)
{
    if (v->n == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 8;
        double *nd = (double *)realloc(v->d, (size_t)cap * sizeof(double));
        if (!nd)
            return -1;
        v->d = nd;
        v->cap = cap;
    }
    v->d[v->n++] = x;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the NativeCore object                                               */

typedef struct {
    PyObject_HEAD
    Py_ssize_t nv;        /* variables */
    Py_ssize_t var_cap;   /* allocated per-var slots (lit arrays: 2x) */
    IVec arena;
    IVec *watches;        /* per literal: [blocker, cref, ...] */
    IVec *bin_other;      /* per literal: partner literals */
    IVec *bin_cref;       /* per literal: matching crefs */
    signed char *assign;  /* per literal: 1 true, 0 false, -1 unassigned */
    int *level;           /* per var */
    int *reason;          /* per var: cref or -1 */
    IVec trail;
    IVec trail_lim;
    Py_ssize_t qhead;
    double *act;          /* per var */
    double var_inc, var_decay, cla_inc, cla_decay;
    signed char *phase;   /* per var */
    signed char *seen;    /* per var */
    int *heap;            /* indexed max-heap of vars */
    Py_ssize_t heap_n;
    int *hpos;            /* per var: heap position or -1 */
    IVec l_cref;
    DVec l_act;
    IVec l_lbd;
    Py_ssize_t n_learnts;
    Py_ssize_t n_clauses; /* attached problem (non-learnt) clauses */
    long long props;
    int *lvl_stamp;       /* per DECISION LEVEL: generation marks for LBD.
                           * Sized by lvl_cap, NOT var_cap: it is indexed by
                           * level, so it grows from the level count that
                           * analyze meets, not from the variable table. */
    Py_ssize_t lvl_cap;
    int lvl_gen;
    IVec min_stack;       /* scratch for litRedundant */
    IVec to_clear;        /* scratch for minimization */
    IVec lits;            /* buffer for one clause being added */
} NativeCore;

static int core_grow_vars(NativeCore *self, Py_ssize_t need)
{
    Py_ssize_t cap = self->var_cap ? self->var_cap : 16;
    while (cap < need)
        cap *= 2;
    if (cap == self->var_cap)
        return 0;

#define GROW(field, type, mult)                                             \
    do {                                                                    \
        void *nd = realloc(self->field,                                     \
                           (size_t)cap * (mult) * sizeof(type));            \
        if (!nd)                                                            \
            return -1;                                                      \
        self->field = (type *)nd;                                           \
    } while (0)

    GROW(watches, IVec, 2);
    GROW(bin_other, IVec, 2);
    GROW(bin_cref, IVec, 2);
    GROW(assign, signed char, 2);
    GROW(level, int, 1);
    GROW(reason, int, 1);
    GROW(act, double, 1);
    GROW(phase, signed char, 1);
    GROW(seen, signed char, 1);
    GROW(heap, int, 1);
    GROW(hpos, int, 1);
#undef GROW
    /* zero the fresh IVec slots so attach/propagate can push blindly */
    memset(self->watches + self->var_cap * 2, 0,
           (size_t)(cap - self->var_cap) * 2 * sizeof(IVec));
    memset(self->bin_other + self->var_cap * 2, 0,
           (size_t)(cap - self->var_cap) * 2 * sizeof(IVec));
    memset(self->bin_cref + self->var_cap * 2, 0,
           (size_t)(cap - self->var_cap) * 2 * sizeof(IVec));
    self->var_cap = cap;
    return 0;
}

/* lvl_stamp is indexed by decision level, not by variable, so it grows
 * on its own capacity: analyze sizes it from trail_lim before stamping,
 * and no bound on the level count is borrowed from var_cap. */
static int core_grow_levels(NativeCore *self, Py_ssize_t need)
{
    if (need <= self->lvl_cap)
        return 0;
    Py_ssize_t cap = self->lvl_cap ? self->lvl_cap : 16;
    while (cap < need)
        cap *= 2;
    int *nd = (int *)realloc(self->lvl_stamp, (size_t)cap * sizeof(int));
    if (!nd)
        return -1;
    memset(nd + self->lvl_cap, 0,
           (size_t)(cap - self->lvl_cap) * sizeof(int));
    self->lvl_stamp = nd;
    self->lvl_cap = cap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* VSIDS heap: total order (activity desc, var asc), as in the twin    */

static void heap_up(NativeCore *self, int var)
{
    int *heap = self->heap;
    int *hpos = self->hpos;
    double *act = self->act;
    Py_ssize_t i = hpos[var];
    double a = act[var];
    while (i > 0) {
        Py_ssize_t parent_i = (i - 1) >> 1;
        int parent = heap[parent_i];
        double pa = act[parent];
        if (pa > a || (pa == a && parent < var))
            break;
        heap[i] = parent;
        hpos[parent] = (int)i;
        i = parent_i;
    }
    heap[i] = var;
    hpos[var] = (int)i;
}

/* Pop the highest-activity unassigned variable; -1 when none. */
static int pick_branch_impl(NativeCore *self)
{
    int *heap = self->heap;
    int *hpos = self->hpos;
    double *act = self->act;
    signed char *assign = self->assign;
    while (self->heap_n) {
        int var = heap[0];
        int last = heap[--self->heap_n];
        hpos[var] = -1;
        Py_ssize_t n = self->heap_n;
        if (n) {
            Py_ssize_t i = 0;
            double a = act[last];
            for (;;) {
                Py_ssize_t child_i = 2 * i + 1;
                if (child_i >= n)
                    break;
                int child = heap[child_i];
                double ca = act[child];
                Py_ssize_t right_i = child_i + 1;
                if (right_i < n) {
                    int right = heap[right_i];
                    double ra = act[right];
                    if (ra > ca || (ra == ca && right < child)) {
                        child_i = right_i;
                        child = right;
                        ca = ra;
                    }
                }
                if (ca > a || (ca == a && child < last)) {
                    heap[i] = child;
                    hpos[child] = (int)i;
                    i = child_i;
                } else {
                    break;
                }
            }
            heap[i] = last;
            hpos[last] = (int)i;
        }
        if (assign[var << 1] < 0)
            return var;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* construction                                                        */

static int
NativeCore_init(NativeCore *self, PyObject *args, PyObject *kwds)
{
    double var_decay, clause_decay;
    static char *kwlist[] = {"var_decay", "clause_decay", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dd", kwlist, &var_decay,
                                     &clause_decay))
        return -1;
    self->var_inc = 1.0;
    self->cla_inc = 1.0;
    self->var_decay = var_decay;
    self->cla_decay = clause_decay;
    return 0;
}

static void
NativeCore_dealloc(NativeCore *self)
{
    free(self->arena.d);
    for (Py_ssize_t i = 0; i < self->var_cap * 2; i++) {
        free(self->watches[i].d);
        free(self->bin_other[i].d);
        free(self->bin_cref[i].d);
    }
    free(self->watches);
    free(self->bin_other);
    free(self->bin_cref);
    free(self->assign);
    free(self->level);
    free(self->reason);
    free(self->trail.d);
    free(self->trail_lim.d);
    free(self->act);
    free(self->phase);
    free(self->seen);
    free(self->heap);
    free(self->hpos);
    free(self->l_cref.d);
    free(self->l_act.d);
    free(self->l_lbd.d);
    free(self->lvl_stamp);
    free(self->min_stack.d);
    free(self->to_clear.d);
    free(self->lits.d);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------------ */
/* small accessors                                                     */

/* Append one variable; -1 with an exception set on failure. */
static int add_var_impl(NativeCore *self)
{
    Py_ssize_t var = self->nv;
    /* literals are packed as 2*var+lit_sign into int fields */
    if (var >= (Py_ssize_t)(INT_MAX / 2)) {
        PyErr_SetString(PyExc_OverflowError,
                        "variable count exceeds the native core's "
                        "32-bit literal range");
        return -1;
    }
    if (core_grow_vars(self, var + 1) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->nv = var + 1;
    self->assign[var * 2] = -1;
    self->assign[var * 2 + 1] = -1;
    self->level[var] = 0;
    self->reason[var] = -1;
    self->act[var] = 0.0;
    self->phase[var] = 0;
    self->seen[var] = 0;
    /* activity 0.0 can never beat an ancestor: append, no sift */
    self->hpos[var] = (int)self->heap_n;
    self->heap[self->heap_n++] = (int)var;
    return 0;
}

static PyObject *m_add_var(NativeCore *self, PyObject *noarg)
{
    if (add_var_impl(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *m_num_vars(NativeCore *self, PyObject *noarg)
{
    return PyLong_FromSsize_t(self->nv);
}

static PyObject *m_value(NativeCore *self, PyObject *arg)
{
    long lit = PyLong_AsLong(arg);
    if (lit == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(self->assign[lit]);
}

static PyObject *m_decision_level(NativeCore *self, PyObject *noarg)
{
    return PyLong_FromSsize_t(self->trail_lim.n);
}

static PyObject *m_propagation_count(NativeCore *self, PyObject *noarg)
{
    return PyLong_FromLongLong(self->props);
}

static PyObject *m_num_learnts(NativeCore *self, PyObject *noarg)
{
    return PyLong_FromSsize_t(self->n_learnts);
}

static PyObject *m_num_clauses(NativeCore *self, PyObject *noarg)
{
    return PyLong_FromSsize_t(self->n_clauses);
}

static PyObject *m_model(NativeCore *self, PyObject *noarg)
{
    PyObject *out = PyList_New(self->nv);
    if (!out)
        return NULL;
    for (Py_ssize_t var = 0; var < self->nv; var++) {
        PyObject *b = PyBool_FromLong(self->assign[var << 1] == 1);
        PyList_SET_ITEM(out, var, b);
    }
    return out;
}

static PyObject *m_decay(NativeCore *self, PyObject *noarg)
{
    self->var_inc /= self->var_decay;
    self->cla_inc /= self->cla_decay;
    Py_RETURN_NONE;
}

static PyObject *m_decide_next(NativeCore *self, PyObject *noarg)
{
    int var = pick_branch_impl(self);
    if (var < 0)
        return PyLong_FromLong(-1);
    int lit = var * 2 + (self->phase[var] == 0 ? 1 : 0);
    if (ivec_push(&self->trail_lim, (int)self->trail.n) < 0)
        return PyErr_NoMemory();
    self->assign[lit] = 1;
    self->assign[lit ^ 1] = 0;
    self->level[var] = (int)self->trail_lim.n;
    self->reason[var] = -1;
    if (ivec_push(&self->trail, lit) < 0)
        return PyErr_NoMemory();
    return PyLong_FromLong(lit);
}

/* ------------------------------------------------------------------ */
/* clauses                                                             */

/* Store a clause (>= 2 literals, in the given order) and watch it;
 * returns its cref, or -1 with an exception set. */
static int attach_impl(NativeCore *self, const int *lits, Py_ssize_t size,
                       int learnt, int lbd)
{
    IVec *arena = &self->arena;
    /* crefs and watch/bin entries hold arena offsets as int; refuse to
     * grow past that range rather than silently wrapping (the pure twin
     * has unbounded ints, so overflow here would also break parity). */
    if (size > (Py_ssize_t)INT_MAX - 2 ||
        arena->n > (Py_ssize_t)INT_MAX - 2 - size) {
        PyErr_SetString(PyExc_OverflowError,
                        "clause arena exceeds the native core's "
                        "32-bit index range");
        return -1;
    }
    int lidx = learnt ? (int)self->l_cref.n : -1;
    if (ivec_push(arena, lidx) < 0 || ivec_push(arena, (int)size) < 0 ||
        (arena->n + size > arena->cap && ivec_grow(arena, arena->n + size) < 0))
        goto nomem;
    int cref = (int)arena->n;
    memcpy(arena->d + cref, lits, (size_t)size * sizeof(int));
    arena->n += size;
    if (learnt) {
        if (ivec_push(&self->l_cref, cref) < 0 ||
            dvec_push(&self->l_act, self->cla_inc) < 0 ||
            ivec_push(&self->l_lbd, lbd) < 0)
            goto nomem;
        self->n_learnts++;
    } else {
        self->n_clauses++;
    }
    int l0 = lits[0];
    int l1 = lits[1];
    if (size == 2) {
        if (ivec_push(&self->bin_other[l0], l1) < 0 ||
            ivec_push(&self->bin_cref[l0], cref) < 0 ||
            ivec_push(&self->bin_other[l1], l0) < 0 ||
            ivec_push(&self->bin_cref[l1], cref) < 0)
            goto nomem;
    } else {
        IVec *w0 = &self->watches[l0];
        IVec *w1 = &self->watches[l1];
        if (ivec_push(w0, l1) < 0 || ivec_push(w0, cref) < 0 ||
            ivec_push(w1, l0) < 0 || ivec_push(w1, cref) < 0)
            goto nomem;
    }
    return cref;
nomem:
    PyErr_NoMemory();
    return -1;
}

static PyObject *m_attach(NativeCore *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "attach(lits, learnt, lbd)");
        return NULL;
    }
    long learnt = PyLong_AsLong(args[1]);
    long lbd = PyLong_AsLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *fast = PySequence_Fast(args[0], "attach: lits not a sequence");
    if (!fast)
        return NULL;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    IVec *buf = &self->lits;
    buf->n = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        long v = PyLong_AsLong(items[i]);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        if (ivec_push(buf, (int)v) < 0) {
            Py_DECREF(fast);
            return PyErr_NoMemory();
        }
    }
    Py_DECREF(fast);
    int cref = attach_impl(self, buf->d, buf->n, learnt ? 1 : 0, (int)lbd);
    if (cref < 0)
        return NULL;
    return PyLong_FromLong(cref);
}

static PyObject *m_enqueue(NativeCore *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "enqueue(lit, reason_cref)");
        return NULL;
    }
    long lit = PyLong_AsLong(args[0]);
    long reason_cref = PyLong_AsLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    signed char val = self->assign[lit];
    if (val >= 0)
        return PyBool_FromLong(val == 1);
    long var = lit >> 1;
    self->assign[lit] = 1;
    self->assign[lit ^ 1] = 0;
    self->level[var] = (int)self->trail_lim.n;
    self->reason[var] = (int)reason_cref;
    if (ivec_push(&self->trail, (int)lit) < 0)
        return PyErr_NoMemory();
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------ */
/* BCP                                                                 */

/* Two-watched-literal BCP: the conflicting cref, -1 when none, or -2
 * with an exception set. */
static long propagate_impl(NativeCore *self)
{
    int *arena = self->arena.d;
    IVec *watches = self->watches;
    IVec *bin_other = self->bin_other;
    IVec *bin_cref = self->bin_cref;
    signed char *assign = self->assign;
    int *level = self->level;
    int *reason = self->reason;
    IVec *trail = &self->trail;
    int cur_level = (int)self->trail_lim.n;
    Py_ssize_t qhead = self->qhead;
    long long props = 0;
    long confl = -1;

    while (qhead < trail->n) {
        int lit = trail->d[qhead++];
        props++;
        int fal = lit ^ 1;
        /* binary implications */
        {
            IVec *bol = &bin_other[fal];
            int *bo = bol->d;
            int *bc = bin_cref[fal].d;
            Py_ssize_t nb = bol->n;
            for (Py_ssize_t bi = 0; bi < nb; bi++) {
                int other = bo[bi];
                if (assign[other] <= 0) {
                    int cref = bc[bi];
                    if (assign[other] < 0) {
                        assign[other] = 1;
                        assign[other ^ 1] = 0;
                        level[other >> 1] = cur_level;
                        reason[other >> 1] = cref;
                        if (ivec_push(trail, other) < 0)
                            goto nomem;
                        if (arena[cref] != other) {
                            arena[cref] = other;
                            arena[cref + 1] = fal;
                        }
                    } else {
                        if (arena[cref] != other) {
                            arena[cref] = other;
                            arena[cref + 1] = fal;
                        }
                        confl = cref;
                        qhead = trail->n;
                        break;
                    }
                }
            }
        }
        if (confl >= 0)
            break;
        /* long clauses: blocker first, arena on demand */
        {
            IVec *wlv = &watches[fal];
            int *wl = wlv->d;
            Py_ssize_t i = 0, j = 0, n = wlv->n;
            while (i < n) {
                int blocker = wl[i];
                if (assign[blocker] == 1) {
                    if (j != i) {
                        wl[j] = blocker;
                        wl[j + 1] = wl[i + 1];
                    }
                    i += 2;
                    j += 2;
                    continue;
                }
                int cref = wl[i + 1];
                i += 2;
                int c0 = arena[cref];
                if (c0 == fal) {
                    c0 = arena[cref + 1];
                    arena[cref] = c0;
                    arena[cref + 1] = fal;
                }
                signed char v0 = assign[c0];
                if (v0 == 1) {
                    wl[j] = c0;
                    wl[j + 1] = cref;
                    j += 2;
                    continue;
                }
                Py_ssize_t end = cref + arena[cref - 1];
                int moved = 0;
                for (Py_ssize_t k = cref + 2; k < end; k++) {
                    int o = arena[k];
                    if (assign[o]) { /* true (1) or unassigned (-1) */
                        arena[cref + 1] = o;
                        arena[k] = fal;
                        IVec *wo = &watches[o];
                        if (ivec_push(wo, c0) < 0 ||
                            ivec_push(wo, cref) < 0)
                            goto nomem;
                        moved = 1;
                        break;
                    }
                }
                if (moved)
                    continue;
                wl[j] = c0;
                wl[j + 1] = cref;
                j += 2;
                if (v0 == 0) { /* conflict */
                    while (i < n) {
                        wl[j] = wl[i];
                        wl[j + 1] = wl[i + 1];
                        i += 2;
                        j += 2;
                    }
                    confl = cref;
                    qhead = trail->n;
                    break;
                }
                assign[c0] = 1;
                assign[c0 ^ 1] = 0;
                level[c0 >> 1] = cur_level;
                reason[c0 >> 1] = cref;
                if (ivec_push(trail, c0) < 0)
                    goto nomem;
            }
            wlv->n = j;
        }
        if (confl >= 0)
            break;
    }
    self->qhead = qhead;
    self->props += props;
    return confl;
nomem:
    PyErr_NoMemory();
    return -2;
}

static PyObject *m_propagate(NativeCore *self, PyObject *noarg)
{
    long confl = propagate_impl(self);
    if (confl == -2)
        return NULL;
    return PyLong_FromLong(confl);
}

/* ------------------------------------------------------------------ */
/* bulk ingest                                                         */

static int lit_cmp(const void *pa, const void *pb)
{
    int a = *(const int *)pa, b = *(const int *)pb;
    return a < b ? -1 : (a > b ? 1 : 0);
}

/* Append the internal literals lits[0..n) to the Python list ``derived``
 * as a list of ints; -1 with an exception set on failure. */
static int append_derived(PyObject *derived, const int *lits, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    if (!out)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(lits[i]);
        if (!v) {
            Py_DECREF(out);
            return -1;
        }
        PyList_SET_ITEM(out, i, v);
    }
    int rc = PyList_Append(derived, out);
    Py_DECREF(out);
    return rc;
}

/* add_clauses(clauses, derived): the twin's bulk ingest, clause by
 * clause in the same order with the same level-0 simplification,
 * unit propagation and derived-clause records. */
static PyObject *m_add_clauses(NativeCore *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "add_clauses(clauses, derived)");
        return NULL;
    }
    PyObject *derived = args[1] == Py_None ? NULL : args[1];
    if (derived && !PyList_Check(derived)) {
        PyErr_SetString(PyExc_TypeError,
                        "add_clauses: derived must be a list or None");
        return NULL;
    }
    PyObject *iter = PyObject_GetIter(args[0]);
    if (!iter)
        return NULL;
    IVec *buf = &self->lits;
    PyObject *clause;
    while ((clause = PyIter_Next(iter))) {
        PyObject *fast =
            PySequence_Fast(clause, "add_clauses: clause not a sequence");
        Py_DECREF(clause);
        if (!fast)
            goto error;
        Py_ssize_t size = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        buf->n = 0;
        for (Py_ssize_t i = 0; i < size; i++) {
            long e = PyLong_AsLong(items[i]);
            if (e == -1 && PyErr_Occurred()) {
                Py_DECREF(fast);
                goto error;
            }
            if (e == 0) {
                Py_DECREF(fast);
                PyErr_SetString(PyExc_ValueError,
                                "literal 0 is not allowed");
                goto error;
            }
            long var = (e > 0 ? e : -e) - 1;
            if (var >= (long)(INT_MAX / 2)) {
                Py_DECREF(fast);
                PyErr_SetString(PyExc_OverflowError,
                                "variable count exceeds the native core's "
                                "32-bit literal range");
                goto error;
            }
            if (ivec_push(buf, (int)(var * 2 + (e < 0))) < 0) {
                Py_DECREF(fast);
                PyErr_NoMemory();
                goto error;
            }
        }
        Py_DECREF(fast);
        /* sort and deduplicate into internal order */
        int *lits = buf->d;
        Py_ssize_t n = buf->n;
        if (n > 16) {
            qsort(lits, (size_t)n, sizeof(int), lit_cmp);
        } else {
            for (Py_ssize_t i = 1; i < n; i++) {
                int x = lits[i];
                Py_ssize_t k = i - 1;
                while (k >= 0 && lits[k] > x) {
                    lits[k + 1] = lits[k];
                    k--;
                }
                lits[k + 1] = x;
            }
        }
        Py_ssize_t m = 0;
        for (Py_ssize_t i = 0; i < n; i++)
            if (!m || lits[m - 1] != lits[i])
                lits[m++] = lits[i];
        n = m;
        if (n)
            while (self->nv <= (lits[n - 1] >> 1))
                if (add_var_impl(self) < 0)
                    goto error;
        /* level-0 simplification, compacting in place */
        signed char *assign = self->assign;
        Py_ssize_t out = 0;
        int skip = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            int lit = lits[i];
            signed char val = assign[lit];
            if (val < 0) {
                /* sorted order puts x right before ~x */
                if (out && lits[out - 1] == (lit ^ 1)) {
                    skip = 1; /* tautology */
                    break;
                }
                lits[out++] = lit;
            } else if (val) {
                skip = 1; /* already true at level 0 */
                break;
            }
        }
        if (skip)
            continue;
        if (out < n && derived && append_derived(derived, lits, out) < 0)
            goto error;
        if (out > 1) {
            if (attach_impl(self, lits, out, 0, 0) < 0)
                goto error;
            continue;
        }
        if (!out) {
            Py_DECREF(iter);
            Py_RETURN_FALSE;
        }
        int unit = lits[0];
        assign[unit] = 1;
        assign[unit ^ 1] = 0;
        self->level[unit >> 1] = (int)self->trail_lim.n;
        self->reason[unit >> 1] = -1;
        if (ivec_push(&self->trail, unit) < 0) {
            PyErr_NoMemory();
            goto error;
        }
        long confl = propagate_impl(self);
        if (confl == -2)
            goto error;
        if (confl >= 0) {
            if (derived && append_derived(derived, NULL, 0) < 0)
                goto error;
            Py_DECREF(iter);
            Py_RETURN_FALSE;
        }
    }
    Py_DECREF(iter);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_TRUE;
error:
    Py_DECREF(iter);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* backtrack                                                           */

static PyObject *m_backtrack(NativeCore *self, PyObject *arg)
{
    long target = PyLong_AsLong(arg);
    if (target == -1 && PyErr_Occurred())
        return NULL;
    if (self->trail_lim.n <= target)
        Py_RETURN_NONE;
    Py_ssize_t bound = self->trail_lim.d[target];
    int *trail = self->trail.d;
    signed char *assign = self->assign;
    int *reason = self->reason;
    signed char *phase = self->phase;
    int *hpos = self->hpos;
    for (Py_ssize_t idx = self->trail.n - 1; idx >= bound; idx--) {
        int lit = trail[idx];
        int var = lit >> 1;
        phase[var] = (signed char)((lit & 1) ^ 1);
        assign[lit] = -1;
        assign[lit ^ 1] = -1;
        reason[var] = -1;
        if (hpos[var] < 0) {
            hpos[var] = (int)self->heap_n;
            self->heap[self->heap_n++] = var;
            heap_up(self, var);
        }
    }
    self->trail.n = bound;
    self->trail_lim.n = target;
    self->qhead = bound;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                   */

/* MiniSat litRedundant over the arena; mirrors the twin exactly. */
static int lit_redundant(NativeCore *self, int lit,
                         unsigned int abstract_levels)
{
    int *arena = self->arena.d;
    signed char *seen = self->seen;
    int *level = self->level;
    int *reason = self->reason;
    IVec *stack = &self->min_stack;
    IVec *to_clear = &self->to_clear;
    stack->n = 0;
    if (ivec_push(stack, lit) < 0)
        return -1;
    Py_ssize_t top = to_clear->n;
    while (stack->n) {
        int p = stack->d[--stack->n];
        int cref = reason[p >> 1];
        Py_ssize_t end = cref + arena[cref - 1];
        for (Py_ssize_t idx = cref + 1; idx < end; idx++) {
            int q = arena[idx];
            int var = q >> 1;
            if (seen[var] || level[var] == 0)
                continue;
            if (reason[var] < 0 ||
                !((abstract_levels >> (level[var] & 31)) & 1u)) {
                for (Py_ssize_t t = top; t < to_clear->n; t++)
                    seen[to_clear->d[t] >> 1] = 0;
                to_clear->n = top;
                return 0;
            }
            seen[var] = 1;
            if (ivec_push(to_clear, q) < 0 || ivec_push(stack, q) < 0)
                return -1;
        }
    }
    return 1;
}

static PyObject *m_analyze(NativeCore *self, PyObject *arg)
{
    long confl = PyLong_AsLong(arg);
    if (confl == -1 && PyErr_Occurred())
        return NULL;
    int *arena = self->arena.d;
    signed char *seen = self->seen;
    int *level = self->level;
    int *reason = self->reason;
    int *trail = self->trail.d;
    double *act = self->act;
    int *hpos = self->hpos;
    double *l_act = self->l_act.d;
    double var_inc = self->var_inc;
    double cla_inc = self->cla_inc;

    IVec learnt = {NULL, 0, 0};
    if (ivec_push(&learnt, 0) < 0) /* placeholder for asserting literal */
        return PyErr_NoMemory();
    int counter = 0;
    int lit = -1;
    long cref = confl;
    Py_ssize_t index = self->trail.n - 1;
    int cur_level = (int)self->trail_lim.n;

    for (;;) {
        int lidx = arena[cref - 2];
        if (lidx >= 0) {
            double la = l_act[lidx] + cla_inc;
            l_act[lidx] = la;
            if (la > RESCALE_LIMIT) {
                for (Py_ssize_t i = 0; i < self->l_act.n; i++)
                    l_act[i] *= RESCALE_FACTOR;
                cla_inc *= RESCALE_FACTOR;
            }
        }
        /* reason clauses carry the implied literal at position 0 */
        Py_ssize_t start = (lit == -1) ? cref : cref + 1;
        Py_ssize_t end = cref + arena[cref - 1];
        for (Py_ssize_t p = start; p < end; p++) {
            int q = arena[p];
            int var = q >> 1;
            if (!seen[var] && level[var] > 0) {
                seen[var] = 1;
                double a = act[var] + var_inc;
                act[var] = a;
                if (a > RESCALE_LIMIT) {
                    for (Py_ssize_t v = 0; v < self->nv; v++)
                        act[v] *= RESCALE_FACTOR;
                    var_inc *= RESCALE_FACTOR;
                }
                if (hpos[var] >= 0)
                    heap_up(self, var);
                if (level[var] == cur_level) {
                    counter++;
                } else {
                    if (ivec_push(&learnt, q) < 0) {
                        free(learnt.d);
                        return PyErr_NoMemory();
                    }
                }
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        lit = trail[index];
        index--;
        int var = lit >> 1;
        seen[var] = 0;
        counter--;
        cref = reason[var];
        if (counter == 0)
            break;
    }
    self->var_inc = var_inc;
    self->cla_inc = cla_inc;
    learnt.d[0] = lit ^ 1;

    /* recursive minimization (ccmin=deep), shared seen marks */
    IVec *to_clear = &self->to_clear;
    to_clear->n = 0;
    unsigned int abstract_levels = 0;
    for (Py_ssize_t i = 1; i < learnt.n; i++) {
        int q = learnt.d[i];
        if (ivec_push(to_clear, q) < 0) {
            free(learnt.d);
            return PyErr_NoMemory();
        }
        seen[q >> 1] = 1;
        abstract_levels |= 1u << (level[q >> 1] & 31);
    }
    Py_ssize_t keep_n = 1;
    for (Py_ssize_t i = 1; i < learnt.n; i++) {
        int q = learnt.d[i];
        int red = 0;
        if (reason[q >> 1] >= 0) {
            red = lit_redundant(self, q, abstract_levels);
            if (red < 0) {
                free(learnt.d);
                return PyErr_NoMemory();
            }
        }
        if (!red)
            learnt.d[keep_n++] = q;
    }
    for (Py_ssize_t t = 0; t < to_clear->n; t++)
        seen[to_clear->d[t] >> 1] = 0;
    seen[learnt.d[0] >> 1] = 0;
    learnt.n = keep_n;

    int bt_level = 0;
    if (learnt.n > 1) {
        Py_ssize_t max_i = 1;
        for (Py_ssize_t i = 2; i < learnt.n; i++)
            if (level[learnt.d[i] >> 1] > level[learnt.d[max_i] >> 1])
                max_i = i;
        int tmp = learnt.d[1];
        learnt.d[1] = learnt.d[max_i];
        learnt.d[max_i] = tmp;
        bt_level = level[learnt.d[1] >> 1];
    }

    /* LBD: count distinct decision levels via generation stamps.  Any
     * level in the learnt clause is <= the current decision level. */
    if (core_grow_levels(self, (Py_ssize_t)self->trail_lim.n + 1) < 0) {
        free(learnt.d);
        return PyErr_NoMemory();
    }
    int lbd = 0;
    int gen = ++self->lvl_gen;
    for (Py_ssize_t i = 0; i < learnt.n; i++) {
        int l = level[learnt.d[i] >> 1];
        if (self->lvl_stamp[l] != gen) {
            self->lvl_stamp[l] = gen;
            lbd++;
        }
    }

    PyObject *py_learnt = PyList_New(learnt.n);
    if (!py_learnt) {
        free(learnt.d);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < learnt.n; i++) {
        PyObject *v = PyLong_FromLong(learnt.d[i]);
        if (!v) {
            Py_DECREF(py_learnt);
            free(learnt.d);
            return NULL;
        }
        PyList_SET_ITEM(py_learnt, i, v);
    }
    free(learnt.d);
    return Py_BuildValue("(Nii)", py_learnt, bt_level, lbd);
}

/* ------------------------------------------------------------------ */
/* clause-DB reduction                                                 */

typedef struct {
    int lbd;
    double neg_act;
    int cref;
    int lidx;
} Scored;

static int scored_cmp(const void *pa, const void *pb)
{
    const Scored *a = (const Scored *)pa;
    const Scored *b = (const Scored *)pb;
    if (a->lbd != b->lbd)
        return a->lbd < b->lbd ? -1 : 1;
    if (a->neg_act != b->neg_act)
        return a->neg_act < b->neg_act ? -1 : 1;
    if (a->cref != b->cref)
        return a->cref < b->cref ? -1 : 1;
    return a->lidx < b->lidx ? -1 : (a->lidx > b->lidx ? 1 : 0);
}

static int int_cmp(const void *pa, const void *pb)
{
    int a = *(const int *)pa, b = *(const int *)pb;
    return a < b ? -1 : (a > b ? 1 : 0);
}

static void detach_clause(NativeCore *self, int cref)
{
    int *arena = self->arena.d;
    int wlits[2] = {arena[cref], arena[cref + 1]};
    for (int w = 0; w < 2; w++) {
        IVec *wl = &self->watches[wlits[w]];
        for (Py_ssize_t i = 1; i < wl->n; i += 2) {
            if (wl->d[i] == cref) {
                wl->d[i - 1] = wl->d[wl->n - 2];
                wl->d[i] = wl->d[wl->n - 1];
                wl->n -= 2;
                break;
            }
        }
    }
}

static PyObject *m_reduce_db(NativeCore *self, PyObject *noarg)
{
    int *arena = self->arena.d;
    int *reason = self->reason;
    signed char *assign = self->assign;
    Py_ssize_t n_l = self->l_cref.n;
    Scored *scored = (Scored *)malloc((size_t)(n_l ? n_l : 1)
                                      * sizeof(Scored));
    if (!scored)
        return PyErr_NoMemory();
    Py_ssize_t n_scored = 0;
    for (Py_ssize_t lidx = 0; lidx < n_l; lidx++) {
        int cref = self->l_cref.d[lidx];
        if (cref < 0 || arena[cref - 1] <= 2)
            continue;
        /* locked: the clause is some assigned variable's reason.  The
         * implied literal always sits at position 0 (enqueue and the
         * in-propagate swaps maintain that), so one direct check is
         * equivalent to the twin's reason-set membership test. */
        int p0 = arena[cref];
        if (assign[p0] >= 0 && reason[p0 >> 1] == cref)
            continue;
        scored[n_scored].lbd = self->l_lbd.d[lidx];
        scored[n_scored].neg_act = -self->l_act.d[lidx];
        scored[n_scored].cref = cref;
        scored[n_scored].lidx = (int)lidx;
        n_scored++;
    }
    qsort(scored, (size_t)n_scored, sizeof(Scored), scored_cmp);
    Py_ssize_t drop_start = n_scored / 2;
    Py_ssize_t n_drop = n_scored - drop_start;
    if (!n_drop) {
        free(scored);
        return PyList_New(0);
    }
    int *drop_idx = (int *)malloc((size_t)n_drop * sizeof(int));
    if (!drop_idx) {
        free(scored);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n_drop; i++)
        drop_idx[i] = scored[drop_start + i].lidx;
    free(scored);
    qsort(drop_idx, (size_t)n_drop, sizeof(int), int_cmp);

    PyObject *deleted = PyList_New(n_drop);
    if (!deleted) {
        free(drop_idx);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n_drop; i++) {
        int lidx = drop_idx[i];
        int cref = self->l_cref.d[lidx];
        int size = arena[cref - 1];
        PyObject *lits = PyTuple_New(size);
        if (!lits) {
            Py_DECREF(deleted);
            free(drop_idx);
            return NULL;
        }
        for (int k = 0; k < size; k++) {
            PyObject *v = PyLong_FromLong(arena[cref + k]);
            if (!v) {
                Py_DECREF(lits);
                Py_DECREF(deleted);
                free(drop_idx);
                return NULL;
            }
            PyTuple_SET_ITEM(lits, k, v);
        }
        detach_clause(self, cref);
        self->l_cref.d[lidx] = -1;
        self->n_learnts--;
        PyList_SET_ITEM(deleted, i, lits);
    }
    free(drop_idx);
    return deleted;
}

/* ------------------------------------------------------------------ */

static PyMethodDef NativeCore_methods[] = {
    {"add_var", (PyCFunction)m_add_var, METH_NOARGS, NULL},
    {"num_vars", (PyCFunction)m_num_vars, METH_NOARGS, NULL},
    {"value", (PyCFunction)m_value, METH_O, NULL},
    {"decision_level", (PyCFunction)m_decision_level, METH_NOARGS, NULL},
    {"propagation_count", (PyCFunction)m_propagation_count, METH_NOARGS,
     NULL},
    {"num_learnts", (PyCFunction)m_num_learnts, METH_NOARGS, NULL},
    {"num_clauses", (PyCFunction)m_num_clauses, METH_NOARGS, NULL},
    {"model", (PyCFunction)m_model, METH_NOARGS, NULL},
    {"decide_next", (PyCFunction)m_decide_next, METH_NOARGS, NULL},
    {"decay", (PyCFunction)m_decay, METH_NOARGS, NULL},
    {"attach", (PyCFunction)m_attach, METH_FASTCALL, NULL},
    {"add_clauses", (PyCFunction)m_add_clauses, METH_FASTCALL, NULL},
    {"enqueue", (PyCFunction)m_enqueue, METH_FASTCALL, NULL},
    {"propagate", (PyCFunction)m_propagate, METH_NOARGS, NULL},
    {"backtrack", (PyCFunction)m_backtrack, METH_O, NULL},
    {"analyze", (PyCFunction)m_analyze, METH_O, NULL},
    {"reduce_db", (PyCFunction)m_reduce_db, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject NativeCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._native._kernel.NativeCore",
    .tp_basicsize = sizeof(NativeCore),
    .tp_dealloc = (destructor)NativeCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled PropagationCore twin (see repro.sat.core_pure).",
    .tp_methods = NativeCore_methods,
    .tp_init = (initproc)NativeCore_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sat._native._kernel",
    .m_doc = "Native BCP + conflict-analysis kernel for the CDCL solver.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    if (PyType_Ready(&NativeCoreType) < 0)
        return NULL;
    /* class attribute used by the driver for SolverStats.core */
    PyObject *name = PyUnicode_FromString("native");
    if (!name)
        return NULL;
    if (PyDict_SetItemString(NativeCoreType.tp_dict, "core_name", name) <
        0) {
        Py_DECREF(name);
        return NULL;
    }
    Py_DECREF(name);
    PyObject *m = PyModule_Create(&kernel_module);
    if (!m)
        return NULL;
    Py_INCREF(&NativeCoreType);
    if (PyModule_AddObject(m, "NativeCore", (PyObject *)&NativeCoreType) <
        0) {
        Py_DECREF(&NativeCoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
