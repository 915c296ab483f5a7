/* C inner loops and tables of the BDD kernel.
 *
 * Two walks of the pure-Python kernel run here: the miss path of
 * ``BDD.and_`` (which OR, DIFF, IMPLIES, NAND and NOR reach through
 * De Morgan) and ``quantify._exists_iter`` (which ``forall`` shares
 * through complement edges).  A third entry runs the whole loop of
 * ``repro.decomp.exor.propagate_exor`` (Fig. 4's EXOR propagation:
 * seed cube, forced projections, overlap tests and accumulators) from
 * those two walks under one kernel open and close.  It makes the
 * Python loop's AND and exists calls in the same order, top-level AND
 * fast paths and ``_q_exists_calls`` included, and interns each
 * variable set at its first projection.  A fourth entry runs the whole
 * explicit-stack walk of ``repro.bdd.isop.isop``: cofactor splits, its
 * AND / OR / DIFF steps, the ``var`` node and ``ite(var, f1, f0)`` merge
 * of each split (the ``_ct_ite`` dict included) and the cube lists.
 * A fifth entry runs ``repro.decomp.grouping.group_variables`` for one
 * gate (Figs. 5 and 6): the pair scan, then the greedy growth, with the
 * Theorem 1 and 2 checks, the EXOR growth's pairwise filter, its Fig. 4
 * check (the third entry's loop) and the ``CheckContext`` memos and
 * counters they read and write.  All five work through the CPython C
 * API on the manager's own structures -- the ``_level`` / ``_lo`` /
 * ``_hi`` lists, the per-level ``_unique`` tables, the ``_free`` list,
 * the ``_ct_and`` table and the caller's exists memo -- and repeat the
 * Python loops step for step: the same probe order, node-creation
 * order, counter increments, ``_peak_live`` updates, growth-hook firing
 * and computed-table cap.  Node indices, counters and every module that
 * reads the arena therefore see exactly what the Python loops leave.
 *
 * The tables are ``Table`` objects (below): exact, insertion-ordered
 * maps from uint64 keys to uint64 values that the walks probe inline,
 * without boxing a key.  Python code uses them through the subset of
 * the dict API the kernel needs, and they iterate in the order a dict
 * would, so the differential tests can compare them with the dicts the
 * Python fallback uses.
 *
 * Counters follow the Python loops' commit points.  Increments the
 * Python code writes to the manager at once (the top-level AND cache
 * hit, ``_mk`` from the exists walk) go to the ``Kernel`` copy
 * directly; an AND walk keeps its own tallies and adds them only when
 * it completes, so a growth hook that raises leaves the manager's
 * counters as the Python loop would.  The copy is written back before
 * every hook call (the hook sees the manager as it would under the
 * Python loops) and when the top-level call returns.
 *
 * repro.bdd.native compiles and loads this file; repro.bdd.manager,
 * repro.bdd.quantify, repro.bdd.isop, repro.decomp.exor and
 * repro.decomp.grouping keep the Python loops as the fallback and as the
 * differential tests' reference.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t edge_t;

/* Matches repro.bdd.quantify._SUFFIX_BITS. */
#define SUFFIX_BITS 20

static PyObject *s_level, *s_lo, *s_hi, *s_unique, *s_free, *s_ct_and,
    *s_ct_lookups, *s_ct_hits, *s_uniq_lookups, *s_uniq_hits,
    *s_peak_live, *s_q_steps, *s_q_calls, *s_growth_hook,
    *s_growth_countdown, *s_growth_interval, *s_ct_ite, *s_level_to_var,
    *s_literals, *s_check_calls, *s_cache_hits, *s_exists_calls,
    *s_var_to_level;

/* ------------------------------------------------------------------ */
/* Growable stacks with inline storage                                 */
/* ------------------------------------------------------------------ */

#define STACK(T, N) struct { T *items; Py_ssize_t len, cap; T local[N]; }
#define STACK_INIT(s) \
    ((s).items = (s).local, (s).len = 0, \
     (s).cap = (Py_ssize_t)(sizeof((s).local) / sizeof((s).local[0])))
#define STACK_FREE(s) \
    do { if ((s).items != (s).local) PyMem_Free((s).items); } while (0)
#define STACK_PUSH(s, v) \
    (((s).len < (s).cap \
      || grow((void **)&(s).items, (s).local, &(s).cap, \
              sizeof((s).local[0])) == 0) \
     ? ((s).items[(s).len++] = (v), 0) : -1)

static int
grow(void **items, void *local, Py_ssize_t *cap, size_t size)
{
    Py_ssize_t ncap = *cap * 2;
    void *p;
    if (*items == local) {
        p = PyMem_Malloc((size_t)ncap * size);
        if (p != NULL)
            memcpy(p, local, (size_t)*cap * size);
    }
    else {
        p = PyMem_Realloc(*items, (size_t)ncap * size);
    }
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *items = p;
    *cap = ncap;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Table: an exact, insertion-ordered uint64 -> uint64 map             */
/* ------------------------------------------------------------------ */

/* Entries sit in insertion order with the key and value inline; an
 * int32 open-addressing index (Fibonacci hashing, linear probing) maps
 * a key to its entry.  A delete marks the entry DEAD and leaves its
 * index slot as a tombstone.  When the entry array is full, a rebuild
 * compacts the live entries into an array at least twice their number
 * and indexes them afresh, so the index is never more than half full.
 * Iterating the entry array gives dict's order: an overwrite keeps the
 * key's position, a delete and re-insert moves it to the end. */

#define DEAD UINT64_MAX                 /* the key of a deleted entry */
#define KEY_MAX (UINT64_MAX - 1)
#define EMPTY (-1)
#define MIN_CAP 8
#define MAX_CAP ((Py_ssize_t)1 << 30)   /* index positions fit in int32 */

typedef struct { uint64_t key, value; } Entry;

typedef struct {
    PyObject_HEAD
    Entry *entries;         /* cap slots; the first used are filled */
    int32_t *index;         /* 2 * cap slots: EMPTY or an entry position */
    Py_ssize_t used, len, cap;
    int shift;              /* 64 - log2(2 * cap) */
} Table;

static PyTypeObject TableType;

static inline size_t
home_slot(const Table *t, uint64_t key)
{
    return (size_t)((key * 0x9E3779B97F4A7C15ULL) >> t->shift);
}

/* The entry position of *key* (never DEAD), or -1. */
static inline Py_ssize_t
table_find(const Table *t, uint64_t key)
{
    size_t mask = (size_t)(2 * t->cap - 1), i;
    int32_t pos;
    if (t->cap == 0)
        return -1;
    for (i = home_slot(t, key); (pos = t->index[i]) != EMPTY;
         i = (i + 1) & mask) {
        if (t->entries[pos].key == key)
            return pos;
    }
    return -1;
}

/* Compact the live entries into fresh arrays sized for them. */
static int
table_rebuild(Table *t)
{
    Py_ssize_t cap = MIN_CAP, n = 0, i;
    size_t mask, j;
    Entry *entries;
    int32_t *index;
    int shift = 64 - 1;

    while (cap < 2 * t->len)
        cap *= 2;
    if (cap > MAX_CAP) {
        PyErr_SetString(PyExc_MemoryError, "Table too large");
        return -1;
    }
    for (i = cap; i > 1; i >>= 1)
        shift--;
    entries = PyMem_Malloc((size_t)cap * sizeof(Entry));
    index = PyMem_Malloc((size_t)(2 * cap) * sizeof(int32_t));
    if (entries == NULL || index == NULL) {
        PyMem_Free(entries);
        PyMem_Free(index);
        PyErr_NoMemory();
        return -1;
    }
    memset(index, 0xff, (size_t)(2 * cap) * sizeof(int32_t));
    mask = (size_t)(2 * cap - 1);
    for (i = 0; i < t->used; i++) {
        uint64_t key = t->entries[i].key;
        if (key == DEAD)
            continue;
        entries[n] = t->entries[i];
        j = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> shift);
        while (index[j] != EMPTY)
            j = (j + 1) & mask;
        index[j] = (int32_t)n++;
    }
    PyMem_Free(t->entries);
    PyMem_Free(t->index);
    t->entries = entries;
    t->index = index;
    t->cap = cap;
    t->used = t->len = n;
    t->shift = shift;
    return 0;
}

/* Map *key* (at most KEY_MAX) to *value*. */
static int
table_set(Table *t, uint64_t key, uint64_t value)
{
    Py_ssize_t pos = table_find(t, key);
    size_t mask, i;
    if (pos >= 0) {
        t->entries[pos].value = value;
        return 0;
    }
    if (t->used == t->cap && table_rebuild(t) < 0)
        return -1;
    mask = (size_t)(2 * t->cap - 1);
    for (i = home_slot(t, key); t->index[i] != EMPTY; i = (i + 1) & mask)
        ;
    t->index[i] = (int32_t)t->used;
    t->entries[t->used].key = key;
    t->entries[t->used].value = value;
    t->used++;
    t->len++;
    return 0;
}

static void
table_clear(Table *t)
{
    PyMem_Free(t->entries);
    PyMem_Free(t->index);
    t->entries = NULL;
    t->index = NULL;
    t->used = t->len = t->cap = 0;
}

/* An int as uint64; OverflowError when negative or too large.  Where
 * long has 64 bits, PyLong_AsUnsignedLong's digit loop is used: the
 * long long variant goes through a byte-array conversion for any int of
 * two or more digits, which costs more than the whole probe. */
static inline uint64_t
as_uint64(PyObject *obj)
{
#if SIZEOF_LONG >= 8
    return (uint64_t)PyLong_AsUnsignedLong(obj);
#else
    return (uint64_t)PyLong_AsUnsignedLongLong(obj);
#endif
}

/* A key from Python: 1 with *out set for an int in [0, KEY_MAX], 0 for
 * anything else (no exception set), -1 on error. */
static int
key_of(PyObject *obj, uint64_t *out)
{
    uint64_t v;
    if (!PyLong_Check(obj))
        return 0;
    v = as_uint64(obj);
    if (v == UINT64_MAX && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    if (v > KEY_MAX)
        return 0;
    *out = v;
    return 1;
}

/* A key to store: TypeError for a non-int, OverflowError out of range. */
static int
key_arg(PyObject *obj, uint64_t *out)
{
    int r = key_of(obj, out);
    if (r == 0) {
        if (PyLong_Check(obj))
            PyErr_SetString(PyExc_OverflowError,
                            "Table keys lie in [0, 2**64 - 2]");
        else
            PyErr_Format(PyExc_TypeError, "Table keys are ints, not %.100s",
                         Py_TYPE(obj)->tp_name);
    }
    return r == 1 ? 0 : -1;
}

static PyObject *
table_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Table() takes no arguments");
        return NULL;
    }
    return type->tp_alloc(type, 0);     /* zeroed: an empty table */
}

static void
table_dealloc(Table *t)
{
    table_clear(t);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

static Py_ssize_t
table_length(Table *t)
{
    return t->len;
}

static int
table_contains(Table *t, PyObject *keyobj)
{
    uint64_t key;
    int r = key_of(keyobj, &key);
    return r == 1 ? table_find(t, key) >= 0 : r;
}

static void
key_error(PyObject *keyobj)
{
    PyObject *args = PyTuple_Pack(1, keyobj);
    if (args != NULL) {
        PyErr_SetObject(PyExc_KeyError, args);
        Py_DECREF(args);
    }
}

static PyObject *
table_subscript(Table *t, PyObject *keyobj)
{
    uint64_t key;
    Py_ssize_t pos = -1;
    int r = key_of(keyobj, &key);
    if (r < 0)
        return NULL;
    if (r)
        pos = table_find(t, key);
    if (pos < 0) {
        key_error(keyobj);
        return NULL;
    }
    return PyLong_FromUnsignedLongLong(t->entries[pos].value);
}

static int
table_ass_subscript(Table *t, PyObject *keyobj, PyObject *valobj)
{
    uint64_t key, value;
    Py_ssize_t pos = -1;
    int r;
    if (valobj != NULL) {
        if (key_arg(keyobj, &key) < 0)
            return -1;
        if (!PyLong_Check(valobj)) {
            PyErr_Format(PyExc_TypeError, "Table values are ints, not %.100s",
                         Py_TYPE(valobj)->tp_name);
            return -1;
        }
        value = as_uint64(valobj);
        if (value == UINT64_MAX && PyErr_Occurred())
            return -1;
        return table_set(t, key, value);
    }
    r = key_of(keyobj, &key);
    if (r < 0)
        return -1;
    if (r)
        pos = table_find(t, key);
    if (pos < 0) {
        key_error(keyobj);
        return -1;
    }
    t->entries[pos].key = DEAD;
    t->len--;
    return 0;
}

static PyObject *
table_get(Table *t, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t key;
    Py_ssize_t pos = -1;
    PyObject *dflt = nargs == 2 ? args[1] : Py_None;
    int r;
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "get takes 1 or 2 arguments");
        return NULL;
    }
    r = key_of(args[0], &key);
    if (r < 0)
        return NULL;
    if (r)
        pos = table_find(t, key);
    if (pos < 0) {
        Py_INCREF(dflt);
        return dflt;
    }
    return PyLong_FromUnsignedLongLong(t->entries[pos].value);
}

static PyObject *
table_clear_method(Table *t, PyObject *unused)
{
    (void)unused;
    table_clear(t);
    Py_RETURN_NONE;
}

/* The live entries in order: keys (what 0), values (1) or items (2). */
static PyObject *
table_list(Table *t, int what)
{
    PyObject *list = PyList_New(t->len), *item;
    Py_ssize_t i, n = 0;
    if (list == NULL)
        return NULL;
    for (i = 0; i < t->used; i++) {
        const Entry *e = &t->entries[i];
        if (e->key == DEAD)
            continue;
        if (what == 0)
            item = PyLong_FromUnsignedLongLong(e->key);
        else if (what == 1)
            item = PyLong_FromUnsignedLongLong(e->value);
        else
            item = Py_BuildValue("(KK)", (unsigned long long)e->key,
                                 (unsigned long long)e->value);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, n++, item);
    }
    return list;
}

static PyObject *
table_keys(Table *t, PyObject *unused)
{
    (void)unused;
    return table_list(t, 0);
}

static PyObject *
table_values(Table *t, PyObject *unused)
{
    (void)unused;
    return table_list(t, 1);
}

static PyObject *
table_items(Table *t, PyObject *unused)
{
    (void)unused;
    return table_list(t, 2);
}

static PyObject *
table_iter(Table *t)
{
    PyObject *keys = table_list(t, 0), *it;
    if (keys == NULL)
        return NULL;
    it = PyObject_GetIter(keys);
    Py_DECREF(keys);
    return it;
}

static PyMethodDef table_methods[] = {
    {"get", (PyCFunction)(void (*)(void))table_get, METH_FASTCALL,
     "get(key[, default]) -> the value for key, else default (None)."},
    {"clear", (PyCFunction)table_clear_method, METH_NOARGS,
     "Remove every entry and free the arrays."},
    {"keys", (PyCFunction)table_keys, METH_NOARGS,
     "The keys in insertion order, as a list."},
    {"values", (PyCFunction)table_values, METH_NOARGS,
     "The values in insertion order, as a list."},
    {"items", (PyCFunction)table_items, METH_NOARGS,
     "The (key, value) pairs in insertion order, as a list."},
    {NULL, NULL, 0, NULL},
};

static PyMappingMethods table_as_mapping = {
    (lenfunc)table_length,
    (binaryfunc)table_subscript,
    (objobjargproc)table_ass_subscript,
};

static PySequenceMethods table_as_sequence = {
    .sq_contains = (objobjproc)table_contains,
};

static PyTypeObject TableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._kernel.Table",
    .tp_basicsize = sizeof(Table),
    .tp_dealloc = (destructor)table_dealloc,
    .tp_as_sequence = &table_as_sequence,
    .tp_as_mapping = &table_as_mapping,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Table()\n\nAn exact, insertion-ordered map from ints in "
              "[0, 2**64 - 2] to ints in\n[0, 2**64 - 1]: the subset of "
              "dict the BDD kernel's tables use.",
    .tp_iter = (getiterfunc)table_iter,
    .tp_methods = table_methods,
    .tp_new = table_new,
};

/* ------------------------------------------------------------------ */
/* Manager state                                                       */
/* ------------------------------------------------------------------ */

/* The AND, exists and ISOP entries keep the first N_WALK counters; only
 * the EXOR propagation and the grouping count quantifier calls, which
 * Python counts around the others. */
enum { C_CT_LOOKUPS, C_CT_HITS, C_UNIQ_LOOKUPS, C_UNIQ_HITS, C_PEAK_LIVE,
       C_Q_STEPS, C_COUNTDOWN, C_Q_CALLS, N_COUNTERS };
#define N_WALK C_Q_CALLS

typedef struct {
    PyObject *mgr;                      /* borrowed from the caller */
    PyObject *level, *lo, *hi, *unique, *free;  /* new refs */
    Table *ct;                                  /* new ref */
    Py_ssize_t ct_max;
    PyObject *hook;                     /* new ref, NULL for None */
    long long interval;
    int ncounters;                      /* N_WALK or N_COUNTERS */
    long long val[N_COUNTERS];          /* working copies */
    long long synced[N_COUNTERS];       /* as last read or written */
} Kernel;

static PyObject **const counter_names[N_COUNTERS] = {
    &s_ct_lookups, &s_ct_hits, &s_uniq_lookups, &s_uniq_hits,
    &s_peak_live, &s_q_steps, &s_growth_countdown, &s_q_calls,
};

static int
get_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* (Re)read the counters and the growth-hook settings. */
static int
sync_in(Kernel *k)
{
    PyObject *hook;
    int i;
    for (i = 0; i < k->ncounters; i++) {
        if (get_ll(k->mgr, *counter_names[i], &k->val[i]) < 0)
            return -1;
        k->synced[i] = k->val[i];
    }
    hook = PyObject_GetAttr(k->mgr, s_growth_hook);
    if (hook == NULL)
        return -1;
    Py_CLEAR(k->hook);
    if (hook == Py_None)
        Py_DECREF(hook);
    else
        k->hook = hook;
    return get_ll(k->mgr, s_growth_interval, &k->interval);
}

/* Write back the counters that changed since the last sync. */
static int
sync_out(Kernel *k)
{
    int i;
    for (i = 0; i < k->ncounters; i++) {
        PyObject *v;
        int rc;
        if (k->val[i] == k->synced[i])
            continue;
        v = PyLong_FromLongLong(k->val[i]);
        if (v == NULL)
            return -1;
        rc = PyObject_SetAttr(k->mgr, *counter_names[i], v);
        Py_DECREF(v);
        if (rc < 0)
            return -1;
        k->synced[i] = k->val[i];
    }
    return 0;
}

static PyObject *
get_typed(PyObject *mgr, PyObject *name, PyTypeObject *type)
{
    PyObject *v = PyObject_GetAttr(mgr, name);
    if (v != NULL && Py_TYPE(v) != type) {
        PyErr_Format(PyExc_TypeError, "manager attribute %U must be a %s",
                     name, type->tp_name);
        Py_CLEAR(v);
    }
    return v;
}

static void
kernel_release(Kernel *k)
{
    Py_CLEAR(k->level);
    Py_CLEAR(k->lo);
    Py_CLEAR(k->hi);
    Py_CLEAR(k->unique);
    Py_CLEAR(k->free);
    Py_CLEAR(k->ct);
    Py_CLEAR(k->hook);
}

static int
kernel_open(Kernel *k, PyObject *mgr, Py_ssize_t ct_max, int ncounters)
{
    memset(k, 0, sizeof(*k));
    k->mgr = mgr;
    k->ct_max = ct_max;
    k->ncounters = ncounters;
    if ((k->level = get_typed(mgr, s_level, &PyList_Type)) == NULL
        || (k->lo = get_typed(mgr, s_lo, &PyList_Type)) == NULL
        || (k->hi = get_typed(mgr, s_hi, &PyList_Type)) == NULL
        || (k->unique = get_typed(mgr, s_unique, &PyList_Type)) == NULL
        || (k->free = get_typed(mgr, s_free, &PyList_Type)) == NULL
        || (k->ct = (Table *)get_typed(mgr, s_ct_and, &TableType)) == NULL
        || sync_in(k) < 0) {
        kernel_release(k);
        return -1;
    }
    return 0;
}

/* Flush and release; returns *result*, or NULL when the flush fails. */
static PyObject *
kernel_close(Kernel *k, PyObject *result)
{
    /* A pending exception is kept: the flush only restores counters. */
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (sync_out(k) < 0) {
        if (type != NULL) {
            PyErr_Clear();
            PyErr_Restore(type, value, tb);
        }
        Py_CLEAR(result);
    }
    else if (type != NULL) {
        PyErr_Restore(type, value, tb);
    }
    kernel_release(k);
    return result;
}

/* ------------------------------------------------------------------ */
/* Arena and table access                                              */
/* ------------------------------------------------------------------ */

static inline int
as_edge(PyObject *v, edge_t *out)
{
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (x < 0) {
        PyErr_SetString(PyExc_ValueError, "negative BDD edge");
        return -1;
    }
    *out = (edge_t)x;
    return 0;
}

static inline int
list_item(PyObject *list, edge_t idx, edge_t *out)
{
    if (idx >= (edge_t)PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "BDD node index out of range");
        return -1;
    }
    return as_edge(PyList_GET_ITEM(list, (Py_ssize_t)idx), out);
}

/* Probe *t* for *key*: 1 found (*out set), 0 absent. */
static inline int
probe(const Table *t, edge_t key, edge_t *out)
{
    Py_ssize_t pos = key == DEAD ? -1 : table_find(t, key);
    if (pos < 0)
        return 0;
    *out = t->entries[pos].value;
    return 1;
}

static inline int
store(Table *t, edge_t key, edge_t value)
{
    if (key == DEAD) {
        PyErr_SetString(PyExc_OverflowError, "Table key out of range");
        return -1;
    }
    return table_set(t, key, value);
}

static inline int
set_slot(PyObject *list, Py_ssize_t idx, edge_t value)
{
    PyObject *v = PyLong_FromUnsignedLongLong(value);
    if (v == NULL)
        return -1;
    if (idx >= PyList_GET_SIZE(list)) {
        Py_DECREF(v);
        PyErr_SetString(PyExc_IndexError, "BDD node index out of range");
        return -1;
    }
    return PyList_SetItem(list, idx, v);        /* steals v */
}

static inline int
append(PyObject *list, edge_t value)
{
    PyObject *v = PyLong_FromUnsignedLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyList_Append(list, v);
    Py_DECREF(v);
    return rc;
}

/* The growth hook, with the manager in the state the Python loops
 * would leave it in; settings and counters are re-read afterwards. */
static int
call_hook(Kernel *k)
{
    PyObject *hook = k->hook, *r;
    if (sync_out(k) < 0)
        return -1;
    Py_INCREF(hook);
    r = PyObject_CallOneArg(hook, k->mgr);
    Py_DECREF(hook);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return sync_in(k);
}

/* BDD._mk: find or create the node (level, lo, hi), normalised.
 * *lookups* / *hits* are the unique-table tallies to bump. */
static int
make_node(Kernel *k, long long level, edge_t lo, edge_t hi,
          long long *lookups, long long *hits, edge_t *out)
{
    edge_t c, node, key;
    PyObject *table;
    Py_ssize_t nfree, live;
    int rc;

    if (lo == hi) {
        *out = lo;
        return 0;
    }
    c = lo & 1;
    if (c) {
        lo ^= 1;
        hi ^= 1;
    }
    if (level < 0 || level >= PyList_GET_SIZE(k->unique)) {
        PyErr_SetString(PyExc_IndexError, "BDD level out of range");
        return -1;
    }
    table = PyList_GET_ITEM(k->unique, (Py_ssize_t)level);
    if (Py_TYPE(table) != &TableType) {
        PyErr_SetString(PyExc_TypeError, "unique table must be a Table");
        return -1;
    }
    (*lookups)++;
    key = (lo << 32) | hi;
    if (probe((Table *)table, key, &node)) {
        (*hits)++;
        *out = (node << 1) | c;
        return 0;
    }
    Py_INCREF(table);
    rc = -1;
    nfree = PyList_GET_SIZE(k->free);
    if (nfree) {
        if (as_edge(PyList_GET_ITEM(k->free, nfree - 1), &node) < 0
            || PyList_SetSlice(k->free, nfree - 1, nfree, NULL) < 0
            || set_slot(k->level, (Py_ssize_t)node, (edge_t)level) < 0
            || set_slot(k->lo, (Py_ssize_t)node, lo) < 0
            || set_slot(k->hi, (Py_ssize_t)node, hi) < 0)
            goto done;
    }
    else {
        node = (edge_t)PyList_GET_SIZE(k->level);
        if (append(k->level, (edge_t)level) < 0 || append(k->lo, lo) < 0
            || append(k->hi, hi) < 0)
            goto done;
    }
    rc = store((Table *)table, key, node);
    if (rc < 0)
        goto done;
    live = PyList_GET_SIZE(k->level) - PyList_GET_SIZE(k->free);
    if (live > k->val[C_PEAK_LIVE])
        k->val[C_PEAK_LIVE] = live;
    if (k->hook != NULL && --k->val[C_COUNTDOWN] <= 0) {
        k->val[C_COUNTDOWN] = k->interval;
        rc = call_hook(k);
    }
done:
    Py_DECREF(table);
    if (rc < 0)
        return -1;
    *out = (node << 1) | c;
    return 0;
}

/* ------------------------------------------------------------------ */
/* AND                                                                 */
/* ------------------------------------------------------------------ */

/* AND's terminal cases: 1 with *out set, else 0. */
static inline int
and_trivial(edge_t a, edge_t b, edge_t *out)
{
    if (a == b || b == 1)
        *out = a;
    else if (a == 1)
        *out = b;
    else if (a == 0 || b == 0 || a == (b ^ 1))
        *out = 0;
    else
        return 0;
    return 1;
}

#define SORT2(x, y) \
    do { if ((x) > (y)) { edge_t t_ = (x); (x) = (y); (y) = t_; } } while (0)

/* The children of edge e (top level elvl) at level lvl, complement
 * resolved; e itself twice when its top lies below lvl. */
static inline int
branches(Kernel *k, edge_t e, edge_t elvl, edge_t lvl, edge_t *e0,
         edge_t *e1)
{
    if (elvl != lvl) {
        *e0 = *e1 = e;
        return 0;
    }
    if (list_item(k->lo, e >> 1, e0) < 0 || list_item(k->hi, e >> 1, e1) < 0)
        return -1;
    *e0 ^= e & 1;
    *e1 ^= e & 1;
    return 0;
}

/* Frames: 0 expand the pair (a, b); 1 reduce the top two results into
 * level a, memoised under key b; 2 push the literal result a. */
typedef struct { edge_t a, b; int tag; } AndFrame;

#define APUSH(tag_, a_, b_) \
    do { AndFrame fr_ = {(a_), (b_), (tag_)}; \
         if (STACK_PUSH(tasks, fr_) < 0) goto error; } while (0)
#define RPUSH(v_) \
    do { if (STACK_PUSH(results, (edge_t)(v_)) < 0) goto error; } while (0)

/* BDD.and_'s loop for a normalised pair f < g whose computed-table probe
 * has just missed (the loop's first frame counts that probe). */
static int
and_walk(Kernel *k, edge_t f, edge_t g, edge_t *out)
{
    STACK(AndFrame, 64) tasks;
    STACK(edge_t, 64) results;
    Table *ct = k->ct;
    long long lookups = 1, hits = 0, ulookups = 0, uhits = 0;
    edge_t a = f, b = g, key = (f << 32) | g, lo_e = 0, hi_e = 0, res;
    edge_t la, lb, lvl = 0, a0, a1, b0, b1;
    int have_lo, have_hi;

    STACK_INIT(tasks);
    STACK_INIT(results);
    goto expand;
    while (tasks.len) {
        AndFrame fr = tasks.items[--tasks.len];
        if (fr.tag == 2) {
            RPUSH(fr.a);
            continue;
        }
        if (fr.tag == 1) {
            hi_e = results.items[--results.len];
            lo_e = results.items[--results.len];
            lvl = fr.a;
            key = fr.b;
            goto make;
        }
        /* Re-probe: the sibling subtree may have filled this key since
         * the frame was pushed. */
        a = fr.a;
        b = fr.b;
        key = (a << 32) | b;
        lookups++;
        if (probe(ct, key, &res)) {
            hits++;
            RPUSH(res);
            continue;
        }
expand:
        for (;;) {
            if (list_item(k->level, a >> 1, &la) < 0
                || list_item(k->level, b >> 1, &lb) < 0)
                goto error;
            lvl = la < lb ? la : lb;
            if (branches(k, a, la, lvl, &a0, &a1) < 0
                || branches(k, b, lb, lvl, &b0, &b1) < 0)
                goto error;
            /* Eager resolution of the low child. */
            have_lo = and_trivial(a0, b0, &lo_e);
            if (!have_lo) {
                SORT2(a0, b0);
                lookups++;
                have_lo = probe(ct, (a0 << 32) | b0, &lo_e);
                hits += have_lo;
            }
            /* Eager resolution of the high child; its miss is counted
             * by the frame that re-probes it. */
            have_hi = and_trivial(a1, b1, &hi_e);
            if (!have_hi) {
                SORT2(a1, b1);
                have_hi = probe(ct, (a1 << 32) | b1, &hi_e);
                lookups += have_hi;
                hits += have_hi;
            }
            if (!have_lo) {
                APUSH(1, lvl, key);
                if (!have_hi)
                    APUSH(0, a1, b1);
                else
                    APUSH(2, hi_e, 0);
                /* Descend the low spine without a frame. */
                a = a0;
                b = b0;
                key = (a0 << 32) | b0;
                continue;
            }
            if (have_hi)
                break;
            /* Low child resolved, high child pending. */
            RPUSH(lo_e);
            APUSH(1, lvl, key);
            APUSH(0, a1, b1);
            have_lo = 0;
            break;
        }
        if (!have_lo)
            continue;
make:
        if (make_node(k, (long long)lvl, lo_e, hi_e, &ulookups, &uhits,
                      &res) < 0
            || store(ct, key, res) < 0)
            goto error;
        RPUSH(res);
    }
    k->val[C_CT_LOOKUPS] += lookups;
    k->val[C_CT_HITS] += hits;
    k->val[C_UNIQ_LOOKUPS] += ulookups;
    k->val[C_UNIQ_HITS] += uhits;
    if (ct->len > k->ct_max)
        table_clear(ct);
    *out = results.items[0];
    STACK_FREE(tasks);
    STACK_FREE(results);
    return 0;
error:
    STACK_FREE(tasks);
    STACK_FREE(results);
    return -1;
}

#undef APUSH
#undef RPUSH

/* BDD.and_ in full: top-level fast paths, cache probe, then the walk. */
static int
and_top(Kernel *k, edge_t f, edge_t g, edge_t *out)
{
    if (and_trivial(f, g, out))
        return 0;
    SORT2(f, g);
    if (probe(k->ct, (f << 32) | g, out)) {
        k->val[C_CT_LOOKUPS]++;
        k->val[C_CT_HITS]++;
        return 0;
    }
    return and_walk(k, f, g, out);
}

/* ------------------------------------------------------------------ */
/* Existential quantification                                          */
/* ------------------------------------------------------------------ */

/* Frames: 0 visit edge x with quantified-level cursor i; 1 combine the
 * top two results at level lvl (OR when q), memoised under key x. */
typedef struct { edge_t x; long long lvl; Py_ssize_t i; int tag, q; } QFrame;

#define QPUSH(tag_, x_, lvl_, i_, q_) \
    do { QFrame fr_ = {(x_), (lvl_), (i_), (tag_), (q_)}; \
         if (STACK_PUSH(tasks, fr_) < 0) goto error; } while (0)
#define RPUSH(v_) \
    do { if (STACK_PUSH(results, (edge_t)(v_)) < 0) goto error; } while (0)

/* A quantified level set from Python: one PyMem block *out holding the
 * n levels followed by their n suffix ids (the caller frees it). */
static int
read_levels(PyObject *levels_obj, PyObject *sids_obj, long long **out,
            Py_ssize_t *n)
{
    PyObject *lv = PySequence_Fast(levels_obj, "levels must be a sequence");
    PyObject *sd = PySequence_Fast(sids_obj, "sids must be a sequence");
    long long *levels;
    Py_ssize_t i;
    int rc = -1;

    if (lv == NULL || sd == NULL)
        goto out;
    *n = PySequence_Fast_GET_SIZE(lv);
    if (PySequence_Fast_GET_SIZE(sd) < *n) {
        PyErr_SetString(PyExc_ValueError, "one suffix id per level needed");
        goto out;
    }
    levels = *out = PyMem_Malloc(sizeof(long long) * (size_t)(2 * *n + 1));
    if (levels == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    for (i = 0; i < *n; i++) {
        levels[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(lv, i));
        levels[*n + i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(sd, i));
        if (PyErr_Occurred())
            goto out;
    }
    rc = 0;
out:
    Py_XDECREF(lv);
    Py_XDECREF(sd);
    return rc;
}

static int
exists_walk(Kernel *k, edge_t f, const long long *levels,
            const long long *sids, Py_ssize_t n, Table *cache,
            edge_t *out)
{
    STACK(QFrame, 64) tasks;
    STACK(edge_t, 64) results;
    long long steps = 0, lvl;
    edge_t e, key, lo, hi, res, lv;
    Py_ssize_t i;

    STACK_INIT(tasks);
    STACK_INIT(results);
    QPUSH(0, f, 0, 0, 0);
    while (tasks.len) {
        QFrame fr = tasks.items[--tasks.len];
        steps++;
        if (fr.tag == 0) {
            e = fr.x;
            if (e < 2) {
                RPUSH(e);
                continue;
            }
            if (list_item(k->level, e >> 1, &lv) < 0)
                goto error;
            lvl = (long long)lv;
            /* Drop quantified levels that can no longer appear below. */
            i = fr.i;
            while (i < n && levels[i] < lvl)
                i++;
            if (i == n) {
                RPUSH(e);
                continue;
            }
            key = (e << SUFFIX_BITS) | (edge_t)sids[i];
            if (probe(cache, key, &res)) {
                RPUSH(res);
                continue;
            }
            if (branches(k, e, lv, lv, &lo, &hi) < 0)
                goto error;
            QPUSH(1, key, lvl, 0, levels[i] == lvl);
            QPUSH(0, hi, 0, i, 0);
            QPUSH(0, lo, 0, i, 0);
        }
        else {
            hi = results.items[--results.len];
            lo = results.items[--results.len];
            if (fr.q) {
                /* BDD.or_: De Morgan over AND. */
                if (and_top(k, lo ^ 1, hi ^ 1, &res) < 0)
                    goto error;
                res ^= 1;
            }
            else {
                /* Quantification only removes variables, so lo/hi top
                 * levels stay strictly below lvl: _mk is safe here. */
                if (make_node(k, fr.lvl, lo, hi, &k->val[C_UNIQ_LOOKUPS],
                              &k->val[C_UNIQ_HITS], &res) < 0)
                    goto error;
            }
            if (store(cache, fr.x, res) < 0)
                goto error;
            RPUSH(res);
        }
    }
    k->val[C_Q_STEPS] += steps;
    *out = results.items[0];
    STACK_FREE(tasks);
    STACK_FREE(results);
    return 0;
error:
    STACK_FREE(tasks);
    STACK_FREE(results);
    return -1;
}

#undef QPUSH
#undef RPUSH

/* ------------------------------------------------------------------ */
/* Fig. 4's EXOR propagation                                           */
/* ------------------------------------------------------------------ */

/* A quantified variable set.  It is interned through the caller's
 * callback at its first projection, where quantify.exists would intern
 * it, so suffix ids come out in the Python loops' order. */
typedef struct {
    PyObject *vars;                 /* new ref: the list passed to intern */
    PyObject *key;                  /* new ref: its frozenset (grouping) */
    long long *levels, *sids;       /* PyMem, one block; NULL until then */
    Py_ssize_t n;                   /* -1 until interned */
} VarSet;

static void
varset_clear(VarSet *s)
{
    Py_CLEAR(s->vars);
    Py_CLEAR(s->key);
    PyMem_Free(s->levels);
    s->levels = s->sids = NULL;
    s->n = -1;
}

/* intern(vars) -> (levels, suffix ids), as the quantify helpers give.
 * A set known only by its frozenset is passed as CheckContext.exists
 * passes it: sorted(key). */
static int
varset_intern(VarSet *s, PyObject *intern)
{
    PyObject *res;
    Py_ssize_t n;
    int rc = -1;

    if (s->vars == NULL) {
        if ((s->vars = PySequence_List(s->key)) == NULL)
            return -1;
        if (PyList_Sort(s->vars) < 0)
            return -1;
    }
    res = PyObject_CallOneArg(intern, s->vars);
    if (res == NULL)
        return -1;
    if (!PyTuple_Check(res) || PyTuple_GET_SIZE(res) != 2)
        PyErr_SetString(PyExc_TypeError, "intern must return (levels, sids)");
    else if (read_levels(PyTuple_GET_ITEM(res, 0), PyTuple_GET_ITEM(res, 1),
                         &s->levels, &n) == 0) {
        s->sids = s->levels + n;
        s->n = n;
        rc = 0;
    }
    Py_DECREF(res);
    return rc;
}

/* The state of one propagation: the kernel plus what quantify.exists
 * reads on each call. */
typedef struct {
    Kernel *k;                      /* borrowed: the open kernel */
    VarSet a, b;
    PyObject *intern;               /* borrowed */
    Table *cache;                   /* borrowed: the exists memo */
    char *drop;                     /* PyMem: 1 at the levels of XB */
    Py_ssize_t ndrop;               /* levels known at entry */
} Exor;

/* A propagation on the open kernel *k* with the variable lists xa and
 * xb (passed to intern as given) and *drop*, the levels of xb. */
static int
exor_init(Exor *x, Kernel *k, PyObject *intern, Table *cache, PyObject *xa,
          PyObject *xb, PyObject *drop)
{
    PyObject *seq;
    Py_ssize_t i, n;
    long long lv;
    int rc = -1;

    memset(x, 0, sizeof(*x));
    x->k = k;
    x->a.n = x->b.n = -1;
    x->a.vars = Py_NewRef(xa);
    x->b.vars = Py_NewRef(xb);
    x->intern = intern;
    x->cache = cache;
    x->ndrop = PyList_GET_SIZE(k->unique);
    if ((x->drop = PyMem_Calloc((size_t)x->ndrop + 1, 1)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if ((seq = PySequence_Fast(drop, "drop must be a sequence")) == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < n; i++) {
        lv = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (lv == -1 && PyErr_Occurred())
            goto out;
        if (lv < 0 || lv >= x->ndrop) {
            PyErr_SetString(PyExc_IndexError, "BDD level out of range");
            goto out;
        }
        x->drop[lv] = 1;
    }
    rc = 0;
out:
    Py_DECREF(seq);
    return rc;
}

static void
exor_release(Exor *x)
{
    PyMem_Free(x->drop);
    x->drop = NULL;
    varset_clear(&x->a);
    varset_clear(&x->b);
}

/* propagate_exor's _forced: exists(vars, (u & pu) | (v & pv)), built
 * in the Python expression's order; the exists call is quantify.exists,
 * which interns the set and counts the call before its walk. */
static int
forced(Exor *x, VarSet *s, edge_t u, edge_t pu, edge_t v, edge_t pv,
       edge_t *out)
{
    edge_t up, vp, either;
    if (and_top(x->k, u, pu, &up) < 0 || and_top(x->k, v, pv, &vp) < 0
        || and_top(x->k, up ^ 1, vp ^ 1, &either) < 0
        || (s->n < 0 && varset_intern(s, x->intern) < 0))
        return -1;
    if (s->n == 0) {
        *out = either ^ 1;
        return 0;
    }
    x->k->val[C_Q_CALLS]++;
    return exists_walk(x->k, either ^ 1, s->levels, s->sids, s->n,
                       x->cache, out);
}

/* The seed of component A: cube_to_bdd of pick_cube(q) without the
 * levels of XB.  pick_cube takes the 1-branch unless it is FALSE;
 * cube_to_bdd ANDs the literals in from the deepest level up, making
 * each literal node (BDD.var / BDD.nvar) just before its AND. */
static int
seed_cube(Exor *x, edge_t q, edge_t *out)
{
    STACK(edge_t, 64) path;             /* level << 1 | value, top first */
    Kernel *k = x->k;
    edge_t e = q, lv, lo, hi, lit, acc = 1, item;
    Py_ssize_t nlevels = PyList_GET_SIZE(k->unique);

    STACK_INIT(path);
    while (e != 1) {
        if (list_item(k->level, e >> 1, &lv) < 0)
            goto error;
        if (lv >= (edge_t)nlevels) {
            PyErr_SetString(PyExc_ValueError, "pick_cube reached FALSE");
            goto error;
        }
        if (branches(k, e, lv, lv, &lo, &hi) < 0)
            goto error;
        if (!((Py_ssize_t)lv < x->ndrop && x->drop[lv])
            && STACK_PUSH(path, (lv << 1) | (hi != 0)) < 0)
            goto error;
        e = hi != 0 ? hi : lo;
    }
    while (path.len) {
        item = path.items[--path.len];
        if (make_node(k, (long long)(item >> 1), (item & 1) ^ 1, item & 1,
                      &k->val[C_UNIQ_LOOKUPS], &k->val[C_UNIQ_HITS],
                      &lit) < 0
            || and_top(k, lit, acc, &acc) < 0)
            goto error;
    }
    *out = acc;
    STACK_FREE(path);
    return 0;
error:
    STACK_FREE(path);
    return -1;
}

#define AND(f_, g_, out_) \
    do { if (and_top(x->k, (f_), (g_), &(out_)) < 0) goto error; } while (0)
#define OR(f_, g_, out_) \
    do { AND((f_) ^ 1, (g_) ^ 1, out_); (out_) ^= 1; } while (0)
#define DIFF(f_, g_, out_) AND((f_), (g_) ^ 1, out_)
#define FORCED(s_, u_, pu_, v_, pv_, out_) \
    do { if (forced(x, (s_), (u_), (pu_), (v_), (pv_), &(out_)) < 0) \
             goto error; } while (0)
#define REFUTE_IF_OVERLAP(f_, g_) \
    do { AND((f_), (g_), t); if (t != 0) goto refuted; } while (0)

/* repro.decomp.exor.propagate_exor's loop, call for call.  On success
 * out[] holds (r, acc_qa, acc_ra, acc_qb, acc_rb) and 1 is returned;
 * 0 means an overlap refuted the decomposition, -1 an error. */
static int
exor_loop(Exor *x, edge_t q, edge_t r, edge_t out[5])
{
    edge_t acc_qa = 0, acc_ra = 0, acc_qb = 0, acc_rb = 0;
    edge_t q_a, r_a, q_b, r_b, q_b_new, r_b_new, covered, t, t2;

    while (q != 0) {
        if (seed_cube(x, q, &q_a) < 0)
            goto error;
        r_a = 0;
        while (q_a != 0 || r_a != 0) {
            /* Forced values of B given the new forced values of A. */
            FORCED(&x->a, q, r_a, r, q_a, q_b);
            FORCED(&x->a, q, q_a, r, r_a, r_b);
            REFUTE_IF_OVERLAP(q_b, r_b);
            OR(q_a, r_a, covered);
            DIFF(q, covered, q);
            DIFF(r, covered, r);
            OR(acc_qa, q_a, acc_qa);
            OR(acc_ra, r_a, acc_ra);
            DIFF(q_b, acc_qb, q_b_new);
            DIFF(r_b, acc_rb, r_b_new);
            OR(acc_qb, q_b, acc_qb);
            OR(acc_rb, r_b, acc_rb);
            REFUTE_IF_OVERLAP(acc_qb, acc_rb);
            /* Forced values of A given the new forced values of B. */
            FORCED(&x->b, q, r_b_new, r, q_b_new, q_a);
            FORCED(&x->b, q, q_b_new, r, r_b_new, r_a);
            REFUTE_IF_OVERLAP(q_a, r_a);
            OR(q_b_new, r_b_new, covered);
            DIFF(q, covered, q);
            DIFF(r, covered, r);
            DIFF(q_a, acc_qa, q_a);
            DIFF(r_a, acc_ra, r_a);
            OR(acc_qa, q_a, t);
            OR(acc_ra, r_a, t2);
            REFUTE_IF_OVERLAP(t, t2);
        }
    }
    out[0] = r;
    out[1] = acc_qa;
    out[2] = acc_ra;
    out[3] = acc_qb;
    out[4] = acc_rb;
    return 1;
refuted:
    return 0;
error:
    return -1;
}

#undef AND
#undef OR
#undef DIFF
#undef FORCED
#undef REFUTE_IF_OVERLAP

/* ------------------------------------------------------------------ */
/* Figs. 5 and 6: variable grouping                                    */
/* ------------------------------------------------------------------ */

/* The state of one repro.decomp.grouping.group_variables call: the
 * kernel, the CheckContext caches it reads and fills, and the context's
 * counter deltas. */
typedef struct {
    Kernel k;
    edge_t q, r;                    /* the ISF (complemented for AND) */
    PyObject *qr[2];                /* new refs: q and r as memo keys */
    PyObject *intern;               /* borrowed */
    Table *cache;                   /* borrowed: the exists memo */
    PyObject *varsets;              /* borrowed: _cache_ctx_varset */
    PyObject *exists_memo;          /* borrowed: _cache_ctx_exists */
    PyObject *verdicts;             /* borrowed: _cache_ctx_or / _exor1 */
    PyObject *exor_memo;            /* borrowed: _cache_ctx_exor */
    PyObject *propagate;            /* borrowed; NULL for OR and AND */
    PyObject *var_to_level;         /* new ref */
    VarSet *single;                 /* {v} per variable index v */
    Py_ssize_t nsingle;
    long long check_calls, cache_hits, exists_calls;
} Group;

/* CheckContext._varset: the frozenset of the variable indices in *vars*
 * (a sequence of them), memoised per argument tuple.  A new ref. */
static PyObject *
ctx_varset(Group *g, PyObject *vars)
{
    PyObject *key = PySequence_Tuple(vars), *fs;
    if (key == NULL)
        return NULL;
    fs = Py_XNewRef(PyDict_GetItemWithError(g->varsets, key));
    if (fs == NULL && !PyErr_Occurred()
        && (fs = PyFrozenSet_New(key)) != NULL
        && PyDict_SetItem(g->varsets, key, fs) < 0)
        Py_CLEAR(fs);
    Py_DECREF(key);
    if (fs != NULL && !PyFrozenSet_CheckExact(fs)) {
        PyErr_SetString(PyExc_TypeError, "variable sets must be frozensets");
        Py_CLEAR(fs);
    }
    return fs;
}

/* The singleton set {var} of a support variable, normalised at its
 * first use as the checks' [var] argument is. */
static VarSet *
singleton(Group *g, PyObject *var)
{
    Py_ssize_t v = PyLong_AsSsize_t(var);
    VarSet *s;
    PyObject *items;
    if (v == -1 && PyErr_Occurred())
        return NULL;
    if (v < 0 || v >= g->nsingle) {
        PyErr_SetString(PyExc_IndexError, "variable index out of range");
        return NULL;
    }
    s = &g->single[v];
    if (s->key == NULL) {
        if ((items = PyTuple_Pack(1, var)) == NULL)
            return NULL;
        s->key = ctx_varset(g, items);
        Py_DECREF(items);
        if (s->key == NULL)
            return NULL;
    }
    return s;
}

/* CheckContext.exists(node, s): the context memo, else quantify.exists
 * (intern the set, count the call, walk) and a memo entry. */
static int
ctx_exists(Group *g, edge_t node, VarSet *s, edge_t *out)
{
    PyObject *e, *key, *hit, *v;
    int rc = -1;

    if (PySet_GET_SIZE(s->key) == 0) {
        *out = node;
        return 0;
    }
    if ((e = PyLong_FromUnsignedLongLong(node)) == NULL)
        return -1;
    key = PyTuple_Pack(2, e, s->key);
    Py_DECREF(e);
    if (key == NULL)
        return -1;
    hit = PyDict_GetItemWithError(g->exists_memo, key);
    if (hit != NULL) {
        g->cache_hits++;
        rc = as_edge(hit, out);
        goto done;
    }
    if (PyErr_Occurred())
        goto done;
    g->exists_calls++;
    if (s->n < 0 && varset_intern(s, g->intern) < 0)
        goto done;
    if (s->n == 0)
        *out = node;
    else {
        g->k.val[C_Q_CALLS]++;
        if (exists_walk(&g->k, node, s->levels, s->sids, s->n, g->cache,
                        out) < 0)
            goto done;
    }
    if ((v = PyLong_FromUnsignedLongLong(*out)) == NULL)
        goto done;
    rc = PyDict_SetItem(g->exists_memo, key, v);
    Py_DECREF(v);
done:
    Py_DECREF(key);
    return rc;
}

/* CheckContext.check_memo's probe of *memo*: *key* gets a new ref to
 * (Q, R, A, B) and *hit* a new ref to the memoised verdict, which is
 * counted, or NULL on a miss.  -1 on error. */
static int
memo_probe(Group *g, PyObject *memo, VarSet *a, VarSet *b, PyObject **key,
           PyObject **hit)
{
    *hit = NULL;
    *key = PyTuple_Pack(4, g->qr[0], g->qr[1], a->key, b->key);
    if (*key == NULL)
        return -1;
    *hit = PyDict_GetItemWithError(memo, *key);
    if (*hit == NULL || *hit == Py_None) {
        *hit = NULL;
        if (PyErr_Occurred()) {
            Py_CLEAR(*key);
            return -1;
        }
        return 0;
    }
    Py_INCREF(*hit);
    g->cache_hits++;
    return 0;
}

/* Store *value* (a new ref or NULL) under *key* in *memo*, dropping both
 * references; returns *verdict*, or -1 on error. */
static int
memo_store(PyObject *memo, PyObject *key, PyObject *value, int verdict)
{
    if (verdict >= 0 && (value == NULL || PyDict_SetItem(memo, key,
                                                         value) < 0))
        verdict = -1;
    Py_DECREF(key);
    Py_XDECREF(value);
    return verdict;
}

/* A bool verdict memo hit (1 / 0), or -1 when *hit* is NULL. */
static int
verdict_of(PyObject *key, PyObject *hit)
{
    int rc = hit != NULL ? PyObject_IsTrue(hit) : -1;
    Py_DECREF(key);
    Py_XDECREF(hit);
    return rc;
}

/* checks.or_decomposable on (q, r): Theorem 1,
 * Q & exists(A, R) & exists(B, R) == 0.  1 / 0 / -1. */
static int
or_check(Group *g, VarSet *a, VarSet *b)
{
    PyObject *key, *hit;
    edge_t ea, eb, t;
    int rc;

    g->check_calls++;
    if (memo_probe(g, g->verdicts, a, b, &key, &hit) < 0)
        return -1;
    if (hit != NULL)
        return verdict_of(key, hit);
    rc = (ctx_exists(g, g->r, a, &ea) < 0 || and_top(&g->k, g->q, ea, &t) < 0
          || ctx_exists(g, g->r, b, &eb) < 0
          || and_top(&g->k, t, eb, &t) < 0) ? -1 : t == 0;
    return memo_store(g->verdicts, key, Py_NewRef(rc ? Py_True : Py_False),
                      rc);
}

/* Theorem 2 on the derivative ISF w.r.t. the set x, as derivative_isf
 * and exor._set_derivative_filter build it: Q_D & exists(y, R_D) == 0
 * with Q_D = exists(x, Q) & exists(x, R) and R_D = forall(x, Q) |
 * forall(x, R), the complement of exists(x, ~Q) & exists(x, ~R)
 * (BDD.or_ and CheckContext.forall go through complements).
 * 1 / 0 / -1. */
static int
theorem2(Group *g, VarSet *x, VarSet *y)
{
    edge_t eq, er, q_d, nfq, nfr, nr_d, ey, t;
    if (ctx_exists(g, g->q, x, &eq) < 0 || ctx_exists(g, g->r, x, &er) < 0
        || and_top(&g->k, eq, er, &q_d) < 0
        || ctx_exists(g, g->q ^ 1, x, &nfq) < 0
        || ctx_exists(g, g->r ^ 1, x, &nfr) < 0
        || and_top(&g->k, nfq, nfr, &nr_d) < 0
        || ctx_exists(g, nr_d ^ 1, y, &ey) < 0
        || and_top(&g->k, q_d, ey, &t) < 0)
        return -1;
    return t == 0;
}

/* checks.exor_decomposable_single(isf, x, y).  1 / 0 / -1. */
static int
exor1_check(Group *g, VarSet *x, VarSet *y)
{
    PyObject *key, *hit;
    int rc;

    g->check_calls++;
    if (memo_probe(g, g->verdicts, x, y, &key, &hit) < 0)
        return -1;
    if (hit != NULL)
        return verdict_of(key, hit);
    rc = theorem2(g, x, y);
    return memo_store(g->verdicts, key, Py_NewRef(rc ? Py_True : Py_False),
                      rc);
}

/* The four component edges of a propagation result *seq*. */
static int
read_components(PyObject *seq, edge_t comp[4])
{
    PyObject *items = PySequence_Fast(seq, "components must be a sequence");
    int i, rc = -1;
    if (items == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(items) != 4)
        PyErr_SetString(PyExc_ValueError, "four component edges needed");
    else {
        for (i = 0; i < 4; i++)
            if (as_edge(PySequence_Fast_GET_ITEM(items, i), &comp[i]) < 0)
                break;
        rc = i == 4 ? 0 : -1;
    }
    Py_DECREF(items);
    return rc;
}

/* The ISF constructor's overlap test on (on, off): 1 consistent,
 * 0 overlapping, -1 on error. */
static int
consistent(Group *g, edge_t on, edge_t off)
{
    edge_t t;
    return and_top(&g->k, on, off, &t) < 0 ? -1 : t == 0;
}

/* exor._components: the propagation's final step on its loop's result
 * out[] = (r, acc_qa, acc_ra, acc_qb, acc_rb).  1 with comp[] set, 0 for
 * None, -1 on error. */
static int
components(Group *g, VarSet *a, VarSet *b, const edge_t out[5],
           edge_t comp[4])
{
    edge_t r = out[0], qa = out[1], ra = out[2], qb = out[3], rb = out[4];
    edge_t e;
    int rc;

    if (r != 0) {
        /* Untouched off-set points force both components to 0. */
        if (ctx_exists(g, r, b, &e) < 0
            || and_top(&g->k, ra ^ 1, e ^ 1, &ra) < 0)
            return -1;
        ra ^= 1;
        if (ctx_exists(g, r, a, &e) < 0
            || and_top(&g->k, rb ^ 1, e ^ 1, &rb) < 0)
            return -1;
        rb ^= 1;
        if ((rc = consistent(g, qa, ra)) <= 0
            || (rc = consistent(g, qb, rb)) <= 0)
            return rc;
    }
    /* ISF(acc_qa, acc_ra), then ISF(acc_qb, acc_rb). */
    if ((rc = consistent(g, qa, ra)) <= 0
        || (rc = consistent(g, qb, rb)) <= 0)
        return rc;
    comp[0] = qa;
    comp[1] = ra;
    comp[2] = qb;
    comp[3] = rb;
    return 1;
}

/* The levels of the variables in *vars* (a list of indices). */
static PyObject *
levels_of(Group *g, PyObject *vars)
{
    Py_ssize_t n = PyList_GET_SIZE(vars), i, v;
    PyObject *out = PyList_New(n);
    for (i = 0; out != NULL && i < n; i++) {
        v = PyLong_AsSsize_t(PyList_GET_ITEM(vars, i));
        if (v < 0 || v >= PyList_GET_SIZE(g->var_to_level)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError,
                                "variable index out of range");
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i,
                        Py_NewRef(PyList_GET_ITEM(g->var_to_level, v)));
    }
    return out;
}

/* exor._propagate(isf, xa, xb): the kernel's Fig. 4 loop and
 * _components for an incompletely specified interval with a non-empty
 * on-set, else propagate_exor through the caller's callback, with the
 * manager as the Python loops leave it.  1 with comp[] set, 0 for None,
 * -1 on error. */
static int
propagate(Group *g, PyObject *xa, PyObject *xb, VarSet *a, VarSet *b,
          edge_t comp[4])
{
    PyObject *la = NULL, *lb = NULL, *drop = NULL, *res;
    edge_t dc = 0, out[5];
    Exor x;
    int rc = -1;

    if (g->q != 0 && and_top(&g->k, g->q ^ 1, g->r ^ 1, &dc) < 0)
        return -1;
    if (g->q == 0 || dc == 0) {
        if (sync_out(&g->k) < 0)
            return -1;
        res = PyObject_CallFunctionObjArgs(g->propagate, xa, xb, NULL);
        if (res == NULL)
            return -1;
        rc = res == Py_None ? 0 : read_components(res, comp) < 0 ? -1 : 1;
        Py_DECREF(res);
        return (rc < 0 || sync_in(&g->k) < 0) ? -1 : rc;
    }
    if ((la = PySequence_List(xa)) == NULL
        || (lb = PySequence_List(xb)) == NULL
        || (drop = levels_of(g, lb)) == NULL)
        goto out;
    if (exor_init(&x, &g->k, g->intern, g->cache, la, lb, drop) == 0
        && (rc = exor_loop(&x, g->q, g->r, out)) == 1)
        rc = components(g, a, b, out, comp);
    exor_release(&x);
out:
    Py_XDECREF(la);
    Py_XDECREF(lb);
    Py_XDECREF(drop);
    return rc;
}

/* Raise the ISF constructor's InconsistentISF. */
static void
raise_inconsistent(void)
{
    PyObject *mod = PyImport_ImportModule("repro.boolfn.isf"), *exc;
    if (mod == NULL)
        return;
    exc = PyObject_GetAttrString(mod, "InconsistentISF");
    Py_DECREF(mod);
    if (exc != NULL) {
        PyErr_SetString(exc, "on-set and off-set overlap");
        Py_DECREF(exc);
    }
}

/* exor.check_exor_bidecomp(isf, xa, xb) for a growth candidate: the
 * verdict memo (a hit rebuilds the two component ISFs), the set-lifted
 * Theorem 2 filter for an incompletely specified ISF, then Fig. 4.
 * 1 decomposable, 0 not, -1 on error. */
static int
exor_bidecomp(Group *g, PyObject *xa, PyObject *xb, VarSet *a, VarSet *b)
{
    PyObject *key, *hit;
    edge_t dc, comp[4];
    int rc;

    g->check_calls++;
    if (memo_probe(g, g->exor_memo, a, b, &key, &hit) < 0)
        return -1;
    if (hit != NULL) {
        rc = 0;
        if (hit != Py_False) {
            rc = read_components(hit, comp);
            if (rc == 0 && (rc = consistent(g, comp[0], comp[1])) == 1)
                rc = consistent(g, comp[2], comp[3]);
            if (rc == 0) {
                raise_inconsistent();
                rc = -1;
            }
        }
        Py_DECREF(key);
        Py_DECREF(hit);
        return rc;
    }
    rc = and_top(&g->k, g->q ^ 1, g->r ^ 1, &dc) < 0 ? -1 : 1;
    if (rc == 1 && dc != 0 && (rc = theorem2(g, a, b)) == 1)
        rc = theorem2(g, b, a);
    if (rc == 1)
        rc = propagate(g, xa, xb, a, b, comp);
    if (rc < 0) {
        Py_DECREF(key);
        return -1;
    }
    return memo_store(g->exor_memo, key,
                      rc ? Py_BuildValue("(KKKK)", (unsigned long long)comp[0],
                                         (unsigned long long)comp[1],
                                         (unsigned long long)comp[2],
                                         (unsigned long long)comp[3])
                         : Py_NewRef(Py_False), rc);
}

/* exor.exor_decomposable(isf, xa, xb): for an incompletely specified
 * ISF the pairwise Theorem 2 filter, in the sets' iteration order, then
 * check_exor_bidecomp, which normalises the sets. */
static int
exor_set_check(Group *g, PyObject *xa, PyObject *xb)
{
    VarSet a = {NULL, NULL, NULL, NULL, -1}, b = {NULL, NULL, NULL, NULL, -1};
    PyObject *la = NULL, *lb = NULL;
    Py_ssize_t i, j;
    edge_t dc;
    int rc = -1;

    /* isf.is_completely_specified(): Q | R == 1. */
    if (and_top(&g->k, g->q ^ 1, g->r ^ 1, &dc) < 0)
        return -1;
    if (dc != 0) {
        if ((la = PySequence_List(xa)) == NULL
            || (lb = PySequence_List(xb)) == NULL)
            goto done;
        for (i = 0; i < PyList_GET_SIZE(la); i++) {
            for (j = 0; j < PyList_GET_SIZE(lb); j++) {
                VarSet *x = singleton(g, PyList_GET_ITEM(la, i));
                VarSet *y = x ? singleton(g, PyList_GET_ITEM(lb, j)) : NULL;
                if (y == NULL || (rc = exor1_check(g, x, y)) <= 0)
                    goto done;
            }
        }
    }
    rc = -1;
    if ((a.key = ctx_varset(g, xa)) != NULL
        && (b.key = ctx_varset(g, xb)) != NULL)
        rc = exor_bidecomp(g, xa, xb, &a, &b);
done:
    Py_XDECREF(la);
    Py_XDECREF(lb);
    varset_clear(&a);
    varset_clear(&b);
    return rc;
}

/* The gate's check on the variable sets xa and xb (Python sets). */
static int
set_check(Group *g, PyObject *xa, PyObject *xb)
{
    VarSet a = {NULL, NULL, NULL, NULL, -1}, b = {NULL, NULL, NULL, NULL, -1};
    int rc = -1;

    if (g->propagate != NULL)
        return exor_set_check(g, xa, xb);
    if ((a.key = ctx_varset(g, xa)) != NULL
        && (b.key = ctx_varset(g, xb)) != NULL)
        rc = or_check(g, &a, &b);
    varset_clear(&a);
    varset_clear(&b);
    return rc;
}

/* find_initial_grouping's scan (Fig. 5): the first pair (x, y) whose
 * singletons pass the gate's pair check, x before y for OR and AND.
 * 1 with *ix / *iy set, 0 when none does, -1 on error. */
static int
pair_scan(Group *g, PyObject *support, const Py_ssize_t *var,
          Py_ssize_t *ix, Py_ssize_t *iy)
{
    Py_ssize_t n = PyTuple_GET_SIZE(support), i, j;
    VarSet *x, *y;
    int rc;

    for (i = 0; i < n; i++) {
        for (j = g->propagate != NULL ? 0 : i + 1; j < n; j++) {
            if (var[j] == var[i])
                continue;
            if ((x = singleton(g, PyTuple_GET_ITEM(support, i))) == NULL
                || (y = singleton(g, PyTuple_GET_ITEM(support, j))) == NULL)
                return -1;
            rc = g->propagate != NULL ? exor1_check(g, x, y)
                                      : or_check(g, x, y);
            if (rc != 0) {
                *ix = i;
                *iy = j;
                return rc;
            }
        }
    }
    return 0;
}

/* s | {z}, as the Python expression builds it. */
static PyObject *
with_var(PyObject *s, PyObject *z)
{
    PyObject *zs = PySet_New(NULL), *res = NULL;
    if (zs != NULL && PySet_Add(zs, z) == 0)
        res = PyNumber_Or(s, zs);
    Py_XDECREF(zs);
    return res;
}

/* group_variables' growth (Fig. 6) from the seeds xa and xb: each
 * remaining variable goes to the smaller set first, else the other. */
static int
grow_sets(Group *g, PyObject *support, PyObject *xa, PyObject *xb)
{
    Py_ssize_t n = PyTuple_GET_SIZE(support), i;
    PyObject *z, *first, *second, *grown;
    int rc;

    for (i = 0; i < n; i++) {
        z = PyTuple_GET_ITEM(support, i);
        if ((rc = PySet_Contains(xa, z)) == 0)
            rc = PySet_Contains(xb, z);
        if (rc < 0)
            return -1;
        if (rc)
            continue;
        if (PySet_GET_SIZE(xa) <= PySet_GET_SIZE(xb)) {
            first = xa;
            second = xb;
        }
        else {
            first = xb;
            second = xa;
        }
        if ((grown = with_var(first, z)) == NULL)
            return -1;
        rc = set_check(g, grown, second);
        Py_DECREF(grown);
        if (rc < 0)
            return -1;
        if (rc) {
            if (PySet_Add(first, z) < 0)
                return -1;
            continue;
        }
        if ((grown = with_var(second, z)) == NULL)
            return -1;
        rc = set_check(g, first, grown);
        Py_DECREF(grown);
        if (rc < 0 || (rc && PySet_Add(second, z) < 0))
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Minato-Morreale ISOP                                                */
/* ------------------------------------------------------------------ */

/* A cube list of the walk.  LIST_NONE is the empty list, LIST_ONE one
 * literal-free cube, and an index >= 0 names a Merge: the cubes of c0
 * with var = 0, then those of c1 with var = 1, then those of cd.  A
 * memo hit shares a list as the Python walk shares its memoised cube
 * lists; the Cube objects are only built for the final result. */
#define LIST_NONE (-2)
#define LIST_ONE (-1)

typedef struct { long long var; Py_ssize_t c0, c1, cd, ncubes; } Merge;
typedef struct { edge_t cover; Py_ssize_t cubes; } Cover;

/* Frames, as in repro.bdd.isop: 0 expand the interval (e[0], e[1]);
 * 1 cover the variable-free remainder of the split at lvl with
 * cofactors e[] = (l0, l1, u0, u1); 2 merge the split's covers
 * e[0] = f0 (cubes c0) and e[1] = f1 (cubes c1) with the remainder's. */
typedef struct {
    int tag;
    long long lvl, var;
    edge_t key, e[4];
    Py_ssize_t c0, c1;
} IsopFrame;

typedef STACK(IsopFrame, 32) IsopFrames;
typedef STACK(Cover, 32) Covers;
typedef STACK(Merge, 32) Merges;

typedef struct {
    Kernel k;
    PyObject *ct_ite;               /* new ref: the manager's ITE dict */
    PyObject *level_to_var;         /* new ref */
    Merges merges;
    Covers memo;                    /* the per-call memo's covers */
    Table index;                    /* (lower << 32) | upper -> memo slot */
} Isop;

/* BDD.ite(f, g, h) through the Python method (the shapes below that the
 * merge never produces, and the EXOR route), with the manager in the
 * state the Python loops would leave it in. */
static int
ite_call(Isop *s, edge_t f, edge_t g, edge_t h, edge_t *out)
{
    Kernel *k = &s->k;
    PyObject *r;
    int rc;
    if (sync_out(k) < 0)
        return -1;
    r = PyObject_CallMethod(k->mgr, "ite", "KKK", (unsigned long long)f,
                            (unsigned long long)g, (unsigned long long)h);
    if (r == NULL)
        return -1;
    rc = as_edge(r, out);
    Py_DECREF(r);
    return rc < 0 ? -1 : sync_in(k);
}

/* The ITE table's key ((a << 32 | b) << 32) | c as a Python int. */
static PyObject *
ite_key(edge_t a, edge_t b, edge_t c)
{
    PyObject *hi = PyLong_FromUnsignedLongLong((a << 32) | b), *shift,
        *low, *key = NULL;
    if (hi == NULL)
        return NULL;
    shift = PyLong_FromLong(32);
    low = PyLong_FromUnsignedLongLong(c);
    if (shift != NULL && low != NULL) {
        PyObject *up = PyNumber_Lshift(hi, shift);
        if (up != NULL) {
            key = PyNumber_Or(up, low);
            Py_DECREF(up);
        }
    }
    Py_DECREF(hi);
    Py_XDECREF(shift);
    Py_XDECREF(low);
    return key;
}

/* BDD.ite(f, g, h) where f is a one-node function whose level lies
 * above g's and h's: the ISOP merge ite(var, f1, f0).  Fast paths,
 * folds, the AND routes, the ITE table and its cap as in the Python
 * method; any other shape goes to the method itself. */
static int
ite_top(Isop *s, edge_t f, edge_t g, edge_t h, edge_t *out)
{
    Kernel *k = &s->k;
    edge_t a = f, b = g, c = h, la, lb, lc, a0, a1, lo, hi, res = 0, t;
    long long lookups = 0, hits = 0, ulookups = 0, uhits = 0;
    PyObject *key, *hit, *v;
    int flip;

    if (a < 2) {
        *out = a ? b : c;
        return 0;
    }
    if (b == c) {
        *out = b;
        return 0;
    }
    /* Fold selector-equal branches to constants. */
    if (b == a)
        b = 1;
    else if (b == (a ^ 1))
        b = 0;
    if (c == a)
        c = 0;
    else if (c == (a ^ 1))
        c = 1;
    if (b == 1 && c == 0)
        res = a;
    else if (b == 0 && c == 1)
        res = a ^ 1;
    else if (c == 0) {
        if (and_top(k, a, b, &res) < 0)
            return -1;
    }
    else if (c == 1) {
        if (and_top(k, a, b ^ 1, &res) < 0)
            return -1;
        res ^= 1;
    }
    else if (b == 0) {
        if (and_top(k, a ^ 1, c, &res) < 0)
            return -1;
    }
    else if (b == 1) {
        if (and_top(k, a ^ 1, c ^ 1, &res) < 0)
            return -1;
        res ^= 1;
    }
    else {
        if (a & 1) {
            a ^= 1;
            t = b;
            b = c;
            c = t;
        }
        flip = (int)(b & 1);
        if (flip) {
            b ^= 1;
            c ^= 1;
        }
        if (list_item(k->level, a >> 1, &la) < 0
            || list_item(k->level, b >> 1, &lb) < 0
            || list_item(k->level, c >> 1, &lc) < 0
            || branches(k, a, la, la, &a0, &a1) < 0)
            return -1;
        if (b == (c ^ 1) || la >= lb || la >= lc || a0 > 1 || a1 > 1)
            return ite_call(s, f, g, h, out);
        key = ite_key(a, b, c);
        if (key == NULL)
            return -1;
        lookups = 1;
        hit = PyDict_GetItemWithError(s->ct_ite, key);
        if (hit != NULL) {
            hits = 1;
            if (as_edge(hit, &res) < 0) {
                Py_DECREF(key);
                return -1;
            }
        }
        else if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        else {
            /* Both children are terminal selections of g and h. */
            lo = a0 ? b : c;
            hi = a1 ? b : c;
            if (make_node(k, (long long)la, lo, hi, &ulookups, &uhits,
                          &res) < 0
                || (v = PyLong_FromUnsignedLongLong(res)) == NULL) {
                Py_DECREF(key);
                return -1;
            }
            if (PyDict_SetItem(s->ct_ite, key, v) < 0) {
                Py_DECREF(v);
                Py_DECREF(key);
                return -1;
            }
            Py_DECREF(v);
        }
        Py_DECREF(key);
        res ^= (edge_t)flip;
    }
    k->val[C_CT_LOOKUPS] += lookups;
    k->val[C_CT_HITS] += hits;
    k->val[C_UNIQ_LOOKUPS] += ulookups;
    k->val[C_UNIQ_HITS] += uhits;
    if (PyDict_GET_SIZE(s->ct_ite) > k->ct_max)
        PyDict_Clear(s->ct_ite);
    *out = res;
    return 0;
}

/* The number of cubes in list *id*. */
static inline Py_ssize_t
list_size(const Isop *s, Py_ssize_t id)
{
    return id >= 0 ? s->merges.items[id].ncubes : id == LIST_ONE;
}

#define AND(f_, g_, out_) \
    do { if (and_top(&s->k, (f_), (g_), &(out_)) < 0) goto error; } while (0)
#define OR(f_, g_, out_) \
    do { AND((f_) ^ 1, (g_) ^ 1, out_); (out_) ^= 1; } while (0)
#define DIFF(f_, g_, out_) AND((f_), (g_) ^ 1, out_)
#define PUSH(s_, v_) \
    do { if (STACK_PUSH((s_), (v_)) < 0) goto error; } while (0)

/* repro.bdd.isop's walk, step for step, on an interval lower <= upper. */
static int
isop_walk(Isop *s, edge_t lower, edge_t upper, Cover *out)
{
    Kernel *k = &s->k;
    IsopFrames tasks;
    Covers results;
    IsopFrame fr, next;
    Cover r0, r1, rd, res;
    Merge m;
    edge_t lo, up, key, la, lu, l0, l1, u0, u1, t1, t2, lit, merged;
    edge_t var, slot;

    STACK_INIT(tasks);
    STACK_INIT(results);
    memset(&next, 0, sizeof(next));
    next.e[0] = lower;
    next.e[1] = upper;
    PUSH(tasks, next);
    while (tasks.len) {
        fr = tasks.items[--tasks.len];
        if (fr.tag == 0) {
            lo = fr.e[0];
            up = fr.e[1];
            if (lo == 0 || up == 1) {
                res.cover = lo == 0 ? 0 : 1;
                res.cubes = lo == 0 ? LIST_NONE : LIST_ONE;
                PUSH(results, res);
                continue;
            }
            key = (lo << 32) | up;
            if (probe(&s->index, key, &slot)) {
                PUSH(results, s->memo.items[(Py_ssize_t)slot]);
                continue;
            }
            if (list_item(k->level, lo >> 1, &la) < 0
                || list_item(k->level, up >> 1, &lu) < 0)
                goto error;
            next.tag = 1;
            next.lvl = (long long)(la < lu ? la : lu);
            if (list_item(s->level_to_var, (edge_t)next.lvl, &var) < 0
                || branches(k, lo, la, (edge_t)next.lvl, &l0, &l1) < 0
                || branches(k, up, lu, (edge_t)next.lvl, &u0, &u1) < 0)
                goto error;
            next.var = (long long)var;
            next.key = key;
            next.e[0] = l0;
            next.e[1] = l1;
            next.e[2] = u0;
            next.e[3] = u1;
            /* On-set minterms coverable only by cubes with the negative
             * (resp. positive) literal of the split variable. */
            DIFF(l0, u1, t1);
            DIFF(l1, u0, t2);
            PUSH(tasks, next);
            next.tag = 0;
            next.e[0] = t2;
            next.e[1] = u1;
            PUSH(tasks, next);
            next.e[0] = t1;
            next.e[1] = u0;
            PUSH(tasks, next);
        }
        else if (fr.tag == 1) {
            r1 = results.items[--results.len];
            r0 = results.items[--results.len];
            /* What remains must be covered by variable-free cubes. */
            DIFF(fr.e[0], r0.cover, t1);
            DIFF(fr.e[1], r1.cover, t2);
            OR(t1, t2, lo);
            AND(fr.e[2], fr.e[3], up);
            next = fr;
            next.tag = 2;
            next.e[0] = r0.cover;
            next.e[1] = r1.cover;
            next.c0 = r0.cubes;
            next.c1 = r1.cubes;
            PUSH(tasks, next);
            next.tag = 0;
            next.e[0] = lo;
            next.e[1] = up;
            PUSH(tasks, next);
        }
        else {
            rd = results.items[--results.len];
            /* BDD.var: the literal's node, then the ITE merge. */
            if (make_node(k, fr.lvl, 0, 1, &k->val[C_UNIQ_LOOKUPS],
                          &k->val[C_UNIQ_HITS], &lit) < 0
                || ite_top(s, lit, fr.e[1], fr.e[0], &merged) < 0)
                goto error;
            OR(rd.cover, merged, res.cover);
            m.var = fr.var;
            m.c0 = fr.c0;
            m.c1 = fr.c1;
            m.cd = rd.cubes;
            m.ncubes = list_size(s, m.c0) + list_size(s, m.c1)
                       + list_size(s, m.cd);
            res.cubes = s->merges.len;
            PUSH(s->merges, m);
            if (store(&s->index, fr.key, (edge_t)s->memo.len) < 0)
                goto error;
            PUSH(s->memo, res);
            PUSH(results, res);
        }
    }
    *out = results.items[0];
    STACK_FREE(tasks);
    STACK_FREE(results);
    return 0;
error:
    STACK_FREE(tasks);
    STACK_FREE(results);
    return -1;
}

#undef AND
#undef OR
#undef DIFF
#undef PUSH

/* One literal of the cube under construction. */
typedef struct { long long var; int value; } Literal;

/* Store the Cube objects of list *id* in *out* from index *next* on
 * (the result list is allocated at its final size); path[0..depth) holds
 * the literals of the merges above it, outermost first.  with_literal
 * adds the innermost literal first, so a cube's dict takes the path in
 * reverse.  Every step descends a level, so depth stays below the
 * number of levels. */
static int
emit_cubes(Isop *s, Py_ssize_t id, Literal *path, Py_ssize_t depth,
           PyTypeObject *cube_type, PyObject *empty, PyObject *out,
           Py_ssize_t *next)
{
    while (id != LIST_NONE) {
        if (id == LIST_ONE) {
            PyObject *literals = PyDict_New(), *cube = NULL;
            Py_ssize_t i;
            int rc = -1;
            if (literals == NULL)
                return -1;
            for (i = depth - 1; i >= 0; i--) {
                PyObject *var = PyLong_FromLongLong(path[i].var);
                PyObject *value = PyLong_FromLong(path[i].value);
                int bad = var == NULL || value == NULL
                          || PyDict_SetItem(literals, var, value) < 0;
                Py_XDECREF(var);
                Py_XDECREF(value);
                if (bad)
                    goto cube_done;
            }
            cube = cube_type->tp_new(cube_type, empty, NULL);
            if (cube != NULL && PyObject_SetAttr(cube, s_literals,
                                                 literals) == 0) {
                PyList_SET_ITEM(out, (*next)++, cube);      /* steals */
                cube = NULL;
                rc = 0;
            }
cube_done:
            Py_XDECREF(cube);
            Py_DECREF(literals);
            return rc;
        }
        {
            Merge m = s->merges.items[id];
            path[depth].var = m.var;
            path[depth].value = 0;
            if (emit_cubes(s, m.c0, path, depth + 1, cube_type, empty,
                           out, next) < 0)
                return -1;
            path[depth].value = 1;
            if (emit_cubes(s, m.c1, path, depth + 1, cube_type, empty,
                           out, next) < 0)
                return -1;
            id = m.cd;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Module functions                                                    */
/* ------------------------------------------------------------------ */

static int
arg_edge(PyObject *v, edge_t *out)
{
    if (!PyLong_Check(v)) {
        PyErr_SetString(PyExc_TypeError, "BDD edges are ints");
        return -1;
    }
    return as_edge(v, out);
}

PyDoc_STRVAR(and_doc,
"and_(mgr, f, g, ct_max)\n\n"
"Miss path of BDD.and_ for a normalised pair f < g whose computed-table\n"
"probe missed; clears mgr._ct_and when it ends above ct_max entries.");

static PyObject *
py_and(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Kernel k;
    edge_t f, g, res;
    Py_ssize_t ct_max;
    PyObject *result = NULL;

    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "and_ takes 4 arguments");
        return NULL;
    }
    if (arg_edge(args[1], &f) < 0 || arg_edge(args[2], &g) < 0)
        return NULL;
    ct_max = PyLong_AsSsize_t(args[3]);
    if (ct_max == -1 && PyErr_Occurred())
        return NULL;
    if (kernel_open(&k, args[0], ct_max, N_WALK) < 0)
        return NULL;
    if (and_walk(&k, f, g, &res) == 0)
        result = PyLong_FromUnsignedLongLong(res);
    return kernel_close(&k, result);
}

PyDoc_STRVAR(exists_doc,
"exists(mgr, f, levels, sids, cache, ct_max)\n\n"
"quantify._exists_iter's walk: *levels* is the sorted level tuple,\n"
"*sids* the suffix ids of its tails and *cache* the exists memo Table.");

static PyObject *
py_exists(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Kernel k;
    edge_t f, res;
    Py_ssize_t n, ct_max;
    long long *levels = NULL;
    PyObject *result = NULL;

    (void)self;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "exists takes 6 arguments");
        return NULL;
    }
    if (Py_TYPE(args[4]) != &TableType) {
        PyErr_SetString(PyExc_TypeError, "exists memo must be a Table");
        return NULL;
    }
    if (arg_edge(args[1], &f) < 0)
        return NULL;
    ct_max = PyLong_AsSsize_t(args[5]);
    if (ct_max == -1 && PyErr_Occurred())
        return NULL;
    if (read_levels(args[2], args[3], &levels, &n) < 0
        || kernel_open(&k, args[0], ct_max, N_WALK) < 0)
        goto out;
    if (exists_walk(&k, f, levels, levels + n, n, (Table *)args[4],
                    &res) == 0)
        result = PyLong_FromUnsignedLongLong(res);
    result = kernel_close(&k, result);
out:
    PyMem_Free(levels);
    return result;
}

PyDoc_STRVAR(exor_doc,
"propagate_exor(mgr, q, r, xa, xb, drop, intern, cache, ct_max)\n\n"
"The loop of repro.decomp.exor.propagate_exor for on-set q != FALSE and\n"
"off-set r: returns (r, acc_qa, acc_ra, acc_qb, acc_rb), or None when an\n"
"overlap refutes the decomposition.  *xa* / *xb* are the variable lists\n"
"passed to exists, *drop* the levels of xb, *intern(vars)* returns a\n"
"set's (levels, suffix ids) and *cache* is the exists memo Table.");

static PyObject *
py_propagate_exor(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Kernel k;
    Exor x;
    edge_t q, r, out[5];
    Py_ssize_t ct_max;
    PyObject *result = NULL;
    int rc;

    (void)self;
    if (nargs != 9) {
        PyErr_SetString(PyExc_TypeError, "propagate_exor takes 9 arguments");
        return NULL;
    }
    if (Py_TYPE(args[7]) != &TableType) {
        PyErr_SetString(PyExc_TypeError, "exists memo must be a Table");
        return NULL;
    }
    if (arg_edge(args[1], &q) < 0 || arg_edge(args[2], &r) < 0)
        return NULL;
    ct_max = PyLong_AsSsize_t(args[8]);
    if (ct_max == -1 && PyErr_Occurred())
        return NULL;
    if (kernel_open(&k, args[0], ct_max, N_COUNTERS) < 0)
        return NULL;
    if (exor_init(&x, &k, args[6], (Table *)args[7], args[3], args[4],
                  args[5]) == 0) {
        rc = exor_loop(&x, q, r, out);
        if (rc == 1)
            result = Py_BuildValue("(KKKKK)", (unsigned long long)out[0],
                                   (unsigned long long)out[1],
                                   (unsigned long long)out[2],
                                   (unsigned long long)out[3],
                                   (unsigned long long)out[4]);
        else if (rc == 0)
            result = Py_NewRef(Py_None);
    }
    exor_release(&x);
    return kernel_close(&k, result);
}

PyDoc_STRVAR(isop_doc,
"isop(mgr, lower, upper, cube_type, ct_max)\n\n"
"repro.bdd.isop.isop's walk for an interval lower <= upper: returns\n"
"(cover, cubes), the cubes a list of new *cube_type* objects whose\n"
"``literals`` dicts are filled in with_literal's order.");

static PyObject *
py_isop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Isop s;
    edge_t lower, upper;
    Py_ssize_t ct_max;
    Cover root;
    Literal *path = NULL;
    Py_ssize_t next = 0;
    PyObject *cubes = NULL, *empty = NULL, *result = NULL;

    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "isop takes 5 arguments");
        return NULL;
    }
    if (!PyType_Check(args[3])) {
        PyErr_SetString(PyExc_TypeError, "cube_type must be a type");
        return NULL;
    }
    if (arg_edge(args[1], &lower) < 0 || arg_edge(args[2], &upper) < 0)
        return NULL;
    ct_max = PyLong_AsSsize_t(args[4]);
    if (ct_max == -1 && PyErr_Occurred())
        return NULL;
    memset(&s, 0, sizeof(s));
    STACK_INIT(s.merges);
    STACK_INIT(s.memo);
    if (kernel_open(&s.k, args[0], ct_max, N_WALK) < 0)
        return NULL;
    if ((s.ct_ite = get_typed(args[0], s_ct_ite, &PyDict_Type)) == NULL
        || (s.level_to_var = get_typed(args[0], s_level_to_var,
                                       &PyList_Type)) == NULL
        || isop_walk(&s, lower, upper, &root) < 0)
        goto out;
    path = PyMem_Malloc(sizeof(Literal)
                        * (size_t)(PyList_GET_SIZE(s.k.unique) + 1));
    cubes = PyList_New(list_size(&s, root.cubes));
    empty = PyTuple_New(0);
    if (path == NULL || cubes == NULL || empty == NULL) {
        if (path == NULL)
            PyErr_NoMemory();
        goto out;
    }
    if (emit_cubes(&s, root.cubes, path, 0, (PyTypeObject *)args[3], empty,
                   cubes, &next) == 0)
        result = Py_BuildValue("(KO)", (unsigned long long)root.cover,
                               cubes);
out:
    result = kernel_close(&s.k, result);
    Py_XDECREF(s.ct_ite);
    Py_XDECREF(s.level_to_var);
    Py_XDECREF(cubes);
    Py_XDECREF(empty);
    PyMem_Free(path);
    STACK_FREE(s.merges);
    STACK_FREE(s.memo);
    table_clear(&s.index);
    return result;
}

/* Add the context counter deltas to *counters*, keeping a pending
 * exception: the Python loops count a probe before it can raise. */
static int
add_counts(Group *g, PyObject *counters)
{
    PyObject *names[3] = {s_check_calls, s_cache_hits, s_exists_calls};
    long long delta[3] = {g->check_calls, g->cache_hits, g->exists_calls};
    PyObject *type, *value, *tb, *v;
    long long old;
    int i, rc = 0;

    PyErr_Fetch(&type, &value, &tb);
    for (i = 0; i < 3 && rc == 0; i++) {
        if (delta[i] == 0)
            continue;
        rc = get_ll(counters, names[i], &old);
        if (rc == 0 && (v = PyLong_FromLongLong(old + delta[i])) != NULL) {
            rc = PyObject_SetAttr(counters, names[i], v);
            Py_DECREF(v);
        }
        else
            rc = -1;
    }
    if (type != NULL) {
        if (rc < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, tb);
    }
    return rc;
}

PyDoc_STRVAR(group_doc,
"group_variables(mgr, q, r, support, intern, cache, memos, propagate,\n"
"                counters, ct_max)\n\n"
"repro.decomp.grouping.group_variables for the ISF (q, r), complemented\n"
"for AND: the Fig. 5 pair scan and the Fig. 6 growth.  *support* is a\n"
"tuple of variable indices, *intern* and *cache* as for propagate_exor.\n"
"*memos* holds the CheckContext dicts it reads and fills: the variable\n"
"sets, the exists memo, the Theorem 1 (OR, AND) or Theorem 2 (EXOR)\n"
"verdicts and, for EXOR, the Fig. 4 verdicts (else None).  For EXOR,\n"
"propagate(xa, xb) runs propagate_exor where the kernel loop does not\n"
"apply and returns None or the four component edges; it is None for OR\n"
"and AND.  Returns (xa, xb) frozensets or None, and adds its\n"
"check_calls, cache_hits and exists_calls to *counters*, also when it\n"
"raises.");

static PyObject *
py_group_variables(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Group g;
    PyObject *support, *memos, *xa = NULL, *xb = NULL, *result = NULL;
    Py_ssize_t ct_max, n, i, ix, iy, *var = NULL;
    int rc;

    (void)self;
    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError, "group_variables takes 10 arguments");
        return NULL;
    }
    support = args[3];
    memos = args[6];
    if (!PyTuple_Check(support)) {
        PyErr_SetString(PyExc_TypeError, "support must be a tuple");
        return NULL;
    }
    if (Py_TYPE(args[5]) != &TableType) {
        PyErr_SetString(PyExc_TypeError, "exists memo must be a Table");
        return NULL;
    }
    if (!PyTuple_Check(memos) || PyTuple_GET_SIZE(memos) != 4) {
        PyErr_SetString(PyExc_TypeError, "memos must be a 4-tuple");
        return NULL;
    }
    for (i = 0; i < 4; i++) {
        if (!PyDict_Check(PyTuple_GET_ITEM(memos, i))
            && (i < 3 || args[7] != Py_None)) {
            PyErr_SetString(PyExc_TypeError, "context memos must be dicts");
            return NULL;
        }
    }
    memset(&g, 0, sizeof(g));
    if (arg_edge(args[1], &g.q) < 0 || arg_edge(args[2], &g.r) < 0)
        return NULL;
    ct_max = PyLong_AsSsize_t(args[9]);
    if (ct_max == -1 && PyErr_Occurred())
        return NULL;
    n = PyTuple_GET_SIZE(support);
    var = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)(n + 1));
    if (var == NULL)
        return PyErr_NoMemory();
    for (i = 0; i < n; i++) {
        var[i] = PyLong_AsSsize_t(PyTuple_GET_ITEM(support, i));
        if (var[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(var);
            return NULL;
        }
        if (var[i] < 0) {
            PyMem_Free(var);
            PyErr_SetString(PyExc_IndexError, "variable index out of range");
            return NULL;
        }
        if (var[i] >= g.nsingle)
            g.nsingle = var[i] + 1;
    }
    g.intern = args[4];
    g.cache = (Table *)args[5];
    g.varsets = PyTuple_GET_ITEM(memos, 0);
    g.exists_memo = PyTuple_GET_ITEM(memos, 1);
    g.verdicts = PyTuple_GET_ITEM(memos, 2);
    g.exor_memo = PyTuple_GET_ITEM(memos, 3);
    g.propagate = args[7] == Py_None ? NULL : args[7];
    g.single = PyMem_Calloc((size_t)g.nsingle + 1, sizeof(VarSet));
    if (g.single == NULL) {
        PyMem_Free(var);
        return PyErr_NoMemory();
    }
    for (i = 0; i < g.nsingle; i++)
        g.single[i].n = -1;
    if ((g.qr[0] = PyLong_FromUnsignedLongLong(g.q)) == NULL
        || (g.qr[1] = PyLong_FromUnsignedLongLong(g.r)) == NULL
        || (g.var_to_level = get_typed(args[0], s_var_to_level,
                                       &PyList_Type)) == NULL
        || kernel_open(&g.k, args[0], ct_max, N_COUNTERS) < 0)
        goto out;
    rc = pair_scan(&g, support, var, &ix, &iy);
    if (rc == 0)
        result = Py_NewRef(Py_None);
    else if (rc > 0
             && (xa = PySet_New(g.single[var[ix]].key)) != NULL
             && (xb = PySet_New(g.single[var[iy]].key)) != NULL
             && grow_sets(&g, support, xa, xb) == 0) {
        /* frozenset(xa), frozenset(xb) */
        Py_SETREF(xa, PyFrozenSet_New(xa));
        Py_SETREF(xb, xa != NULL ? PyFrozenSet_New(xb) : NULL);
        if (xb != NULL)
            result = PyTuple_Pack(2, xa, xb);
    }
    result = kernel_close(&g.k, result);
out:
    if (add_counts(&g, args[8]) < 0)
        Py_CLEAR(result);
    Py_XDECREF(g.var_to_level);
    Py_XDECREF(xa);
    Py_XDECREF(xb);
    Py_XDECREF(g.qr[0]);
    Py_XDECREF(g.qr[1]);
    for (i = 0; i < g.nsingle; i++)
        varset_clear(&g.single[i]);
    PyMem_Free(g.single);
    PyMem_Free(var);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"and_", (PyCFunction)(void (*)(void))py_and, METH_FASTCALL, and_doc},
    {"exists", (PyCFunction)(void (*)(void))py_exists, METH_FASTCALL,
     exists_doc},
    {"propagate_exor", (PyCFunction)(void (*)(void))py_propagate_exor,
     METH_FASTCALL, exor_doc},
    {"isop", (PyCFunction)(void (*)(void))py_isop, METH_FASTCALL, isop_doc},
    {"group_variables", (PyCFunction)(void (*)(void))py_group_variables,
     METH_FASTCALL, group_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "C inner loops and tables of the BDD kernel (see repro.bdd.native).",
    -1,
    kernel_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_level, "_level"}, {&s_lo, "_lo"}, {&s_hi, "_hi"},
        {&s_unique, "_unique"}, {&s_free, "_free"}, {&s_ct_and, "_ct_and"},
        {&s_ct_lookups, "_ct_lookups"}, {&s_ct_hits, "_ct_hits"},
        {&s_uniq_lookups, "_uniq_lookups"}, {&s_uniq_hits, "_uniq_hits"},
        {&s_peak_live, "_peak_live"}, {&s_q_steps, "_q_steps"},
        {&s_q_calls, "_q_exists_calls"},
        {&s_growth_hook, "_growth_hook"},
        {&s_growth_countdown, "_growth_countdown"},
        {&s_growth_interval, "_growth_interval"},
        {&s_ct_ite, "_ct_ite"}, {&s_level_to_var, "_level_to_var"},
        {&s_literals, "literals"},
        {&s_check_calls, "check_calls"}, {&s_cache_hits, "cache_hits"},
        {&s_exists_calls, "exists_calls"},
        {&s_var_to_level, "_var_to_level"},
    };
    PyObject *module;
    size_t i;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if (*names[i].slot == NULL) {
            *names[i].slot = PyUnicode_InternFromString(names[i].name);
            if (*names[i].slot == NULL)
                return NULL;
        }
    }
    if (PyType_Ready(&TableType) < 0)
        return NULL;
    module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&TableType);
    if (PyModule_AddObject(module, "Table", (PyObject *)&TableType) < 0) {
        Py_DECREF(&TableType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
