"""Differential harness: complement-edge core vs a reference ROBDD.

A thousand randomized expression DAGs are built three ways in parallel:

* on the production complement-edge manager (``repro.bdd.BDD``),
* on :class:`RefBDD`, a deliberately naive ROBDD with *no* complement
  edges and two terminals — the semantics of the pre-complement core,
* as packed integer truth tables (the ground truth).

The operation mix is AND / OR / XOR / NOT plus ``exists`` / ``forall``
over random variable sets.  For every case the harness cross-checks
truth tables, supports, ISOP covers and the complement-edge node counts
against the reference (complement sharing may only ever *shrink* a DAG,
never grow it).  Each case, its ISOP included, is also replayed on a
manager held on the Python loops (:func:`repro.bdd.native._python_loops`):
the C inner loops must leave the same edges, covers, cube lists, arena,
unique tables, computed tables and ``cache_stats()``, node for node.
The RNG is seeded per case, so any failure reproduces by seed.
"""

import random

import pytest

from repro.bdd import BDD, FALSE, exists, forall, isop, native
from repro.bdd.isop import cover_to_bdd

from conftest import kernel_state


class RefBDD:
    """Minimal reference ROBDD without complement edges.

    Nodes are ``(level, lo, hi)`` triples interned in a unique table;
    the terminals are the sentinels ``"F"`` and ``"T"``.  Operations
    are memoised recursive applies — slow and simple on purpose: this
    is the oracle, it must not share design (or bugs) with the
    production core.
    """

    F = "F"
    T = "T"

    def __init__(self, num_vars):
        self.num_vars = num_vars
        self._unique = {}

    def mk(self, level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = key
            self._unique[key] = node
        return node

    def var(self, level):
        return self.mk(level, self.F, self.T)

    def level(self, f):
        return self.num_vars if f in (self.F, self.T) else f[0]

    def not_(self, f):
        if f == self.F:
            return self.T
        if f == self.T:
            return self.F
        return self.mk(f[0], self.not_(f[1]), self.not_(f[2]))

    def apply(self, op, f, g):
        if f in (self.F, self.T) and g in (self.F, self.T):
            return self.T if op(f == self.T, g == self.T) else self.F
        level = min(self.level(f), self.level(g))
        f0, f1 = (f[1], f[2]) if self.level(f) == level else (f, f)
        g0, g1 = (g[1], g[2]) if self.level(g) == level else (g, g)
        return self.mk(level, self.apply(op, f0, g0),
                       self.apply(op, f1, g1))

    def restrict(self, f, level, value):
        if f in (self.F, self.T) or f[0] > level:
            return f
        if f[0] == level:
            return f[2] if value else f[1]
        return self.mk(f[0], self.restrict(f[1], level, value),
                       self.restrict(f[2], level, value))

    def quantify(self, op, f, levels):
        for level in levels:
            f = self.apply(op, self.restrict(f, level, 0),
                           self.restrict(f, level, 1))
        return f

    def node_count(self, f):
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node not in (self.F, self.T):
                stack.append(node[1])
                stack.append(node[2])
        return len(seen)


def _quantify_table(table, variables, num_vars, combine):
    """Truth-table quantification: *combine* the two cofactors per var."""
    full = (1 << (1 << num_vars)) - 1
    for var in variables:
        shift = 1 << var
        mask = 0
        for row in range(1 << num_vars):
            if (row >> var) & 1:
                mask |= 1 << row
        half = combine((table & mask) >> shift, table & ~mask & full)
        table = half | (half << shift)
    return table


def _random_case(seed, num_vars, num_ops, python_loops=False):
    """One differential case: returns (mgr, edges, ref_node, table).

    *edges* lists every edge the case built, in order; the last one is
    the case's function, which *ref_node* and *table* describe.  The
    expression DAG reuses earlier subterms, so shared substructure
    (where complement edges pay off) occurs naturally.  With
    *python_loops* the manager runs the Python loops, not the C ones.
    """
    rng = random.Random(seed)
    mgr = BDD(["x%d" % i for i in range(num_vars)])
    if python_loops:
        native._python_loops(mgr)
    ref = RefBDD(num_vars)
    full = (1 << (1 << num_vars)) - 1
    terms = []
    for i in range(num_vars):
        table = 0
        for row in range(1 << num_vars):
            if (row >> i) & 1:
                table |= 1 << row
        terms.append((mgr.var(i), ref.var(i), table))
    ops = (("and_", lambda a, b: a and b, int.__and__),
           ("or_", lambda a, b: a or b, int.__or__),
           ("xor", lambda a, b: a != b, int.__xor__))
    quantifiers = ((exists, lambda a, b: a or b, int.__or__),
                   (forall, lambda a, b: a and b, int.__and__))
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.25:
            e, r, t = rng.choice(terms)
            terms.append((mgr.not_(e), ref.not_(r), t ^ full))
            continue
        if roll < 0.45:
            quantify, ref_op, int_op = rng.choice(quantifiers)
            e, r, t = rng.choice(terms)
            variables = sorted(rng.sample(range(num_vars),
                                          rng.randint(1, 3)))
            terms.append((quantify(mgr, variables, e),
                          ref.quantify(ref_op, r, variables),
                          _quantify_table(t, variables, num_vars, int_op)))
            continue
        name, ref_op, int_op = rng.choice(ops)
        ea, ra, ta = rng.choice(terms)
        eb, rb, tb = rng.choice(terms)
        edge = getattr(mgr, name)(ea, eb)
        terms.append((edge, ref.apply(ref_op, ra, rb),
                      int_op(ta, tb)))
    _edge, ref_node, table = terms[-1]
    return mgr, [e for e, _r, _t in terms], ref_node, table


def _support_of_table(table, num_vars):
    support = set()
    for i in range(num_vars):
        for row in range(1 << num_vars):
            if ((table >> row) & 1) != ((table >> (row ^ (1 << i))) & 1):
                support.add(i)
                break
    return support


NUM_VARS = 5
CHUNKS = 20
CASES_PER_CHUNK = 50  # 20 x 50 = 1000 randomized cases


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_differential_against_reference(chunk):
    for case in range(CASES_PER_CHUNK):
        seed = chunk * CASES_PER_CHUNK + case
        rng = random.Random(seed)
        num_ops = rng.randint(4, 16)
        mgr, edges, ref_node, table = _random_case(seed, NUM_VARS, num_ops)
        edge = edges[-1]

        # 0. The C and the Python loops build the same manager, node for
        #    node (trivially so where the C loops are unavailable).
        py_mgr, py_edges, _, _ = _random_case(seed, NUM_VARS, num_ops,
                                              python_loops=True)
        assert edges == py_edges, "seed %d: edges differ" % seed
        assert kernel_state(mgr) == kernel_state(py_mgr), \
            "seed %d: C and Python loops left different managers" % seed

        # 1. Truth table: the new core agrees with the integer oracle.
        got = 0
        for row in range(1 << NUM_VARS):
            assignment = {i: (row >> i) & 1 for i in range(NUM_VARS)}
            if mgr.eval(edge, assignment):
                got |= 1 << row
        assert got == table, "seed %d: truth table mismatch" % seed

        # 2. Support: structural support equals semantic support.
        expected_support = _support_of_table(table, NUM_VARS)
        assert set(mgr.support(edge)) == expected_support, \
            "seed %d: support mismatch" % seed

        # 3. Node count: complement sharing never grows the DAG.
        ref_count = RefBDD(NUM_VARS).node_count(ref_node)
        assert mgr.node_count(edge) <= ref_count, \
            "seed %d: complement core grew the DAG" % seed

        # 4. ISOP: the cover reproduces the function exactly and every
        #    cube is an implicant; the Python walk gives the same cover,
        #    cube for cube, and leaves the same manager.
        cover, cubes = isop(mgr, edge, edge)
        py_cover, py_cubes = isop(py_mgr, edge, edge)
        assert (cover, _literals(cubes)) == (py_cover, _literals(py_cubes)), \
            "seed %d: C and Python ISOP differ" % seed
        assert kernel_state(mgr) == kernel_state(py_mgr), \
            "seed %d: C and Python ISOP left different managers" % seed
        assert cover == edge, "seed %d: isop cover != function" % seed
        assert cover_to_bdd(mgr, cubes) == edge, \
            "seed %d: cube list disagrees with cover" % seed
        for cube in cubes:
            assert mgr.diff(cube.to_bdd(mgr), edge) == FALSE, \
                "seed %d: non-implicant cube" % seed


def _literals(cubes):
    """A cube list as literal items, in each dict's insertion order."""
    return [list(cube.literals.items()) for cube in cubes]


def _interval_case(seed, python_loops):
    """ISOP of a proper interval (L < U) around a random function."""
    rng = random.Random(10_000 + seed)
    num_ops = rng.randint(4, 12)
    mgr, edges, _, _ = _random_case(10_000 + seed, NUM_VARS, num_ops,
                                    python_loops=python_loops)
    f_edge = edges[-1]
    # Derive a don't-care mask from a second expression over the
    # same manager (fresh managers per case keep this cheap).
    dc = mgr.var(rng.randrange(NUM_VARS))
    if rng.random() < 0.5:
        dc = mgr.not_(dc)
    lower = mgr.diff(f_edge, dc)
    upper = mgr.or_(f_edge, dc)
    return mgr, lower, upper, isop(mgr, lower, upper)


def test_interval_isop_differential():
    """ISOP on proper intervals (L < U): cover stays inside the band,
    and the Python walk gives the same cover and manager."""
    for seed in range(100):
        mgr, lower, upper, (cover, cubes) = _interval_case(seed, False)
        py_mgr, _, _, (py_cover, py_cubes) = _interval_case(seed, True)
        assert (cover, _literals(cubes)) == (py_cover, _literals(py_cubes)), \
            "seed %d" % seed
        assert kernel_state(mgr) == kernel_state(py_mgr), "seed %d" % seed
        assert mgr.diff(lower, cover) == FALSE, "seed %d" % seed
        assert mgr.diff(cover, upper) == FALSE, "seed %d" % seed
        assert cover_to_bdd(mgr, cubes) == cover, "seed %d" % seed
