"""Shared test helpers: truth-table oracles and hypothesis strategies."""

import pytest
from hypothesis import strategies as st

from repro.bdd import BDD
from repro.boolfn import from_truth_table
from repro.boolfn.isf import ISF


def make_mgr(n, prefix="x"):
    """Manager with n variables x0..x{n-1}."""
    return BDD(["%s%d" % (prefix, i) for i in range(n)])


def kernel_state(mgr):
    """Everything the BDD kernel's C and Python loops must leave
    identical: arena, free list, unique / AND / XOR / ITE / exists tables
    in insertion order, ``cache_stats()`` and the growth-hook countdown."""
    return (mgr._level, mgr._lo, mgr._hi, mgr._free,
            [list(table.items()) for table in mgr._unique],
            list(mgr._ct_and.items()), list(mgr._ct_xor.items()),
            list(mgr._ct_ite.items()),
            list(getattr(mgr, "_cache_exists", {}).items()),
            mgr.cache_stats(), mgr._growth_countdown)


class Trip(Exception):
    """Raised by :func:`tripping_hook`."""


def tripping_hook(trip_at):
    """Growth hook that raises :class:`Trip` on fresh node *trip_at*
    (install it with ``interval=1``)."""
    fresh = [0]

    def hook(mgr):
        fresh[0] += 1
        if fresh[0] == trip_at:
            raise Trip("budget tripped at fresh node %d" % trip_at)
    return hook


def assert_unique_tables_consistent(mgr):
    """Every live node sits in its level's unique table under its key."""
    free = set(mgr._free)
    indexed = set()
    for level, table in enumerate(mgr._unique):
        for key, idx in table.items():
            assert mgr._level[idx] == level
            assert key == (mgr._lo[idx] << 32) | mgr._hi[idx]
            assert mgr._lo[idx] & 1 == 0, "stored low edge complemented"
            indexed.add(idx)
    live = set(range(1, len(mgr._level))) - free
    assert indexed == live


def brute_force(mgr, node, variables):
    """Truth table of *node* over *variables* as a packed int."""
    table = 0
    for i in range(1 << len(variables)):
        assignment = {v: (i >> k) & 1 for k, v in enumerate(variables)}
        full = {v: 0 for v in range(mgr.num_vars)}
        full.update(assignment)
        if mgr.eval(node, full):
            table |= 1 << i
    return table


def exists_tt(tt, n, xa):
    """Truth table of exists(XA, f) over *n* variables, by enumerating
    XA-cofactor classes."""
    mask = sum(1 << v for v in xa)
    return sum(1 << i for i in range(1 << n)
               if any((tt >> j) & 1 for j in range(1 << n)
                      if (i ^ j) & ~mask == 0))


def tt_strategy(n):
    """Hypothesis strategy for packed truth tables over n variables."""
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)


def isf_strategy(n):
    """Hypothesis strategy for (on_tt, off_tt) pairs with empty overlap."""
    def split(pair):
        on, care = pair
        return on & care, ~on & care & ((1 << (1 << n)) - 1)
    return st.tuples(tt_strategy(n), tt_strategy(n)).map(split)


def build_isf(mgr, variables, on_tt, off_tt):
    """ISF from packed on/off truth tables over *variables*."""
    on = mgr.fn(from_truth_table(mgr, variables, on_tt))
    off = mgr.fn(from_truth_table(mgr, variables, off_tt))
    return ISF(on, off)


def _split_exists(combine, on_tt, off_tt, n, xa, xb):
    """Is some ``fA(XA, XC) <combine> fB(XB, XC)`` in the interval?

    Decides the existential partition question by enumeration: every
    fA over XA | XC, each of which forces fB cell by cell over XB | XC.
    XC is the rest of the *n* variables; minterm ``i`` has ``x_k`` at
    bit ``k``, and each truth table is indexed the same way over its own
    variables in order.
    """
    xc = [v for v in range(n) if v not in xa and v not in xb]
    a_vars, b_vars = list(xa) + xc, list(xb) + xc

    def cell(i, variables):
        return sum(((i >> v) & 1) << k for k, v in enumerate(variables))

    cares = [(cell(i, a_vars), cell(i, b_vars), (on_tt >> i) & 1)
             for i in range(1 << n) if ((on_tt | off_tt) >> i) & 1]
    for fa in range(1 << (1 << len(a_vars))):
        forced = {}
        for ia, ib, value in cares:
            a = (fa >> ia) & 1
            fits = [b for b in (0, 1) if combine(a, b) == value]
            if len(fits) == 2:
                continue
            if not fits or forced.setdefault(ib, fits[0]) != fits[0]:
                break
        else:
            return True
    return False


def or_split_exists(on_tt, off_tt, n=3, xa=(0,), xb=(1,)):
    """Brute-force oracle: does some fA(XA,XC) | fB(XB,XC) lie in the
    interval?  Defaults: XA={x0}, XB={x1}, XC={x2}."""
    return _split_exists(lambda a, b: a | b, on_tt, off_tt, n, xa, xb)


def exor_split_exists(on_tt, off_tt, n=3, xa=(0,), xb=(1,)):
    """Brute-force oracle: does some fA(XA,XC) ^ fB(XB,XC) lie in the
    interval?  Defaults: XA={x0}, XB={x1}, XC={x2}."""
    return _split_exists(lambda a, b: a ^ b, on_tt, off_tt, n, xa, xb)


@pytest.fixture
def mgr4():
    """A fresh 4-variable manager (a, b, c, d)."""
    return BDD(["a", "b", "c", "d"])


@pytest.fixture
def mgr6():
    """A fresh 6-variable manager (x0..x5)."""
    return make_mgr(6)
