"""Figs. 5 and 6's variable grouping in the C kernel, against Python.

On a manager that runs the C inner loops,
:func:`repro.decomp.grouping.group_variables` hands the pair scan and
the greedy growth to one C kernel call,
:func:`repro.bdd.variable_grouping`.  The engine's EXOR rerun, the weak
step and ``improve_grouping`` read the
:class:`~repro.decomp.context.CheckContext` caches the scan fills, and
node indices feed every later cache key, so the C scan must repeat the
Python checks call for call.  Each case here runs OR, AND and EXOR on
one context, on a C manager and on one held on the Python loops
(``native._python_loops``), and compares the groupings, the context's
counters, its ``_cache_ctx_*`` dicts in insertion order,
``conftest.kernel_state`` and the quantifier's interned level sets.
Growth hooks that raise part-way and a tiny computed-table cap check
the commit points.  On the Python fallback both sides run the Python
loops.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import manager, native, reorder_to
from repro.decomp import checks, exor, grouping
from repro.decomp.context import CheckContext
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.grouping import group_variables

from conftest import (Trip, assert_unique_tables_consistent, build_isf,
                      kernel_state, make_mgr, tripping_hook)

GATES = (OR_GATE, AND_GATE, EXOR_GATE)
MEMOS = ("varset", "exists", "or", "exor1", "exor")


def _composed(rng, n, xa, xb, combine, dc_share):
    """On/off truth tables of ``A(XA, XC) <combine> B(XB, XC)`` with
    random components and about *dc_share* of the points don't-care."""
    full = (1 << (1 << n)) - 1
    xc = [v for v in range(n) if v not in xa and v not in xb]
    comp_a, comp_b, on = {}, {}, 0
    for i in range(1 << n):
        a = comp_a.setdefault(tuple((i >> v) & 1 for v in xa + xc),
                              rng.getrandbits(1))
        b = comp_b.setdefault(tuple((i >> v) & 1 for v in xb + xc),
                              rng.getrandbits(1))
        on |= combine(a, b) << i
    care = full
    for _ in range(dc_share):
        care &= rng.getrandbits(1 << n) | rng.getrandbits(1 << n)
    return on & care, ~on & care & full


COMBINE = {"or": lambda a, b: a | b, "and": lambda a, b: a & b,
           "xor": lambda a, b: a ^ b}


@st.composite
def grouping_cases(draw):
    """``(n, order, on_tt, off_tt, support)``: n <= 8 variables, an
    optional permuted variable order, an interval that is random or
    composed from two components through OR, AND or EXOR (completely
    specified or with don't-cares), and the support to scan: the
    variables in a shuffled order, sometimes with extras or a repeat."""
    n = draw(st.integers(min_value=2, max_value=8))
    order = draw(st.one_of(st.none(), st.permutations(range(n))))
    shape = draw(st.sampled_from(["random", "or", "and", "xor"]))
    full = (1 << (1 << n)) - 1
    if shape == "random":
        on_tt = draw(st.integers(min_value=0, max_value=full))
        care = draw(st.sampled_from([full, draw(st.integers(
            min_value=0, max_value=full))]))
        on_tt, off_tt = on_tt & care, ~on_tt & care & full
    else:
        perm = draw(st.permutations(range(n)))
        size_a = draw(st.integers(min_value=1, max_value=n - 1))
        size_b = draw(st.integers(min_value=1, max_value=n - size_a))
        rng = random.Random(draw(st.integers(min_value=0,
                                             max_value=2 ** 32)))
        on_tt, off_tt = _composed(
            rng, n, list(perm[:size_a]), list(perm[size_a:size_a + size_b]),
            COMBINE[shape], draw(st.integers(min_value=0, max_value=2)))
    support = list(draw(st.permutations(range(n))))
    del support[draw(st.integers(min_value=2, max_value=n)):]
    if draw(st.booleans()):
        support.append(support[0])
    return n, order, on_tt, off_tt, tuple(support)


def _manager(python_loops, case):
    n, order, on_tt, off_tt, _support = case
    mgr = make_mgr(n)
    if python_loops:
        native._python_loops(mgr)
    if order is not None:
        reorder_to(mgr, order)
    return mgr, build_isf(mgr, list(range(n)), on_tt, off_tt)


def _state(mgr, ctx):
    """Everything a grouping leaves behind on the manager and context."""
    memos = [list(getattr(mgr, "_cache_ctx_" + kind, {}).items())
             for kind in MEMOS]
    interned = [list(getattr(mgr, name, {}).items())
                for name in ("_cache_var_token", "_cache_suffixes",
                             "_cache_suffix_id")]
    return (kernel_state(mgr), memos, interned,
            (ctx.check_calls, ctx.cache_hits, ctx.exists_calls))


def _outcome(python_loops, case, gates=GATES):
    """Groupings of every gate on one context, then the state left."""
    mgr, isf = _manager(python_loops, case)
    ctx = CheckContext(mgr)
    support = case[4]
    results = [group_variables(isf, support, gate, ctx) for gate in gates]
    # A second pass answers from the context's memos.
    results += [group_variables(isf, support, gate, ctx) for gate in gates]
    return results, _state(mgr, ctx)


@settings(max_examples=200, deadline=None)
@given(grouping_cases())
def test_grouping_matches_python_loops(case):
    """Identical groupings, counters, memos, arena, tables and interned
    level sets on both managers."""
    assert _outcome(False, case) == _outcome(True, case)


@settings(max_examples=40, deadline=None)
@given(grouping_cases())
def test_tiny_computed_table_cap(case):
    """With ``_CT_MAX`` at 4 the AND table is dropped after nearly every
    walk; the C scan drops it at the same points."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manager, "_CT_MAX", 4)
        assert _outcome(False, case) == _outcome(True, case)


#: A 7-variable ``A(x4, x1, x6) ^ B(x0, x5, x2)`` over XC = {x3} with
#: don't-cares: every gate scans, and EXOR grows through Fig. 4.
TRIP_CASE = (7, None, *_composed(random.Random(11), 7, [4, 1, 6], [0, 5, 2],
                                 COMBINE["xor"], 1), tuple(range(7)))


def _fresh_nodes(case, gate):
    """Fresh nodes the grouping of *gate* creates on TRIP_CASE."""
    mgr, isf = _manager(True, case)
    count = [0]

    def hook(_mgr):
        count[0] += 1
    mgr.set_growth_hook(hook, interval=1)
    group_variables(isf, case[4], gate, CheckContext(mgr))
    return count[0]


def _tripped_state(python_loops, case, gate, trip_at):
    mgr, isf = _manager(python_loops, case)
    ctx = CheckContext(mgr)
    mgr.set_growth_hook(tripping_hook(trip_at), interval=1)
    with pytest.raises(Trip):
        group_variables(isf, case[4], gate, ctx)
    tripped = (mgr._peak_live, _state(mgr, ctx))
    mgr.set_growth_hook(None)
    mgr.ref(isf.on.node)
    mgr.ref(isf.off.node)
    mgr.collect()
    assert_unique_tables_consistent(mgr)
    return tripped, kernel_state(mgr)


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("trip_at", [1, 3, 11, "middle", "last"])
def test_budget_trip_leaves_identical_state(gate, trip_at):
    """A growth hook raising on the N-th fresh node of a grouping leaves
    the same arena, counters, memos and context counts on both
    managers: early in the pair scan, and part-way through and at the
    end of the growth."""
    fresh = _fresh_nodes(TRIP_CASE, gate)
    assert fresh > 11
    trip_at = {"middle": fresh // 2, "last": fresh}.get(trip_at, trip_at)
    assert (_tripped_state(False, TRIP_CASE, gate, trip_at)
            == _tripped_state(True, TRIP_CASE, gate, trip_at))


@pytest.mark.skipif(not native.ACTIVE, reason="needs the C extension")
def test_c_manager_runs_no_python_check(monkeypatch):
    """On a C manager no Theorem 1/2 check or EXOR filter runs in
    Python; on the Python loops they do."""
    calls = []
    for module, name in ((checks, "or_decomposable"),
                         (checks, "exor_decomposable_single"),
                         (exor, "check_exor_bidecomp")):
        real = getattr(module, name)

        def spy(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(grouping, "exor_decomposable",
                        lambda *args: calls.append(args) or
                        exor.exor_decomposable(*args))
    for python_loops in (False, True):
        del calls[:]
        mgr, isf = _manager(python_loops, TRIP_CASE)
        ctx = CheckContext(mgr)
        for gate in GATES:
            group_variables(isf, TRIP_CASE[4], gate, ctx)
        assert bool(calls) is python_loops


def test_names_and_unknown_gates_take_the_python_path():
    """A support given by variable names runs the Python loops (the C
    scan takes indices), and an unknown gate is a ValueError."""
    mgr, isf = _manager(False, TRIP_CASE)
    names = [mgr.var_name(v) for v in TRIP_CASE[4]]
    by_index = group_variables(isf, TRIP_CASE[4], EXOR_GATE)
    by_name = group_variables(isf, names, EXOR_GATE)
    assert by_name == tuple(frozenset(mgr.var_name(v) for v in side)
                            for side in by_index)
    with pytest.raises(ValueError, match="unknown gate"):
        group_variables(isf, TRIP_CASE[4], "NAND")
