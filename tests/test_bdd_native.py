"""The BDD kernel's C inner loops: budget trips, tables and the loader.

:mod:`repro.bdd.native` runs ``BDD.and_``'s miss path, the exists
walk and the ISOP walk in C, on ``native.Table`` unique / computed /
exists tables, when it can build ``_kernel.c``.  These tests check the
places where the C loops could drift from the Python ones without the
differential harness in ``test_bdd_complement.py`` noticing — a growth
hook that raises in the middle of a walk or reads the manager there,
and the computed-table caps — against
two references: the Python loops on the same tables, and the real
fallback, the Python loops on plain dicts.  They also check that
reorder and GC drop the exists memo, and that the loader falls back to
the Python loops, never to a traceback, whenever the extension cannot
be built or loaded.
"""

import contextlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from repro.bdd import BDD, exists, forall, isop, native
from repro.bdd import manager as manager_module
from repro.bdd.reorder import swap_levels

from conftest import (Trip, assert_unique_tables_consistent, kernel_state,
                      tripping_hook)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

NUM_VARS = 12
HALF = NUM_VARS // 2
OPS = ["and_", "or_", "exists", "forall", "isop"]
#: The C loops, the Python loops on the same tables, and the real
#: fallback: the Python loops on plain dicts.
SETUPS = ["c", "python", "fallback"]


def _operands(python_loops):
    """A manager and two operands whose AND and exists build many nodes.

    ``f`` is the XOR of the products x_i & x_{i+6} and ``g`` the OR of
    x_i & ~x_{i+6}: both are wide under the default order.
    """
    mgr = BDD(["x%d" % i for i in range(NUM_VARS)])
    if python_loops:
        native._python_loops(mgr)
    f = g = mgr.false
    for i in range(HALF):
        f = mgr.xor(f, mgr.and_(mgr.var(i), mgr.var(i + HALF)))
        g = mgr.or_(g, mgr.and_(mgr.var(i), mgr.nvar(i + HALF)))
    return mgr, f, g


@contextlib.contextmanager
def _setup(name, monkeypatch):
    """Apply setup *name*; yields whether the Python loops run."""
    with monkeypatch.context() as patch:
        if name == "fallback":
            patch.setattr(native, "Table", dict)
        yield name != "c"


def _run(op, mgr, f, g):
    if op == "and_":
        return mgr.and_(f, g)
    if op == "or_":
        return mgr.or_(f, g)
    if op == "exists":
        return exists(mgr, [0, 2, 4, 7, 9], mgr.xor(f, g))
    if op == "forall":
        return forall(mgr, [1, 3, 6, 8], mgr.xor(f, g))
    cover, cubes = isop(mgr, mgr.diff(f, g), mgr.xor(f, g))
    return cover, [list(cube.literals.items()) for cube in cubes]


def _operand_nodes(op, mgr, f, g):
    """Build what *op* needs besides its walk, before a hook goes in."""
    if op in ("exists", "forall", "isop"):
        mgr.xor(f, g)
    if op == "isop":
        mgr.diff(f, g)


@pytest.mark.parametrize("op", OPS)
def test_fallback_setup_matches(op, monkeypatch):
    """The C loops on Tables leave what the Python loops leave, on the
    same tables and on the plain dicts of the real fallback."""
    states = []
    for setup in SETUPS:
        with _setup(setup, monkeypatch) as python_loops:
            mgr, f, g = _operands(python_loops)
            result = _run(op, mgr, f, g)
            states.append((result, kernel_state(mgr)))
            if setup == "fallback":
                assert type(mgr._ct_and) is type(mgr._ct_xor) is dict
                assert all(type(t) is dict for t in mgr._unique)
                if op in ("exists", "forall"):
                    assert type(mgr._cache_exists) is dict
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("trip_at", [1, 3, 11, 24])
def test_budget_trip_leaves_identical_managers(op, trip_at, monkeypatch):
    """A hook raising on the N-th fresh node inside the walk leaves every
    setup with the same exception, arena, counters and ``_peak_live``,
    and a following ``collect()`` with consistent unique tables."""
    outcomes = []
    for setup in SETUPS:
        with _setup(setup, monkeypatch) as python_loops:
            mgr, f, g = _operands(python_loops)
            _operand_nodes(op, mgr, f, g)
            mgr.set_growth_hook(tripping_hook(trip_at), interval=1)
            with pytest.raises(Trip) as info:
                _run(op, mgr, f, g)
            tripped = (str(info.value), mgr._peak_live, kernel_state(mgr))
            mgr.set_growth_hook(None)
            mgr.ref(f)
            mgr.ref(g)
            mgr.collect()
            assert_unique_tables_consistent(mgr)
            outcomes.append((tripped, kernel_state(mgr)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("op", OPS)
def test_hook_sees_identical_managers(op, monkeypatch):
    """A growth hook fired on every fresh node sees the same counters
    and arena size on every setup: the C loops sync the manager before
    each call."""
    seen = []
    for setup in SETUPS:
        with _setup(setup, monkeypatch) as python_loops:
            mgr, f, g = _operands(python_loops)
            _operand_nodes(op, mgr, f, g)
            calls = []
            mgr.set_growth_hook(
                lambda m: calls.append((m.cache_stats(), len(m._level))),
                interval=1)
            result = _run(op, mgr, f, g)
            seen.append((result, calls, kernel_state(mgr)))
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("op", OPS)
def test_computed_table_cap_matches(op, monkeypatch):
    """A tiny ``_CT_MAX`` makes every setup drop ``_ct_and`` at the same
    points."""
    monkeypatch.setattr(manager_module, "_CT_MAX", 16)
    states = []
    for setup in SETUPS:
        with _setup(setup, monkeypatch) as python_loops:
            mgr, f, g = _operands(python_loops)
            result = _run(op, mgr, f, g)
            states.append((result, kernel_state(mgr)))
    assert states[0] == states[1] == states[2]


def test_bad_edge_raises_like_python(monkeypatch):
    """An edge past the arena raises IndexError on every setup."""
    for setup in SETUPS:
        with _setup(setup, monkeypatch) as python_loops:
            mgr, f, _g = _operands(python_loops)
            with pytest.raises(IndexError):
                mgr.and_(f, (len(mgr._level) + 5) << 1)


@pytest.mark.skipif(not native.ACTIVE, reason="needs the C extension")
def test_c_walks_accept_only_tables():
    """The C walks have no dict path: a dict where a Table belongs
    raises TypeError."""
    mgr, f, g = _operands(False)
    mgr._ct_and = {}
    with pytest.raises(TypeError):
        mgr.and_(f, g)
    mgr, f, g = _operands(False)
    mgr._unique = [{} for _table in mgr._unique]
    with pytest.raises(TypeError):
        mgr.and_(f, g)
    mgr, f, g = _operands(False)
    mgr._cache_exists = {}
    with pytest.raises(TypeError):
        exists(mgr, [0, 2], f)


def _truth(mgr, edge):
    return [mgr.eval(edge, {v: (row >> v) & 1 for v in range(NUM_VARS)})
            for row in range(1 << NUM_VARS)]


def _quantified_truth(truth, variables, combine):
    """Truth table of *truth* with *variables* quantified by *combine*."""
    mask = sum(1 << v for v in variables)
    subs = [sub for sub in range(mask + 1) if sub & ~mask == 0]
    return [combine(truth[(row & ~mask) | sub] for sub in subs)
            for row in range(len(truth))]


@pytest.mark.parametrize("invalidate", ["swap_levels", "collect"])
def test_reorder_and_gc_drop_the_exists_memo(invalidate):
    """``clear_caches()`` empties the exists memo whatever its type: a
    memo kept across reorder or GC keys on stale levels and nodes."""
    mgr, f, g = _operands(False)
    h = mgr.xor(f, g)
    variables = [0, 2, 7, 9]
    exists(mgr, variables, h)
    forall(mgr, variables, h)
    assert len(mgr._cache_exists) > 0
    if invalidate == "swap_levels":
        for level in (1, 6, 8):
            swap_levels(mgr, level)
    else:
        mgr.ref(h)
        mgr.collect()
    assert len(mgr._cache_exists) == 0
    truth = _truth(mgr, h)
    assert _truth(mgr, exists(mgr, variables, h)) \
        == _quantified_truth(truth, variables, any)
    assert _truth(mgr, forall(mgr, variables, h)) \
        == _quantified_truth(truth, variables, all)


def test_managers_use_the_loaded_kernel():
    mgr = BDD(["a"])
    assert mgr._kernel is native.KERNEL
    assert native.ACTIVE == (native.KERNEL is not None)
    assert (native.REASON is None) == native.ACTIVE


# ---------------------------------------------------------------------
# Loader: every failure falls back to the Python loops
# ---------------------------------------------------------------------
PROBE = """\
import json
from repro.bdd import BDD, exists, native
mgr = BDD(["a", "b", "c"])
a, b, c = (mgr.var(i) for i in range(3))
f = mgr.or_(mgr.and_(a, b), mgr.and_(mgr.not_(a), c))
print(json.dumps({"active": native.ACTIVE, "reason": native.REASON,
                  "f": f, "ex": exists(mgr, ["a"], f),
                  "kernel": mgr._kernel is not None}))
"""


def _probe(env_updates):
    env = dict(os.environ)
    env.pop("CC", None)
    env.update(env_updates)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_python_loops(doc):
    assert doc["active"] is False
    assert doc["kernel"] is False
    assert doc["reason"]
    # The Python loops compute what the probe expects.
    reference = _probe_reference()
    assert (doc["f"], doc["ex"]) == reference


def _probe_reference():
    mgr = BDD(["a", "b", "c"])
    native._python_loops(mgr)
    a, b, c = (mgr.var(i) for i in range(3))
    f = mgr.or_(mgr.and_(a, b), mgr.and_(mgr.not_(a), c))
    return f, exists(mgr, ["a"], f)


def _real_compiler():
    """The compiler the loader would use, or skip when there is none."""
    cc = sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip("no C compiler")
    return cc


def _logging_compiler(tmp_path, cc):
    """A $CC that records each invocation, then runs the real compiler."""
    log = tmp_path / "cc.log"
    script = tmp_path / "cc.sh"
    script.write_text('#!/bin/sh\necho run >> "%s"\nexec %s "$@"\n'
                      % (log, cc))
    script.chmod(0o755)
    return str(script), log


def test_failed_compile_falls_back(tmp_path):
    doc = _probe({"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)})
    _assert_python_loops(doc)
    assert "compile failed" in doc["reason"]


@pytest.mark.parametrize("cc", ["{tmp}/no-such-cc", 'cc "unbalanced'])
def test_missing_compiler_falls_back(tmp_path, cc):
    doc = _probe({"CC": cc.format(tmp=tmp_path),
                  "XDG_CACHE_HOME": str(tmp_path)})
    _assert_python_loops(doc)


def test_unwritable_cache_falls_back(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    doc = _probe({"CC": _real_compiler(), "XDG_CACHE_HOME": str(blocker)})
    _assert_python_loops(doc)
    assert "not writable" in doc["reason"]


def test_truncated_extension_falls_back(tmp_path):
    cache = tmp_path / "cache"
    assert _probe({"CC": _real_compiler(),
                   "XDG_CACHE_HOME": str(cache)})["active"] is True
    (built,) = [p for p in (cache / "repro").iterdir()
                if p.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))]
    data = built.read_bytes()
    built.write_bytes(data[:len(data) // 2])
    doc = _probe({"CC": _real_compiler(), "XDG_CACHE_HOME": str(cache)})
    _assert_python_loops(doc)
    assert "digest" in doc["reason"]


def test_warm_cache_never_invokes_the_compiler(tmp_path):
    cc, log = _logging_compiler(tmp_path, _real_compiler())
    env = {"CC": cc, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    cold = _probe(env)
    assert cold["active"] is True, cold["reason"]
    assert log.read_text().count("run") == 1
    warm = _probe(env)
    assert warm["active"] is True
    assert log.read_text().count("run") == 1
    assert (warm["f"], warm["ex"]) == (cold["f"], cold["ex"]) \
        == _probe_reference()
