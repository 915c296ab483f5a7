"""The BDD kernel's C inner loops: budget trips and the loader.

:mod:`repro.bdd.native` runs ``BDD.and_``'s miss path and the exists
walk in C when it can build ``_kernel.c``.  These tests check the two
places where the C loops could drift from the Python ones without the
differential harness in ``test_bdd_complement.py`` noticing — a growth
hook that raises in the middle of a walk, and the computed-table cap —
and that the loader falls back to the Python loops, never to a
traceback, whenever the extension cannot be built or loaded.
"""

import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from repro.bdd import BDD, exists, forall, native
from repro.bdd import manager as manager_module

from conftest import kernel_state

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

NUM_VARS = 12
HALF = NUM_VARS // 2


class Trip(Exception):
    """Raised by the test growth hook."""


def _tripping_hook(trip_at):
    fresh = [0]

    def hook(mgr):
        fresh[0] += 1
        if fresh[0] == trip_at:
            raise Trip("budget tripped at fresh node %d" % trip_at)
    return hook


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


def _assert_unique_tables_consistent(mgr):
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


def _run(op, mgr, f, g):
    if op == "and_":
        return mgr.and_(f, g)
    if op == "or_":
        return mgr.or_(f, g)
    if op == "exists":
        return exists(mgr, [0, 2, 4, 7, 9], mgr.xor(f, g))
    return forall(mgr, [1, 3, 6, 8], mgr.xor(f, g))


@pytest.mark.parametrize("op", ["and_", "or_", "exists", "forall"])
@pytest.mark.parametrize("trip_at", [1, 3, 11, 24])
def test_budget_trip_leaves_identical_managers(op, trip_at):
    """A hook raising on the N-th fresh node inside the walk leaves the
    C and the Python loops with the same exception, arena, counters and
    ``_peak_live``, and a following ``collect()`` with consistent
    unique tables."""
    outcomes = []
    for python_loops in (False, True):
        mgr, f, g = _operands(python_loops)
        if op in ("exists", "forall"):
            mgr.xor(f, g)           # build the operand before the hook
        mgr.set_growth_hook(_tripping_hook(trip_at), interval=1)
        with pytest.raises(Trip) as info:
            _run(op, mgr, f, g)
        tripped = (str(info.value), mgr._peak_live, kernel_state(mgr))
        mgr.set_growth_hook(None)
        mgr.ref(f)
        mgr.ref(g)
        mgr.collect()
        _assert_unique_tables_consistent(mgr)
        outcomes.append((tripped, kernel_state(mgr)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("op", ["and_", "or_", "exists", "forall"])
def test_computed_table_cap_matches(op, monkeypatch):
    """A tiny ``_CT_MAX`` makes both loops drop ``_ct_and`` at the same
    points."""
    monkeypatch.setattr(manager_module, "_CT_MAX", 16)
    states = []
    for python_loops in (False, True):
        mgr, f, g = _operands(python_loops)
        result = _run(op, mgr, f, g)
        states.append((result, kernel_state(mgr)))
    assert states[0] == states[1]


def test_bad_edge_raises_like_python():
    """An edge past the arena raises IndexError on both paths."""
    for python_loops in (False, True):
        mgr, f, _g = _operands(python_loops)
        with pytest.raises(IndexError):
            mgr.and_(f, (len(mgr._level) + 5) << 1)


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
