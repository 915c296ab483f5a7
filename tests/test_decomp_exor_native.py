"""Fig. 4's EXOR propagation in the C kernel, against the Python loop.

On a manager that runs the C inner loops, ``check_exor_bidecomp`` hands
the loop of :func:`repro.decomp.exor.propagate_exor` to one C kernel
call, :func:`repro.bdd.exor_propagation`.  Seed cubes pick the
components, and node indices feed every later cache key, so the C loop
must repeat the Python one call for call.  Each case here runs on a C
manager and on one held on the Python loops (``native._python_loops``)
and compares the result, ``conftest.kernel_state`` (arena, tables,
counters) and the quantifier's suffix ids, which the C loop interns at
the same points.  Growth hooks that raise mid-propagation and a
time-limit trip check the C loop's counter commit points and hook
calls.  On the Python fallback both sides run the Python loop.
"""

import random
import traceback

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bdd import native
from repro.decomp import exor
from repro.pipeline import Deadline, PipelineConfig, PipelineTimeout, Session

from conftest import (Trip, assert_unique_tables_consistent, build_isf,
                      kernel_state, make_mgr, tripping_hook)


def _exor_tables(rng, n, xa, xb):
    """On/off truth tables of a random ``A(XA, XC) ^ B(XB, XC)`` with
    about a quarter of the points don't-care: decomposable by
    construction, so the propagation runs to its end."""
    full = (1 << (1 << n)) - 1
    xc = [v for v in range(n) if v not in xa and v not in xb]
    comp_a, comp_b, on = {}, {}, 0
    for i in range(1 << n):
        a = comp_a.setdefault(tuple((i >> v) & 1 for v in xa + xc),
                              rng.getrandbits(1))
        b = comp_b.setdefault(tuple((i >> v) & 1 for v in xb + xc),
                              rng.getrandbits(1))
        on |= (a ^ b) << i
    care = rng.getrandbits(1 << n) | rng.getrandbits(1 << n)
    return on & care, ~on & care & full


@st.composite
def exor_cases(draw):
    """``(n, on_tt, off_tt, xa, xb)``: n <= 7, disjoint non-empty XA and
    XB in shuffled order, and an interval that is either random (mostly
    refuted) or decomposable by construction."""
    n = draw(st.integers(min_value=2, max_value=7))
    order = draw(st.permutations(range(n)))
    size_a = draw(st.integers(min_value=1, max_value=n - 1))
    size_b = draw(st.integers(min_value=1, max_value=n - size_a))
    xa, xb = order[:size_a], order[size_a:size_a + size_b]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(min_value=0,
                                             max_value=2 ** 32)))
        on_tt, off_tt = _exor_tables(rng, n, xa, xb)
    else:
        full = (1 << (1 << n)) - 1
        on_tt = draw(st.integers(min_value=0, max_value=full))
        care = draw(st.integers(min_value=0, max_value=full))
        on_tt, off_tt = on_tt & care, ~on_tt & care & full
    return n, on_tt, off_tt, xa, xb


#: Q = x0 x1 | ~x0 x1 x2 and R = ~x0 x1 ~x2 with XA = {x2}, XB = {x0}:
#: the seed cube x1 forces B both ways at the first overlap test, before
#: any projection onto XB, so the C loop must not intern XB there.
REFUTED_BEFORE_XB = (3, 0b11001000, 0b00000100, [2], [0])


def _manager(python_loops, case):
    n, on_tt, off_tt, _xa, _xb = case
    mgr = make_mgr(n)
    if python_loops:
        native._python_loops(mgr)
    return mgr, build_isf(mgr, list(range(n)), on_tt, off_tt)


def _state(mgr):
    return (kernel_state(mgr),
            list(getattr(mgr, "_cache_suffix_id", {}).items()))


def _edges(result):
    if result is None:
        return None
    return tuple((isf.on.node, isf.off.node) for isf in result)


def _outcome(python_loops, case, run):
    """Result edges and manager state after *run* on both groupings."""
    mgr, isf = _manager(python_loops, case)
    xa, xb = case[3], case[4]
    results = [_edges(run(isf, xa, xb)), _edges(run(isf, xb, xa))]
    return results, _state(mgr)


@settings(max_examples=150, deadline=None)
@given(exor_cases())
def test_check_matches_python_loops(case):
    """``check_exor_bidecomp``: identical verdicts, components, arena,
    tables, counters and suffix ids on both managers."""
    run = exor.check_exor_bidecomp
    assert _outcome(False, case, run) == _outcome(True, case, run)


@settings(max_examples=150, deadline=None)
@example(REFUTED_BEFORE_XB)
@given(exor_cases())
def test_propagation_matches_python_loops(case):
    """The propagation alone, with no Theorem 2 filter interning both
    variable sets first: the C hand-off against ``propagate_exor``."""
    assert (_outcome(False, case, exor._propagate)
            == _outcome(True, case, exor.propagate_exor))


def test_refuted_case_stops_before_xb():
    """The pinned example is refuted before any XB projection, so only
    XA's level suffixes get ids."""
    mgr, isf = _manager(False, REFUTED_BEFORE_XB)
    assert exor._propagate(isf, [2], [0]) is None
    assert list(mgr._cache_suffix_id) == [(2,), ()]


@pytest.mark.skipif(not native.ACTIVE, reason="needs the C extension")
def test_c_manager_hands_the_loop_to_the_kernel(monkeypatch):
    """An incompletely specified interval never reaches the Python loop
    on a C manager; on the Python loops it does."""
    case = (5, *_exor_tables(random.Random(7), 5, [0, 3], [1, 4]),
            [0, 3], [1, 4])
    calls = []
    real = exor.propagate_exor

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(exor, "propagate_exor", spy)
    for python_loops in (False, True):
        mgr, isf = _manager(python_loops, case)
        assert exor.check_exor_bidecomp(isf, case[3], case[4]) is not None
        assert len(calls) == python_loops
        assert mgr.native is not python_loops


def _tripped_state(python_loops, case, trip_at):
    mgr, isf = _manager(python_loops, case)
    run = exor.propagate_exor if python_loops else exor._propagate
    # Build the care set first, so that every trip falls in the loop.
    assert not isf.is_completely_specified()
    mgr.set_growth_hook(tripping_hook(trip_at), interval=1)
    with pytest.raises(Trip) as info:
        run(isf, case[3], case[4])
    frames = [frame.name for frame in traceback.extract_tb(info.tb)]
    tripped = (str(info.value), mgr._peak_live, _state(mgr))
    mgr.set_growth_hook(None)
    mgr.ref(isf.on.node)
    mgr.ref(isf.off.node)
    mgr.collect()
    assert_unique_tables_consistent(mgr)
    return frames, (tripped, _state(mgr))


@pytest.mark.parametrize("trip_at", [1, 3, 11, 24])
def test_budget_trip_leaves_identical_managers(trip_at):
    """A growth hook raising on the N-th fresh node inside the
    propagation leaves the same exception, arena, counters, suffix ids
    and ``_peak_live`` on both managers."""
    xa, xb = [4, 1], [0, 5, 2]
    case = (7, *_exor_tables(random.Random(11), 7, xa, xb), xa, xb)
    c_frames, c_state = _tripped_state(False, case, trip_at)
    py_frames, py_state = _tripped_state(True, case, trip_at)
    assert c_state == py_state
    assert "propagate_exor" in py_frames
    if native.ACTIVE:
        assert c_frames[-2:] == ["exor_propagation", "hook"]


def test_time_limit_trips_inside_the_c_entry():
    """An expired deadline fires from the session's growth hook inside
    the propagation: from the C entry where it is loaded."""
    xa, xb = [7, 1, 3], [0, 8, 2]
    case = (10, *_exor_tables(random.Random(34), 10, xa, xb), xa, xb)
    mgr, isf = _manager(False, case)
    session = Session(PipelineConfig(time_limit=600.0), mgr=mgr)
    session.adopt_deadline(Deadline(1e-9))
    with pytest.raises(PipelineTimeout) as info:
        exor._propagate(isf, xa, xb)
    frames = traceback.extract_tb(info.tb)
    names = [frame.name for frame in frames]
    caller = frames[names.index("_on_manager_growth") - 1]
    if native.ACTIVE:
        assert caller.name == "exor_propagation"
        assert caller.line.startswith("return mgr._kernel.propagate_exor(")
    else:
        assert "propagate_exor" in names
