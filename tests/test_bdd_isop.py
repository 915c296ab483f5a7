"""Tests for the Minato-Morreale irredundant SOP algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (BDD, FALSE, TRUE, Cube, cover_literal_count,
                       cover_to_bdd, isop, native)
from repro.bdd.reorder import reorder_to
from repro.boolfn import from_truth_table

from conftest import isf_strategy, kernel_state, make_mgr, tt_strategy


class TestInterval:
    @settings(max_examples=80, deadline=None)
    @given(isf_strategy(4))
    def test_cover_lies_in_interval(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        variables = [0, 1, 2, 3]
        lower = from_truth_table(mgr, variables, on_tt)
        upper = mgr.not_(from_truth_table(mgr, variables, off_tt))
        cover, cubes = isop(mgr, lower, upper)
        assert mgr.diff(lower, cover) == FALSE, "cover misses the on-set"
        assert mgr.diff(cover, upper) == FALSE, "cover hits the off-set"
        assert cover_to_bdd(mgr, cubes) == cover

    @settings(max_examples=60, deadline=None)
    @given(tt_strategy(4))
    def test_exact_interval_reproduces_function(self, table):
        mgr = make_mgr(4)
        variables = [0, 1, 2, 3]
        f = from_truth_table(mgr, variables, table)
        cover, cubes = isop(mgr, f, f)
        assert cover == f

    def test_empty_interval_rejected(self):
        mgr = make_mgr(2)
        with pytest.raises(ValueError):
            isop(mgr, TRUE, mgr.var(0))


@st.composite
def intervals(draw):
    """``(n, on_tt, dc_tt, order)``: an interval over n <= 8 variables
    as on-set and don't-care truth tables, and a variable order to move
    the manager to first (None keeps variable index == level)."""
    n = draw(st.integers(min_value=1, max_value=8))
    full = (1 << (1 << n)) - 1
    on_tt = draw(st.integers(min_value=0, max_value=full))
    dc_tt = draw(st.integers(min_value=0, max_value=full))
    order = draw(st.none() | st.permutations(range(n)))
    return n, on_tt & ~dc_tt, dc_tt, order


def _walk(python_loops, case):
    n, on_tt, dc_tt, order = case
    mgr = make_mgr(n)
    if python_loops:
        native._python_loops(mgr)
    lower = from_truth_table(mgr, list(range(n)), on_tt)
    upper = mgr.or_(lower, from_truth_table(mgr, list(range(n)), dc_tt))
    if order is not None:
        reorder_to(mgr, order)
    cover, cubes = isop(mgr, lower, upper)
    return (cover, [list(cube.literals.items()) for cube in cubes],
            kernel_state(mgr))


class TestNativeWalk:
    @settings(max_examples=150, deadline=None)
    @given(intervals())
    def test_c_walk_matches_python_walk(self, case):
        """The C walk returns the Python walk's cover and cubes, literal
        order included, and leaves the same arena, tables and counters
        (on the fallback both sides run the Python walk)."""
        assert _walk(False, case) == _walk(True, case)


class TestIrredundancy:
    @settings(max_examples=40, deadline=None)
    @given(tt_strategy(4))
    def test_no_cube_is_removable(self, table):
        mgr = make_mgr(4)
        variables = [0, 1, 2, 3]
        f = from_truth_table(mgr, variables, table)
        cover, cubes = isop(mgr, f, f)
        for skip in range(len(cubes)):
            reduced = [cube for i, cube in enumerate(cubes) if i != skip]
            partial = cover_to_bdd(mgr, reduced)
            assert mgr.diff(f, partial) != FALSE, \
                "cube %d is redundant" % skip

    def test_constants(self):
        mgr = make_mgr(2)
        cover, cubes = isop(mgr, FALSE, FALSE)
        assert cover == FALSE and cubes == []
        cover, cubes = isop(mgr, TRUE, TRUE)
        assert cover == TRUE and len(cubes) == 1
        assert cubes[0].num_literals() == 0


class TestDontCareExploitation:
    def test_dc_makes_cover_smaller(self):
        # on-set = a & b, dc covers everything with a=1: cover can be
        # just the single literal a.
        mgr = BDD(["a", "b"])
        a, b = mgr.var("a"), mgr.var("b")
        lower = mgr.and_(a, b)
        upper = a
        cover, cubes = isop(mgr, lower, upper)
        assert cover == a
        assert cover_literal_count(cubes) == 1

    def test_tautology_interval_picks_constant(self):
        mgr = BDD(["a"])
        cover, cubes = isop(mgr, mgr.var("a"), TRUE)
        assert cover == TRUE


class TestCubeObject:
    def test_with_literal_copies(self):
        cube = Cube({0: 1})
        extended = cube.with_literal(1, 0)
        assert cube.literals == {0: 1}
        assert extended.literals == {0: 1, 1: 0}

    def test_equality_and_hash(self):
        assert Cube({0: 1}) == Cube({0: 1})
        assert hash(Cube({0: 1})) == hash(Cube({0: 1}))
        assert Cube({0: 1}) != Cube({0: 0})

    def test_to_bdd(self):
        mgr = make_mgr(3)
        node = Cube({0: 1, 2: 0}).to_bdd(mgr)
        assert node == mgr.and_(mgr.var(0), mgr.not_(mgr.var(2)))
