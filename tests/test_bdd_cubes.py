"""Tests for satisfy-counting, cube selection and cube enumeration."""

import pytest
from hypothesis import given, settings

from repro.bdd import (BDD, FALSE, TRUE, cube_to_bdd, iter_cubes,
                       iter_minterms, pick_cube, pick_minterm, sat_count)
from repro.boolfn import from_truth_table

from conftest import make_mgr, tt_strategy


class TestSatCount:
    @settings(max_examples=60, deadline=None)
    @given(tt_strategy(4))
    def test_matches_popcount(self, table):
        mgr = make_mgr(4)
        f = from_truth_table(mgr, [0, 1, 2, 3], table)
        assert sat_count(mgr, f) == bin(table).count("1")

    def test_constants(self):
        mgr = make_mgr(3)
        assert sat_count(mgr, FALSE) == 0
        assert sat_count(mgr, TRUE) == 8

    def test_wider_space(self):
        mgr = make_mgr(2)
        f = mgr.var(0)
        assert sat_count(mgr, f) == 2
        assert sat_count(mgr, f, num_vars=5) == 16

    def test_rejects_truncated_space(self):
        mgr = make_mgr(3)
        with pytest.raises(ValueError):
            sat_count(mgr, mgr.var(0), num_vars=2)

    def test_deep_cube_needs_no_recursion(self):
        """A 1,500-level chain: the walk keeps its own stack."""
        n = 1500
        mgr = make_mgr(n)
        f = TRUE
        for v in reversed(range(n)):
            f = mgr.and_(mgr.var(v), f)
        assert sat_count(mgr, f) == 1
        assert sat_count(mgr, mgr.not_(f)) == (1 << n) - 1
        assert sat_count(mgr, f, num_vars=n + 3) == 8
        # Drop the root's variable: the count doubles.
        assert sat_count(mgr, mgr.cofactor(f, 0, 1)) == 2

    def test_count_correct_after_adding_variable(self):
        mgr = make_mgr(2)
        f = mgr.and_(mgr.var(0), mgr.var(1))
        assert sat_count(mgr, f) == 1
        mgr.add_var("extra")
        assert sat_count(mgr, f) == 2


class TestPickCube:
    def test_unsat_returns_none(self):
        mgr = make_mgr(2)
        assert pick_cube(mgr, FALSE) is None
        assert pick_minterm(mgr, FALSE) is None

    def test_cube_satisfies_function(self):
        mgr = make_mgr(4)
        f = mgr.or_(mgr.and_(mgr.var(0), mgr.not_(mgr.var(1))),
                    mgr.and_(mgr.var(2), mgr.var(3)))
        cube = pick_cube(mgr, f)
        assert cube_to_bdd(mgr, cube) != FALSE
        # The cube must be contained in f.
        assert mgr.diff(cube_to_bdd(mgr, cube), f) == FALSE

    def test_pick_is_deterministic(self):
        mgr = make_mgr(4)
        f = mgr.xor(mgr.var(0), mgr.var(2))
        assert pick_cube(mgr, f) == pick_cube(mgr, f)

    def test_minterm_covers_all_requested_vars(self):
        mgr = make_mgr(4)
        f = mgr.var(1)
        minterm = pick_minterm(mgr, f)
        assert set(minterm) == {0, 1, 2, 3}
        assert minterm[1] == 1

    def test_tautology_cube_is_empty(self):
        mgr = make_mgr(2)
        assert pick_cube(mgr, TRUE) == {}


class TestCubeToBdd:
    def test_empty_cube_is_true(self):
        mgr = make_mgr(2)
        assert cube_to_bdd(mgr, {}) == TRUE

    def test_literal_polarities(self):
        mgr = make_mgr(3)
        node = cube_to_bdd(mgr, {0: 1, 2: 0})
        assert node == mgr.and_(mgr.var(0), mgr.not_(mgr.var(2)))


class TestIteration:
    @settings(max_examples=40, deadline=None)
    @given(tt_strategy(4))
    def test_cubes_are_disjoint_and_cover(self, table):
        mgr = make_mgr(4)
        f = from_truth_table(mgr, [0, 1, 2, 3], table)
        union = FALSE
        for cube in iter_cubes(mgr, f):
            node = cube_to_bdd(mgr, cube)
            assert mgr.and_(union, node) == FALSE, "cubes overlap"
            union = mgr.or_(union, node)
        assert union == f

    @settings(max_examples=30, deadline=None)
    @given(tt_strategy(4))
    def test_minterms_enumerate_exactly(self, table):
        mgr = make_mgr(4)
        f = from_truth_table(mgr, [0, 1, 2, 3], table)
        minterms = list(iter_minterms(mgr, f))
        assert len(minterms) == bin(table).count("1")
        for minterm in minterms:
            assert mgr.eval(f, minterm) is True

    def test_iterating_false_yields_nothing(self):
        mgr = make_mgr(2)
        assert list(iter_cubes(mgr, FALSE)) == []
        assert list(iter_minterms(mgr, FALSE)) == []
