"""Tests for variable grouping (Figs. 5 and 6) and grouping selection."""

import pytest
from hypothesis import given, settings

from repro.bdd import BDD, native
from repro.boolfn import ISF, parse, weight_set
from repro.decomp import (AND_GATE, EXOR_GATE, OR_GATE, and_decomposable,
                          exor_decomposable, find_best_grouping,
                          find_initial_grouping, group_variables,
                          grouping_score, improve_grouping,
                          or_decomposable)

from conftest import build_isf, isf_strategy, make_mgr


def _check_of(gate):
    return {OR_GATE: or_decomposable, AND_GATE: and_decomposable,
            EXOR_GATE: exor_decomposable}[gate]


class TestInitialGrouping:
    def test_finds_seed_for_or_function(self):
        mgr = BDD(["a", "b", "c", "d"])
        isf = ISF.from_csf(parse(mgr, "a & b | c & d"))
        seed = find_initial_grouping(isf, isf.structural_support(),
                                     OR_GATE)
        assert seed is not None
        xa, xb = seed
        assert len(xa) == 1 and len(xb) == 1
        assert or_decomposable(isf, xa, xb)

    def test_returns_none_when_impossible(self):
        # 3-input majority has no strong bi-decomposition at all.
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a&b | b&c | a&c"))
        support = isf.structural_support()
        for gate in (OR_GATE, AND_GATE, EXOR_GATE):
            assert find_initial_grouping(isf, support, gate) is None

    def test_exor_seed_on_parity(self):
        mgr = make_mgr(4)
        f = mgr.fn_false()
        for i in range(4):
            f = f ^ mgr.fn(mgr.var(i))
        isf = ISF.from_csf(f)
        seed = find_initial_grouping(isf, isf.structural_support(),
                                     EXOR_GATE)
        assert seed is not None


class TestGroupVariables:
    @settings(max_examples=30, deadline=None)
    @given(isf_strategy(4))
    def test_grown_sets_remain_valid_and_disjoint(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
        support = isf.structural_support()
        for gate in (OR_GATE, AND_GATE, EXOR_GATE):
            grouping = group_variables(isf, support, gate)
            if grouping is None:
                continue
            xa, xb = grouping
            assert xa and xb
            assert not (xa & xb)
            assert (xa | xb) <= set(support)
            assert _check_of(gate)(isf, xa, xb)

    def test_disjoint_or_groups_everything(self):
        # F = (a|b) | (c|d): grouping should absorb all four variables.
        mgr = BDD(["a", "b", "c", "d"])
        isf = ISF.from_csf(parse(mgr, "a | b | c | d"))
        xa, xb = group_variables(isf, isf.structural_support(), OR_GATE)
        assert len(xa) + len(xb) == 4

    def test_balanced_growth_for_symmetric_function(self):
        # 6-input parity: EXOR grouping must cover all variables with
        # |XA| and |XB| differing by at most 1 (the Fig. 6 strategy).
        mgr = make_mgr(6)
        f = mgr.fn_false()
        for i in range(6):
            f = f ^ mgr.fn(mgr.var(i))
        isf = ISF.from_csf(f)
        xa, xb = group_variables(isf, isf.structural_support(), EXOR_GATE)
        assert len(xa) + len(xb) == 6
        assert abs(len(xa) - len(xb)) <= 1

    @pytest.mark.parametrize("python_loops", [False, True],
                             ids=["native", "python-loops"])
    @pytest.mark.parametrize("wrap", [tuple, iter, set],
                             ids=["tuple", "iterator", "set"])
    def test_support_is_read_once(self, wrap, python_loops):
        # The pair scan and the growth both walk the support: an
        # iterator must not leave the growth with nothing to add.
        mgr = make_mgr(4)
        if python_loops:
            native._python_loops(mgr)
        a, b, c, d = (mgr.fn(mgr.var(v)) for v in range(4))
        isf = ISF.from_csf(a | b | c | d)
        assert (group_variables(isf, wrap((0, 1, 2, 3)), OR_GATE)
                == ({0, 2}, {1, 3}))

    @pytest.mark.parametrize("wrap", [iter, set], ids=["iterator", "set"])
    def test_improve_grouping_reads_support_once(self, wrap):
        # Each excluded variable re-scans the support; with an iterator
        # only the first exclusion would see any candidate.
        mgr = make_mgr(5)
        isf = build_isf(mgr, list(range(5)), 0x1173fd5f, 0x660c0020)
        support = (0, 1, 2, 3, 4)
        seed = group_variables(isf, support, OR_GATE)
        assert seed == ({0, 1}, {2})
        improved = improve_grouping(isf, wrap(support), OR_GATE, *seed)
        assert improved == ({0}, {2, 3, 4})
        assert improved == improve_grouping(isf, support, OR_GATE, *seed)


class TestBestGrouping:
    def test_score_prefers_more_variables(self):
        assert grouping_score({0, 1, 2}, {3}) > grouping_score({0}, {3})

    def test_score_prefers_balance_on_equal_size(self):
        assert grouping_score({0, 1}, {2, 3}) > \
            grouping_score({0, 1, 2}, {3})

    def test_find_best_uses_preference_on_ties(self):
        # Exact ties go to the earlier candidate; the engine inserts
        # candidates in the paper's order OR, AND, EXOR.
        tied = ({0}, {1})
        gate, _xa, _xb = find_best_grouping(
            {OR_GATE: tied, AND_GATE: tied, EXOR_GATE: tied})
        assert gate == OR_GATE
        gate, _xa, _xb = find_best_grouping(
            {AND_GATE: tied, EXOR_GATE: tied})
        assert gate == AND_GATE

    def test_find_best_skips_missing(self):
        candidates = {OR_GATE: None, EXOR_GATE: ({0, 2}, {1})}
        gate, xa, xb = find_best_grouping(candidates)
        assert gate == EXOR_GATE
        assert (xa, xb) == ({0, 2}, {1})

    def test_find_best_none_when_empty(self):
        assert find_best_grouping({OR_GATE: None}) is None
        assert find_best_grouping({}) is None

    def test_bigger_grouping_beats_preference(self):
        candidates = {OR_GATE: ({0}, {1}),
                      EXOR_GATE: ({0, 2}, {1, 3})}
        gate, _xa, _xb = find_best_grouping(candidates)
        assert gate == EXOR_GATE
