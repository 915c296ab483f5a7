"""Tests for the Section 5 / Section 7 tuning knobs (exhaustive
grouping refinement and multi-variable weak XA)."""

from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import ISF, parse, weight_set
from repro.decomp import (AND_GATE, DecompositionConfig, EXOR_GATE,
                          OR_GATE, and_decomposable, bi_decompose,
                          exor_decomposable, find_weak_grouping,
                          group_variables, improve_grouping,
                          or_decomposable)
from repro.network import verify_against_isfs

from conftest import build_isf, isf_strategy, make_mgr


def _check_of(gate):
    return {OR_GATE: or_decomposable, AND_GATE: and_decomposable,
            EXOR_GATE: exor_decomposable}[gate]


class TestImproveGrouping:
    @settings(max_examples=20, deadline=None)
    @given(isf_strategy(4))
    def test_refined_grouping_stays_valid(self, pair):
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], *pair)
        support = isf.structural_support()
        for gate in (OR_GATE, AND_GATE):
            grouping = group_variables(isf, support, gate)
            if grouping is None:
                continue
            xa, xb = improve_grouping(isf, support, gate, *grouping)
            assert xa and xb and not (xa & xb)
            assert _check_of(gate)(isf, xa, xb)
            # Never worse in total grouped variables.
            assert len(xa) + len(xb) >= \
                len(grouping[0]) + len(grouping[1])

    def test_refinement_is_noop_when_already_maximal(self):
        mgr = BDD(["a", "b", "c", "d"])
        isf = ISF.from_csf(parse(mgr, "a | b | c | d"))
        grouping = group_variables(isf, isf.structural_support(),
                                   OR_GATE)
        refined = improve_grouping(isf, isf.structural_support(),
                                   OR_GATE, *grouping)
        assert set(refined[0]) | set(refined[1]) == {0, 1, 2, 3}

    def test_engine_accepts_exhaustive_config(self):
        mgr = make_mgr(5)
        specs = {"f": mgr.fn(weight_set(mgr, range(5), {1, 2, 4}))}
        config = DecompositionConfig(exhaustive_grouping=True)
        result = bi_decompose(specs, config=config)
        verify_against_isfs(result.netlist, specs)


class TestObjective:
    def test_coverage_outranks_balance(self):
        # The paper's area score: more grouped variables wins even
        # against a perfectly balanced smaller grouping.
        from repro.decomp import grouping_score
        assert grouping_score({0, 1, 2, 3, 4}, {5}) > \
            grouping_score({0, 1}, {2, 3})


class TestWeakXaSize:
    def test_larger_xa_allowed(self):
        mgr = BDD(["a", "b", "c", "d"])
        # A function needing weak steps with plenty of smoothing room.
        isf = ISF.from_csf(parse(mgr, "a&b | b&c | c&d | a&d"))
        weak1 = find_weak_grouping(isf, isf.structural_support(),
                                   max_vars=1)
        weak2 = find_weak_grouping(isf, isf.structural_support(),
                                   max_vars=3)
        assert weak1 is not None and weak2 is not None
        assert len(weak1[1]) == 1
        assert len(weak2[1]) >= len(weak1[1])
        # The gate choice is anchored by the best single variable.
        assert weak2[0] == weak1[0]

    def test_growth_monotone_in_dc_gain(self):
        mgr = BDD(["a", "b", "c", "d"])
        isf = ISF.from_csf(parse(mgr, "a&b | b&c | c&d | a&d"))
        gate, xa = find_weak_grouping(isf, isf.structural_support(),
                                      max_vars=4)
        # Growing XA must never make component A's must-set larger
        # than the single-variable choice.
        gate1, xa1 = find_weak_grouping(isf, isf.structural_support(),
                                        max_vars=1)
        from repro.bdd import exists, sat_count
        target = isf.on.node if gate == OR_GATE else isf.off.node
        other = isf.off.node if gate == OR_GATE else isf.on.node
        big = sat_count(mgr, mgr.and_(target, exists(mgr, xa, other)))
        small = sat_count(mgr, mgr.and_(target,
                                        exists(mgr, xa1, other)))
        assert big <= small

    def test_engine_with_wide_weak_sets_still_correct(self):
        mgr = BDD(["a", "b", "c", "d", "e"])
        specs = {"f": parse(mgr, "a&b | b&c | c&d | d&e | a&e")}
        for size in (1, 2, 3):
            config = DecompositionConfig(weak_xa_size=size)
            result = bi_decompose(specs, config=config)
            verify_against_isfs(result.netlist, specs)
