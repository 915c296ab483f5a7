"""Tests for the Section 5 tuning knob (the exhaustive grouping
refinement) and the grouping objective."""

from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import ISF, parse, weight_set
from repro.decomp import (AND_GATE, DecompositionConfig, EXOR_GATE,
                          OR_GATE, and_decomposable, bi_decompose,
                          exor_decomposable, group_variables,
                          improve_grouping, or_decomposable)
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

