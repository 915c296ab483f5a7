"""Tests for the SIS-like and BDS-like baseline synthesisers."""

import pytest
from hypothesis import given, settings

from repro.baselines import bds_like_synthesize, sis_like_synthesize
from repro.bdd import BDD
from repro.boolfn import ISF, parse, weight_set
from repro.network import gates as G, verify_against_isfs

from conftest import build_isf, isf_strategy, make_mgr, tt_strategy


class TestSisLike:
    @settings(max_examples=25, deadline=None)
    @given(isf_strategy(4))
    def test_correct_on_random_isfs(self, pair):
        mgr = make_mgr(4)
        specs = {"f": build_isf(mgr, [0, 1, 2, 3], *pair)}
        result = sis_like_synthesize(specs)
        verify_against_isfs(result.netlist, specs)

    def test_never_emits_exor_gates(self):
        mgr = make_mgr(6)
        specs = {"p": mgr.fn(weight_set(mgr, range(6), {1, 3, 5}))}
        result = sis_like_synthesize(specs)
        assert result.netlist_stats().exors == 0

    def test_balanced_mapping_depth(self):
        # A 16-cube single-literal OR maps to a depth-4 OR tree, and a
        # 16-literal cube to a depth-4 AND tree.
        mgr = make_mgr(16)
        wide_or = mgr.fn_false()
        wide_and = mgr.fn_true()
        for i in range(16):
            wide_or = wide_or | mgr.fn(mgr.var(i))
            wide_and = wide_and & mgr.fn(mgr.var(i))
        for f in (wide_or, wide_and):
            result = sis_like_synthesize({"y": f})
            stats = result.netlist_stats()
            assert stats.gates == 15
            assert stats.cascades == 4

    def test_constant_covers(self):
        # An empty cover maps to constant 0; a tautology cube absorbs
        # the rest of the cover and maps to constant 1.
        mgr = make_mgr(2)
        result = sis_like_synthesize({"zero": mgr.fn_false(),
                                      "one": mgr.fn_true(),
                                      "dc": ISF.from_interval(
                                          parse(mgr, "x0"),
                                          mgr.fn_true())})
        types = {name: result.netlist.types[node]
                 for name, node in result.netlist.outputs}
        assert types == {"zero": G.CONST0, "one": G.CONST1,
                         "dc": G.CONST1}
        assert result.extra == {"cubes": 2, "sop_literals": 0}

    def test_exploits_dont_cares(self):
        mgr = BDD(["a", "b"])
        tight = {"f": ISF.from_csf(parse(mgr, "a & b"))}
        loose = {"f": ISF.from_interval(parse(mgr, "a & b"),
                                        parse(mgr, "a"))}
        tight_r = sis_like_synthesize(tight)
        loose_r = sis_like_synthesize(loose)
        assert loose_r.netlist_stats().gates <= \
            tight_r.netlist_stats().gates
        assert loose_r.extra["sop_literals"] < \
            tight_r.extra["sop_literals"]

    def test_reports_cube_statistics(self):
        mgr = make_mgr(3)
        result = sis_like_synthesize({"f": parse(mgr, "x0 ^ x1 ^ x2")})
        assert result.extra["cubes"] == 4
        assert result.extra["sop_literals"] == 12
        assert result.elapsed >= 0


class TestBdsLike:
    @settings(max_examples=25, deadline=None)
    @given(isf_strategy(4))
    def test_correct_on_random_isfs(self, pair):
        mgr = make_mgr(4)
        specs = {"f": build_isf(mgr, [0, 1, 2, 3], *pair)}
        result = bds_like_synthesize(specs)
        verify_against_isfs(result.netlist, specs)

    def test_xor_cut_fires_on_parity(self):
        mgr = make_mgr(5)
        f = mgr.fn_false()
        for i in range(5):
            f = f ^ mgr.fn(mgr.var(i))
        result = bds_like_synthesize({"f": f})
        stats = result.netlist_stats()
        assert stats.exors == 4
        assert stats.gates == 4

    def test_shared_bdd_nodes_become_shared_gates(self):
        mgr = make_mgr(4)
        # Both outputs share the (x2 & x3) sub-BDD.
        f = parse(mgr, "x0 & (x2 & x3)")
        g = parse(mgr, "x1 | (x2 & x3)")
        result = bds_like_synthesize({"f": f, "g": g})
        verify_against_isfs(result.netlist, {"f": f, "g": g})
        # One AND for x2&x3 + one AND for f + one OR for g.
        assert result.netlist_stats().gates == 3

    def test_dominator_cuts_for_and_or(self):
        mgr = make_mgr(3)
        result = bds_like_synthesize({"f": parse(mgr, "x0 & x1 & x2")})
        stats = result.netlist_stats()
        assert stats.gates == 2
        assert stats.exors == 0

    def test_mux_fallback(self):
        mgr = BDD(["s", "a", "b"])
        f = parse(mgr, "s & a | ~s & b")
        result = bds_like_synthesize({"f": f})
        verify_against_isfs(result.netlist, {"f": f})


@pytest.mark.parametrize("flow", [sis_like_synthesize, bds_like_synthesize],
                         ids=["sis", "bds"])
def test_empty_specs_raise_value_error(flow):
    # As bi_decompose does: an empty dict names the flow, rather than
    # escaping as a StopIteration from picking the first spec's manager.
    with pytest.raises(ValueError, match=flow.__name__):
        flow({})

