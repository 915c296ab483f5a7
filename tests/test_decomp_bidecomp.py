"""End-to-end tests for the recursive engine and the multi-output
driver — the paper's Fig. 7 as a whole."""

import pytest
from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import ISF, from_truth_table, parse, weight_set
from repro.decomp import (DecompositionConfig, bi_decompose,
                          bi_decompose_function)
from repro.network import (compute_stats, gates as G,
                           verify_against_isfs)
from repro.network.extract import output_functions

from conftest import build_isf, isf_strategy, make_mgr, tt_strategy


class TestCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(tt_strategy(4))
    def test_random_csf_roundtrips(self, table):
        mgr = make_mgr(4)
        f = mgr.fn(from_truth_table(mgr, [0, 1, 2, 3], table))
        result = bi_decompose_function(f)
        outs = output_functions(result.netlist, mgr)
        assert outs["f"] == f.node

    @settings(max_examples=60, deadline=None)
    @given(isf_strategy(4))
    def test_random_isf_stays_in_interval(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
        result = bi_decompose({"f": isf})
        verify_against_isfs(result.netlist, {"f": isf})
        # The reported function must match the netlist.
        outs = output_functions(result.netlist, mgr)
        assert outs["f"] == result.functions["f"].node

    @settings(max_examples=25, deadline=None)
    @given(isf_strategy(5))
    def test_five_variable_isfs_with_invariant_checks(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(5)
        isf = build_isf(mgr, list(range(5)), on_tt, off_tt)
        result = bi_decompose({"f": isf}, check=True)
        verify_against_isfs(result.netlist, {"f": isf})

    def test_constants_and_literals(self):
        mgr = BDD(["a", "b"])
        result = bi_decompose({
            "k0": mgr.fn_false(),
            "k1": mgr.fn_true(),
            "wire": mgr.fn_vars()[0],
            "inv": ~mgr.fn_vars()[1],
        })
        stats = compute_stats(result.netlist)
        assert stats.gates == 0
        assert stats.inverters == 1


class TestGateDiscipline:
    @settings(max_examples=30, deadline=None)
    @given(tt_strategy(4))
    def test_only_two_input_gates_emitted(self, table):
        mgr = make_mgr(4)
        f = mgr.fn(from_truth_table(mgr, [0, 1, 2, 3], table))
        result = bi_decompose_function(f)
        for node in result.netlist.reachable_from_outputs():
            gate_type = result.netlist.types[node]
            assert gate_type in (G.INPUT, G.CONST0, G.CONST1, G.NOT,
                                 G.BUF) or gate_type in G.TWO_INPUT_TYPES
            assert len(result.netlist.fanins[node]) <= 2

    def test_parity_uses_only_xor_chain(self):
        mgr = make_mgr(8)
        f = mgr.fn_false()
        for i in range(8):
            f = f ^ mgr.fn(mgr.var(i))
        result = bi_decompose_function(f)
        stats = result.netlist_stats()
        assert stats.gates == 7
        assert stats.exors == 7
        # Balanced grouping gives a log-depth tree.
        assert stats.cascades == 3


class TestDeterminism:
    def test_same_input_same_netlist(self):
        mgr1 = make_mgr(5)
        f1 = mgr1.fn(weight_set(mgr1, range(5), {1, 3, 4}))
        r1 = bi_decompose_function(f1)
        mgr2 = make_mgr(5)
        f2 = mgr2.fn(weight_set(mgr2, range(5), {1, 3, 4}))
        r2 = bi_decompose_function(f2)
        assert r1.netlist.types == r2.netlist.types
        assert r1.netlist.fanins == r2.netlist.fanins
        assert r1.stats.as_dict() == r2.stats.as_dict()


class TestConfigurations:
    def _spec(self):
        mgr = make_mgr(5)
        return mgr, {"f": mgr.fn(weight_set(mgr, range(5), {2, 3}))}

    def test_no_exor_config_emits_no_exors(self):
        mgr, specs = self._spec()
        result = bi_decompose(specs,
                              config=DecompositionConfig(use_exor=False))
        verify_against_isfs(result.netlist, specs)
        assert result.netlist_stats().exors == 0
        assert result.stats.strong["XOR"] == 0

    def test_weak_only_config_still_correct(self):
        mgr, specs = self._spec()
        config = DecompositionConfig(use_or=False, use_and=False,
                                     use_exor=False)
        result = bi_decompose(specs, config=config)
        verify_against_isfs(result.netlist, specs)
        assert result.stats.strong_steps() == 0

    def test_no_weak_falls_back_to_shannon(self):
        # Majority has no strong step; with weak disabled the engine
        # must take Shannon steps and still be correct.
        mgr = BDD(["a", "b", "c"])
        specs = {"f": parse(mgr, "a&b | b&c | a&c")}
        config = DecompositionConfig(use_weak=False)
        result = bi_decompose(specs, config=config)
        verify_against_isfs(result.netlist, specs)
        assert result.stats.shannon > 0

    def test_gate_preference_changes_tie_breaks(self):
        mgr = make_mgr(4)
        specs = {"f": parse(mgr, "x0 & x1 | x2 & x3")}
        prefer_and = DecompositionConfig(
            gate_preference=("AND", "OR", "XOR"))
        result = bi_decompose(specs, config=prefer_and)
        verify_against_isfs(result.netlist, specs)

    def test_cache_disabled_still_correct(self):
        mgr, specs = self._spec()
        result = bi_decompose(specs,
                              config=DecompositionConfig(use_cache=False))
        verify_against_isfs(result.netlist, specs)
        assert result.cache_stats["hits"] == 0


class TestStatsCounters:
    def test_counters_are_consistent(self):
        mgr = make_mgr(6)
        f = mgr.fn(weight_set(mgr, range(6), {2, 4, 5}))
        result = bi_decompose_function(f)
        stats = result.stats
        # Every call resolves through exactly one mechanism.
        resolved = (stats.cache_hits + stats.terminal_gates
                    + stats.strong_steps() + stats.weak_steps()
                    + stats.shannon)
        assert resolved == stats.calls
        assert stats.as_dict()["calls"] == stats.calls

    def test_weak_steps_reported(self):
        # Majority needs weak steps (no strong decomposition exists).
        mgr = BDD(["a", "b", "c"])
        result = bi_decompose({"f": parse(mgr, "a&b | b&c | a&c")})
        assert result.stats.weak_steps() > 0
        assert result.stats.shannon == 0


class TestDriver:
    def test_multi_output_sharing(self):
        mgr = make_mgr(5)
        # Outputs share subfunctions: the cache should fire.
        specs = {
            "w1": mgr.fn(weight_set(mgr, range(5), {1, 2})),
            "w2": mgr.fn(weight_set(mgr, range(5), {1, 2})),
        }
        result = bi_decompose(specs, verify=True)
        assert result.cache_stats["hits"] > 0
        # Identical outputs must collapse onto the same node.
        assert result.netlist.output_node("w1") == \
            result.netlist.output_node("w2")

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            bi_decompose({})

    def test_mixed_managers_rejected(self):
        mgr1, mgr2 = make_mgr(2), make_mgr(2)
        with pytest.raises(ValueError):
            bi_decompose({"a": mgr1.fn_vars()[0],
                          "b": mgr2.fn_vars()[0]})

    def test_verify_flag_raises_on_nothing(self):
        mgr = make_mgr(3)
        specs = {"f": parse(mgr, "x0 ^ x1 & x2")}
        result = bi_decompose(specs, verify=True)
        assert result.elapsed >= 0.0
        assert "outputs=1" in repr(result)

    def test_accepts_functions_and_isfs(self):
        mgr = make_mgr(2)
        f = parse(mgr, "x0 & x1")
        result = bi_decompose({"a": f, "b": ISF.from_csf(f)})
        assert result.netlist.output_node("a") == \
            result.netlist.output_node("b")
