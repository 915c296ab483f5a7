"""Failure-injection tests: every safety net must actually catch.

The reproduction leans on three defence layers — ISF consistency
checks, the BDD-based verifier, and the engine's internal invariants.
These tests deliberately break things and assert the breakage is
caught, not silently absorbed.
"""

import pytest

from repro.bdd import BDD
from repro.boolfn import ISF, InconsistentISF, parse
from repro.decomp import ComponentCache, DecompositionEngine, bi_decompose
from repro.network import (Netlist, VerificationError, gates as G,
                           verify_against_isfs, verify_equivalent)
from repro.network.mapper import map_netlist, verify_mapping

from conftest import make_mgr


class TestPoisonedCache:
    def test_wrong_cache_entry_produces_wrong_netlist_caught_by_verifier(
            self):
        # Insert a bogus (function, node) pair: claim node computes
        # x0 & x1 while it actually computes x0 | x1.  The engine
        # trusts its cache (as the paper's does); the independent
        # verifier must catch the corruption.
        mgr = make_mgr(2)
        netlist = Netlist(mgr.var_names)
        var_nodes = {v: netlist.input_node(mgr.var_name(v))
                     for v in range(2)}
        cache = ComponentCache()
        bogus_node = netlist.add_or(var_nodes[0], var_nodes[1])
        cache.insert(parse(mgr, "x0 & x1"), bogus_node)
        engine = DecompositionEngine(mgr, netlist, var_nodes,
                                     cache=cache)
        spec = ISF.from_csf(parse(mgr, "x0 & x1"))
        _csf, node = engine.decompose(spec)
        netlist.set_output("f", node)
        with pytest.raises(VerificationError):
            verify_against_isfs(netlist, {"f": spec})


class TestCorruptedNetlists:
    def _decomposed(self):
        mgr = make_mgr(4)
        spec = {"f": parse(mgr, "(x0 ^ x1) & x2 | x3")}
        result = bi_decompose(spec)
        return mgr, spec, result.netlist

    def test_gate_type_flip_caught(self):
        mgr, spec, netlist = self._decomposed()
        for node in netlist.reachable_from_outputs():
            if netlist.types[node] == G.AND:
                netlist.types[node] = G.OR  # inject the fault
                break
        else:
            pytest.skip("no AND gate to corrupt")
        with pytest.raises(VerificationError) as excinfo:
            verify_against_isfs(netlist, spec)
        # The counterexample must really demonstrate the bug.
        assert excinfo.value.counterexample is not None

    def test_fanin_swap_to_wrong_signal_caught(self):
        mgr, spec, netlist = self._decomposed()
        victim = None
        for node in sorted(netlist.reachable_from_outputs()):
            if netlist.types[node] in G.TWO_INPUT_TYPES:
                victim = node
        assert victim is not None
        a, _b = netlist.fanins[victim]
        netlist.fanins[victim] = (a, a)  # tie both fan-ins together
        assert not verify_against_isfs(netlist, spec,
                                       raise_on_fail=False)

    def test_equivalence_check_catches_single_gate_difference(self):
        mgr = make_mgr(3)
        spec = {"f": parse(mgr, "x0 & x1 | x2")}
        a = bi_decompose(spec).netlist
        b = bi_decompose(spec).netlist
        assert verify_equivalent(a, b, mgr)
        for node in b.reachable_from_outputs():
            if b.types[node] == G.OR:
                b.types[node] = G.XOR
                break
        # x0&x1 ^ x2 differs from x0&x1 | x2 at x0=x1=x2=1.
        with pytest.raises(VerificationError):
            verify_equivalent(a, b, mgr)


class TestInconsistentInputs:
    def test_overlapping_interval_rejected_at_construction(self):
        mgr = make_mgr(2)
        with pytest.raises(InconsistentISF):
            ISF(parse(mgr, "x0"), parse(mgr, "x0 & x1"))

    def test_engine_never_sees_inconsistent_interval(self):
        # All derivation formulas must keep intervals consistent; run
        # under the --check contracts to make the claim executable.
        mgr = make_mgr(5)
        spec = {"f": parse(mgr, "(x0 | x1) & (x2 ^ x3) | ~x4 & x0")}
        result = bi_decompose(spec, verify=True, check=True)
        assert result.stats.calls > 0


class TestMapperSafety:
    def test_verify_mapping_catches_tampering(self):
        mgr = make_mgr(2)
        nl = Netlist(mgr.var_names)
        nl.set_output("y", nl.add_xor(*nl.inputs))
        mapping = map_netlist(nl)
        assert verify_mapping(mapping, mgr)
        # Swap the chosen XOR2 for the same-arity XNOR2: function flips.
        from repro.network.mapper import default_library
        xnor2 = next(c for c in default_library() if c.name == "XNOR2")
        tampered = next(m for m in mapping.matches
                        if m.cell.name == "XOR2")
        tampered.cell = xnor2
        with pytest.raises(AssertionError):
            verify_mapping(mapping, mgr)
