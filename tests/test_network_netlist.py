"""Tests for netlist construction: folding, hashing, queries."""

import pytest

from repro.network import Netlist, gates as G
from repro.network.simulate import simulate_single


@pytest.fixture
def nl():
    return Netlist(["a", "b"])


class TestInputs:
    def test_inputs_in_order(self, nl):
        assert [nl.names[n] for n in nl.inputs] == ["a", "b"]
        assert nl.input_node("b") == nl.inputs[1]

    def test_duplicate_input_rejected(self, nl):
        with pytest.raises(ValueError):
            nl.add_input("a")

    def test_constants_are_unique(self, nl):
        assert nl.constant(0) == nl.constant(0)
        assert nl.constant(1) != nl.constant(0)
        assert nl.is_constant(nl.constant(1), 1)
        assert not nl.is_constant(nl.inputs[0])


class TestStructuralHashing:
    def test_identical_gates_shared(self, nl):
        a, b = nl.inputs
        assert nl.add_and(a, b) == nl.add_and(a, b)

    def test_commutative_canonicalisation(self, nl):
        a, b = nl.inputs
        assert nl.add_and(a, b) == nl.add_and(b, a)
        assert nl.add_xor(a, b) == nl.add_xor(b, a)

    def test_different_types_not_shared(self, nl):
        a, b = nl.inputs
        assert nl.add_and(a, b) != nl.add_or(a, b)


class TestConstantFolding:
    def test_and_or_with_constants(self, nl):
        a = nl.inputs[0]
        one, zero = nl.constant(1), nl.constant(0)
        assert nl.add_and(a, zero) == zero
        assert nl.add_and(a, one) == a
        assert nl.add_or(a, one) == one
        assert nl.add_or(a, zero) == a
        assert nl.add_and(zero, a) == zero  # constant first

    def test_xor_with_constants(self, nl):
        a = nl.inputs[0]
        assert nl.add_xor(a, nl.constant(0)) == a
        assert nl.add_xor(a, nl.constant(1)) == nl.add_not(a)

    def test_nand_nor_xnor_with_constants(self, nl):
        a = nl.inputs[0]
        one, zero = nl.constant(1), nl.constant(0)
        assert nl.add_gate(G.NAND, a, zero) == one
        assert nl.add_gate(G.NAND, a, one) == nl.add_not(a)
        assert nl.add_gate(G.NOR, a, one) == zero
        assert nl.add_gate(G.NOR, a, zero) == nl.add_not(a)
        assert nl.add_gate(G.XNOR, a, one) == a
        assert nl.add_gate(G.XNOR, a, zero) == nl.add_not(a)

    def test_both_constants(self, nl):
        one, zero = nl.constant(1), nl.constant(0)
        assert nl.add_and(one, zero) == zero
        assert nl.add_gate(G.XNOR, zero, zero) == one


class TestIdempotenceAndComplement:
    def test_same_operand(self, nl):
        a = nl.inputs[0]
        assert nl.add_and(a, a) == a
        assert nl.add_or(a, a) == a
        assert nl.add_xor(a, a) == nl.constant(0)
        assert nl.add_gate(G.XNOR, a, a) == nl.constant(1)
        assert nl.add_gate(G.NAND, a, a) == nl.add_not(a)
        assert nl.add_gate(G.NOR, a, a) == nl.add_not(a)

    def test_complement_pairs(self, nl):
        a = nl.inputs[0]
        na = nl.add_not(a)
        assert nl.add_and(a, na) == nl.constant(0)
        assert nl.add_or(a, na) == nl.constant(1)
        assert nl.add_xor(a, na) == nl.constant(1)
        assert nl.add_gate(G.XNOR, a, na) == nl.constant(0)
        assert nl.add_gate(G.NAND, a, na) == nl.constant(1)
        assert nl.add_gate(G.NOR, a, na) == nl.constant(0)

    def test_double_negation(self, nl):
        a = nl.inputs[0]
        assert nl.add_not(nl.add_not(a)) == a

    def test_not_of_constants(self, nl):
        assert nl.add_not(nl.constant(0)) == nl.constant(1)
        assert nl.add_not(nl.constant(1)) == nl.constant(0)


class TestMux:
    def test_mux_semantics(self):
        nl = Netlist(["s", "h", "l"])
        s, h, l = nl.inputs
        nl.set_output("y", nl.add_mux(s, h, l))
        assert simulate_single(nl, {"s": 1, "h": 1, "l": 0})["y"] == 1
        assert simulate_single(nl, {"s": 0, "h": 1, "l": 0})["y"] == 0
        assert simulate_single(nl, {"s": 0, "h": 0, "l": 1})["y"] == 1


class TestQueries:
    def test_outputs_and_lookup(self, nl):
        a, b = nl.inputs
        g = nl.add_and(a, b)
        nl.set_output("y", g)
        assert nl.output_node("y") == g
        with pytest.raises(KeyError):
            nl.output_node("zz")

    def test_reachable_excludes_dead_logic(self, nl):
        a, b = nl.inputs
        live = nl.add_and(a, b)
        dead = nl.add_xor(a, b)
        nl.set_output("y", live)
        reachable = nl.reachable_from_outputs()
        assert live in reachable
        assert dead not in reachable

    def test_ids_are_topological(self, nl):
        a, b = nl.inputs
        g1 = nl.add_and(a, b)
        g2 = nl.add_or(g1, a)
        assert g1 < g2
        for node in range(nl.num_nodes()):
            assert all(f < node for f in nl.fanins[node])

    def test_invalid_gate_type(self, nl):
        with pytest.raises(ValueError):
            nl.add_gate("MAJ3", nl.inputs[0], nl.inputs[1])

    def test_repr(self, nl):
        assert "inputs=2" in repr(nl)
