"""Tests for the BLIF writer/reader."""

import pytest
from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import from_truth_table, parse
from repro.io import (BLIFError, netlist_from_functions, parse_blif,
                      parse_blif_netlist, write_blif)
from repro.network import Netlist, gates as G, verify_equivalent
from repro.network.extract import output_functions

from conftest import make_mgr, tt_strategy


def _rich_netlist():
    nl = Netlist(["a", "b", "c"])
    a, b, c = nl.inputs
    nl.set_output("o_and", nl.add_gate(G.AND, a, b))
    nl.set_output("o_xor", nl.add_gate(G.XOR, b, c))
    nl.set_output("o_nand", nl.add_gate(G.NAND, a, c))
    nl.set_output("o_nor", nl.add_gate(G.NOR, a, b))
    nl.set_output("o_xnor", nl.add_gate(G.XNOR, a, c))
    nl.set_output("o_or", nl.add_gate(G.OR, b, c))
    nl.set_output("o_not", nl.add_not(a))
    nl.set_output("o_k1", nl.constant(1))
    nl.set_output("o_k0", nl.constant(0))
    return nl


class TestWriter:
    def test_structure(self):
        text = write_blif(_rich_netlist(), model="m")
        assert text.startswith(".model m")
        assert ".inputs a b c" in text
        assert ".outputs o_and" in text.replace("\n", " ")
        assert text.rstrip().endswith(".end")

    def test_roundtrip_all_gate_types(self):
        nl = _rich_netlist()
        text = write_blif(nl)
        mgr = BDD(["a", "b", "c"])
        _mgr, outputs = parse_blif(text, mgr=mgr)
        expected = output_functions(nl, mgr)
        for name, node in expected.items():
            assert outputs[name].node == node, name

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "x.blif"
        write_blif(_rich_netlist(), path=str(path))
        assert path.read_text().startswith(".model")

    def test_name_collision_with_inputs_avoided(self):
        nl = Netlist(["n1", "n2"])
        nl.set_output("y", nl.add_and(*nl.inputs))
        text = write_blif(nl)
        mgr = BDD(["n1", "n2"])
        _mgr, outputs = parse_blif(text, mgr=mgr)
        assert outputs["y"].node == mgr.and_(mgr.var("n1"), mgr.var("n2"))

    @settings(max_examples=20, deadline=None)
    @given(tt_strategy(3))
    def test_roundtrip_random_functions(self, table):
        mgr = make_mgr(3)
        f = mgr.fn(from_truth_table(mgr, [0, 1, 2], table))
        nl = netlist_from_functions(mgr, {"y": f})
        text = write_blif(nl)
        _mgr, outputs = parse_blif(text, mgr=mgr)
        assert outputs["y"] == f


class TestReader:
    def test_wide_names_table(self):
        text = """\
.model wide
.inputs a b c d
.outputs y
.names a b c d y
1--- 1
-11- 1
---1 1
.end
"""
        mgr, outputs = parse_blif(text)
        expected = parse(mgr, "a | b & c | d")
        assert outputs["y"] == expected

    def test_offset_cover(self):
        text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n"
        mgr, outputs = parse_blif(text)
        assert outputs["y"] == ~parse(mgr, "a & b")

    def test_constant_tables(self):
        text = (".model m\n.inputs a\n.outputs k1 k0\n"
                ".names k1\n1\n.names k0\n.end\n")
        mgr, outputs = parse_blif(text)
        assert outputs["k1"].is_true()
        assert outputs["k0"].is_false()

    def test_continuation_lines(self):
        text = (".model m\n.inputs a \\\nb\n.outputs y\n"
                ".names a b y\n11 1\n.end\n")
        mgr, outputs = parse_blif(text)
        assert outputs["y"] == parse(mgr, "a & b")

    def test_undriven_output_rejected(self):
        text = ".model m\n.inputs a\n.outputs y\n.end\n"
        with pytest.raises(BLIFError):
            parse_blif(text)

    def test_mixed_polarity_cover_rejected(self):
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 1\n00 0\n.end\n")
        for reader in (parse_blif, parse_blif_netlist):
            with pytest.raises(BLIFError, match="mixed-polarity"):
                reader(text)

    @pytest.mark.parametrize("reader", [parse_blif, parse_blif_netlist],
                             ids=["bdd", "lint"])
    @pytest.mark.parametrize("row, message", [
        ("11 1 1", "bad cover row"),
        ("1 1", "width mismatch"),
        ("111 1", "width mismatch"),
    ], ids=["shape", "narrow", "wide"])
    def test_malformed_row_rejected_by_both_readers(self, reader, row,
                                                    message):
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n%s\n.end\n" % row)
        with pytest.raises(BLIFError, match=message):
            reader(text)

    @pytest.mark.parametrize("reader", [parse_blif, parse_blif_netlist],
                             ids=["bdd", "lint"])
    @pytest.mark.parametrize("tables, message", [
        (".names a b\n1 1\n.names a y\n1 1\n", "primary input 'b'"),
        (".names a y\n1 1\n.names b y\n1 1\n", "'y' a second time"),
    ], ids=["drives-input", "drives-twice"])
    def test_second_driver_rejected_by_both_readers(self, reader, tables,
                                                    message):
        # Either reader used to let the last driver win silently.
        text = ".model m\n.inputs a b\n.outputs y\n%s.end\n" % tables
        with pytest.raises(BLIFError, match=message):
            reader(text)

    def test_non_topological_rejected(self):
        text = (".model m\n.inputs a\n.outputs y\n"
                ".names ghost y\n1 1\n.end\n")
        with pytest.raises(BLIFError):
            parse_blif(text)

    def test_unsupported_construct_rejected(self):
        text = ".model m\n.inputs a\n.outputs y\n.latch a y 0\n.end\n"
        with pytest.raises(BLIFError):
            parse_blif(text)

    @pytest.mark.parametrize("inputs, bad", [
        ("x0 x1 x2", "x2"),
        ("a b", "a"),
    ], ids=["extra-input", "other-names"])
    def test_input_unknown_to_the_manager_rejected(self, inputs, bad):
        text = (".model m\n.inputs %s\n.outputs y\n.names %s y\n1 1\n"
                ".end\n" % (inputs, bad))
        with pytest.raises(BLIFError, match=repr(bad)):
            parse_blif(text, mgr=BDD(["x0", "x1"]))

    def test_bad_cover_output_rejected(self):
        text = (".model m\n.inputs a b\n.outputs y\n"
                ".names a b y\n11 01\n.end\n")
        with pytest.raises(BLIFError, match="bad cover output"):
            parse_blif(text)
        with pytest.raises(BLIFError, match="bad cover output"):
            parse_blif_netlist(text)


class TestNetlistReader:
    @pytest.mark.parametrize("row", ["12 1", "1x 1"])
    def test_bad_cover_symbol_rejected(self, row):
        text = (".model m\n.inputs x0 x1\n.outputs f\n.names x0 x1 f\n"
                "%s\n.end\n" % row)
        for reader in (parse_blif_netlist, parse_blif):
            with pytest.raises(BLIFError,
                               match="bad cover symbol in %r" % row):
                reader(text)


class TestNetlistFromFunctions:
    def test_mux_tree_equivalence(self):
        mgr = BDD(["a", "b", "c"])
        f = parse(mgr, "a ^ (b & ~c)")
        nl = netlist_from_functions(mgr, {"y": f})
        outs = output_functions(nl, mgr)
        assert outs["y"] == f.node

    def test_two_netlists_equivalent(self):
        mgr = BDD(["a", "b"])
        f = parse(mgr, "a | b")
        nl1 = netlist_from_functions(mgr, {"y": f})
        nl2 = Netlist(["a", "b"])
        nl2.set_output("y", nl2.add_or(*nl2.inputs))
        assert verify_equivalent(nl1, nl2, mgr)
