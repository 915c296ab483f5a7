"""Tests for the espresso PLA reader/writer."""

import re

import pytest
from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import parse
from repro.io import PLAData, PLAError, parse_pla, read_pla, write_pla

from conftest import build_isf, isf_strategy, make_mgr


SIMPLE = """\
.i 3
.o 2
.ilb a b c
.ob f g
.type fd
.p 3
1-1 10
01- 1-
00- 01
.e
"""


class TestParsing:
    def test_header_fields(self):
        data = parse_pla(SIMPLE)
        assert data.num_inputs == 3
        assert data.num_outputs == 2
        assert data.input_names == ["a", "b", "c"]
        assert data.output_names == ["f", "g"]
        assert data.pla_type == "fd"
        assert len(data.cubes) == 3

    def test_default_names(self):
        data = parse_pla(".i 2\n.o 1\n11 1\n.e\n")
        assert data.input_names == ["x0", "x1"]
        assert data.output_names == ["y0"]

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n.i 1\n.o 1\n\n1 1  # cube\n.e\n"
        data = parse_pla(text)
        assert len(data.cubes) == 1

    def test_missing_declarations_rejected(self):
        with pytest.raises(PLAError):
            parse_pla("11 1\n")

    def test_bad_cube_width_rejected(self):
        with pytest.raises(PLAError):
            parse_pla(".i 3\n.o 1\n11 1\n.e\n")

    def test_bad_symbols_rejected(self):
        with pytest.raises(PLAError):
            parse_pla(".i 2\n.o 1\n1X 1\n.e\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(PLAError):
            parse_pla(".i 1\n.o 1\n.phase 1\n1 1\n.e\n")

    def test_unsupported_type_rejected(self):
        with pytest.raises(PLAError):
            parse_pla(".i 1\n.o 1\n.type fdr\n1 1\n.e\n")

    @pytest.mark.parametrize("text, message", [
        (".i 2\n.o 2\n.ob f f\n11 11\n.e\n", "repeats the name 'f'"),
        (".i 2\n.o 2\n.ob f\n11 11\n.e\n", "1 name(s) for 2 outputs"),
        (".i 2\n.o 1\n.ilb a\n11 1\n.e\n", "1 name(s) for 2 inputs"),
        (".i 2\n.o 1\n.ilb a b c\n11 1\n.e\n",
         "3 name(s) for 2 inputs"),
        (".i 2\n.o 1\n.ilb\n11 1\n.e\n", "0 name(s) for 2 inputs"),
        (".i 2\n.o 1\n.ilb a a\n11 1\n.e\n", "repeats the name 'a'"),
    ], ids=["ob-duplicate", "ob-short", "ilb-short", "ilb-long",
            "ilb-empty", "ilb-duplicate"])
    def test_bad_name_lists_rejected(self, text, message):
        # Each of these used to drop or merge a column silently (or
        # escape as a raw BDD error for a duplicate input).
        with pytest.raises(PLAError, match=re.escape(message)):
            parse_pla(text)

    @pytest.mark.parametrize("line", [
        ".i", ".o", ".i x", ".o 1.5", ".i -1", ".i 2 3", ".type"])
    def test_bad_directive_arguments_rejected(self, line):
        text = ".i 2\n.o 1\n%s\n11 1\n.e\n" % line
        with pytest.raises(PLAError, match=line.split()[0]):
            parse_pla(text)

    def test_pladata_validates_names(self):
        with pytest.raises(PLAError, match="repeats"):
            PLAData(2, 1, input_names=["p", "p"])
        with pytest.raises(PLAError, match="for 1 outputs"):
            PLAData(2, 1, output_names=["f", "g"])

    @pytest.mark.parametrize("text", [
        ".i 2\n.o 2\n.ilb a b\n.ob f b\n11 11\n.e\n",
        ".i 1\n.o 1\n.ilb y0\n1 1\n.e\n",
    ], ids=["named", "default-ob"])
    def test_output_named_like_an_input_rejected(self, text):
        # A netlist output named after an input would drive that
        # primary input a second time in the emitted BLIF.
        with pytest.raises(PLAError, match="also an .ilb input name"):
            parse_pla(text)


class TestSemantics:
    def test_fd_on_and_dc(self):
        data = parse_pla(SIMPLE)
        mgr, specs = data.to_isfs()
        f = specs["f"]
        # Row 1 "1-1 10" and row 2 "01- 1-" both drive f's on-set; the
        # "-" in row 2 sits in g's column.
        assert f.on == parse(mgr, "a & c | ~a & b")
        assert f.dc.is_false()
        g = specs["g"]
        assert g.on == parse(mgr, "~a & ~b")
        assert g.dc == parse(mgr, "~a & b")

    def test_type_f_has_no_dc(self):
        text = ".i 2\n.o 1\n.type f\n1- 1\n-1 -\n.e\n"
        mgr, specs = parse_pla(text).to_isfs()
        isf = specs["y0"]
        assert isf.dc.is_false()
        assert isf.on == parse(mgr, "x0")

    def test_type_fr_explicit_offset(self):
        text = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n"
        mgr, specs = parse_pla(text).to_isfs()
        isf = specs["y0"]
        assert isf.on == parse(mgr, "x0 & x1")
        assert isf.off == parse(mgr, "~x0 & ~x1")
        assert isf.dc == parse(mgr, "x0 ^ x1")

    def test_type_fr_overlap_rejected(self):
        text = ".i 1\n.o 1\n.type fr\n1 1\n- 0\n.e\n"
        with pytest.raises(PLAError):
            parse_pla(text).to_isfs()

    def test_overlapping_on_and_dc_resolves_to_dc(self):
        text = ".i 1\n.o 1\n.type fd\n1 1\n- -\n.e\n"
        mgr, specs = parse_pla(text).to_isfs()
        isf = specs["y0"]
        assert isf.on.is_false()
        assert isf.dc.is_true()

    def test_zero_output_symbol_means_nothing_in_fd(self):
        text = ".i 1\n.o 2\n.type fd\n1 10\n.e\n"
        mgr, specs = parse_pla(text).to_isfs()
        assert specs["y1"].on.is_false()
        assert specs["y1"].off.is_true()


class TestWriter:
    @settings(max_examples=25, deadline=None)
    @given(isf_strategy(3), isf_strategy(3))
    def test_roundtrip_preserves_intervals(self, pair1, pair2):
        mgr = make_mgr(3)
        specs = {
            "u": build_isf(mgr, [0, 1, 2], *pair1),
            "v": build_isf(mgr, [0, 1, 2], *pair2),
        }
        text = write_pla(specs, ["x0", "x1", "x2"])
        _mgr2, specs2 = parse_pla(text).to_isfs(mgr=mgr)
        assert specs2["u"] == specs["u"]
        assert specs2["v"] == specs["v"]

    def test_writer_emits_fd_format(self):
        mgr = BDD(["a", "b"])
        specs = {"y": build_isf(mgr, [0, 1], 0b1000, 0b0011)}
        text = write_pla(specs, ["a", "b"])
        assert ".type fd" in text
        assert ".ilb a b" in text
        assert text.rstrip().endswith(".e")
        # .p must match the number of cube lines.
        lines = [line for line in text.splitlines()
                 if line and not line.startswith(".")]
        count = int([l for l in text.splitlines()
                     if l.startswith(".p")][0].split()[1])
        assert len(lines) == count

    def test_write_to_file(self, tmp_path):
        mgr = BDD(["a"])
        specs = {"y": build_isf(mgr, [0], 0b10, 0b01)}
        path = tmp_path / "out.pla"
        write_pla(specs, ["a"], path=str(path))
        data = read_pla(str(path))
        assert data.num_inputs == 1

    def test_empty_specs_rejected(self):
        with pytest.raises(PLAError):
            write_pla({}, [])


class TestPLAData:
    def test_add_cube_validation(self):
        data = PLAData(2, 1)
        with pytest.raises(PLAError):
            data.add_cube("1", "1")
        with pytest.raises(PLAError):
            data.add_cube("11", "12")
        data.add_cube("1-", "1")
        assert data.cubes == [("1-", "1")]

    def test_make_manager(self):
        data = PLAData(2, 1, input_names=["p", "q"])
        mgr = data.make_manager()
        assert mgr.var_names == ("p", "q")
