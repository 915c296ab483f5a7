"""Tests for the BI-DECOMP command-line interface."""

import io
import json
import os

import pytest

from repro.cli import main

PLA = """\
.i 4
.o 2
.ilb a b c d
.ob f g
.type fd
.p 5
11-- 10
--11 11
00-- 01
1--1 -0
0-0- 01
.e
"""


@pytest.fixture
def pla_path(tmp_path):
    path = tmp_path / "in.pla"
    path.write_text(PLA)
    return str(path)


class TestDecompose:
    def test_writes_blif_to_stdout(self, pla_path):
        out = io.StringIO()
        assert main(["decompose", pla_path], stdout=out) == 0
        text = out.getvalue()
        assert text.startswith(".model bidecomp")
        assert ".outputs f g" in text

    def test_writes_blif_to_file_and_verify_roundtrip(self, pla_path,
                                                      tmp_path):
        blif_path = str(tmp_path / "out.blif")
        assert main(["decompose", pla_path, "-o", blif_path]) == 0
        out = io.StringIO()
        assert main(["verify", pla_path, blif_path], stdout=out) == 0
        assert "OK" in out.getvalue()

    def test_no_exor_flag(self, pla_path, tmp_path):
        blif_path = str(tmp_path / "out.blif")
        assert main(["decompose", pla_path, "-o", blif_path,
                     "--no-exor"]) == 0
        # A BLIF XOR cover row is '10 1' + '01 1' on a fresh line pair;
        # cheaper: re-verify then check stats via the stats command.
        out = io.StringIO()
        assert main(["stats", pla_path, "--no-exor"], stdout=out) == 0
        assert "exors=0" in out.getvalue()


PLA_SMALL = """\
.i 3
.o 1
.ilb p q r
.ob s
.type fd
.p 3
11- 1
--1 1
000 0
.e
"""


class TestDecomposeBatch:
    @pytest.fixture
    def batch_paths(self, tmp_path):
        paths = []
        for name, text in (("one", PLA), ("two", PLA_SMALL)):
            path = tmp_path / ("%s.pla" % name)
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_jobs_output_is_byte_identical_to_serial(self, batch_paths,
                                                     tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        assert main(["decompose"] + batch_paths
                    + ["--output-dir", serial_dir]) == 0
        assert main(["decompose"] + batch_paths
                    + ["--output-dir", parallel_dir, "--jobs", "2"]) == 0
        import os
        for name in ("one.blif", "two.blif"):
            serial = open(os.path.join(serial_dir, name)).read()
            parallel = open(os.path.join(parallel_dir, name)).read()
            assert serial == parallel
            assert serial.startswith(".model bidecomp")

    def test_batch_stats_json_document(self, batch_paths, tmp_path):
        import json
        stats = str(tmp_path / "batch.json")
        cache_dir = str(tmp_path / "cache")
        argv = (["decompose"] + batch_paths
                + ["--output-dir", str(tmp_path / "out"), "--jobs", "2",
                   "--cache-dir", cache_dir, "--stats-json", stats])
        assert main(argv) == 0
        doc = json.load(open(stats))
        assert doc["inputs"] == 2
        assert doc["jobs"] == 2
        assert doc["failures"] == 0
        assert doc["merged_store"].endswith("batch.cache.json")
        assert doc["merged_store_entries"] > 0
        assert doc["config"]["jobs"] == 2
        assert {run["worker"] for run in doc["runs"]} == {0, 1}
        # A warm rerun hits the merged store.
        warm = str(tmp_path / "warm.json")
        assert main(["decompose"] + batch_paths
                    + ["--output-dir", str(tmp_path / "out"),
                       "--jobs", "2", "--cache-dir", cache_dir,
                       "--stats-json", warm]) == 0
        assert json.load(open(warm))["rehydrated_hits"] > 0

    def test_blif_name_and_labels_share_one_stem(self, tmp_path):
        # On POSIX a backslash is part of the file name, not a separator.
        import json
        pla = tmp_path / "a\\b.pla"
        pla.write_text(PLA_SMALL)
        out_dir = tmp_path / "out"
        stats = tmp_path / "stats.json"
        assert main(["decompose", str(pla), "--output-dir", str(out_dir),
                     "--certificates", "--stats-json", str(stats)]) == 0
        assert sorted(os.listdir(out_dir)) == ["a\\b.blif",
                                               "a\\b.cert.json"]
        assert [run["label"] for run in json.load(open(stats))["runs"]] \
            == ["a\\b"]
        cert = json.load(open(out_dir / "a\\b.cert.json"))
        assert cert["label"] == "a\\b"

    def test_single_output_with_many_inputs_is_an_error(self,
                                                        batch_paths,
                                                        tmp_path):
        assert main(["decompose"] + batch_paths
                    + ["-o", str(tmp_path / "out.blif")]) == 2

    def test_inputs_sharing_a_stem_are_rejected(self, tmp_path, capsys):
        # x/a.pla and y/a.pla both map to out/a.blif (and a.cert.json):
        # the second would silently overwrite the first.
        paths = []
        for sub in ("x", "y"):
            (tmp_path / sub).mkdir()
            path = tmp_path / sub / "a.pla"
            path.write_text(PLA)
            paths.append(str(path))
        out_dir = tmp_path / "out"
        assert main(["decompose"] + paths
                    + ["--output-dir", str(out_dir), "--certificates"],
                    stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert paths[0] in err and paths[1] in err
        assert not out_dir.exists()

    def test_batch_without_output_dir_streams_to_stdout(self,
                                                        batch_paths):
        out = io.StringIO()
        assert main(["decompose"] + batch_paths, stdout=out) == 0
        assert out.getvalue().count(".model bidecomp") == 2


class TestSweepStore:
    def test_sweep_store_requires_cache_dir(self, pla_path):
        assert main(["decompose", pla_path, "--sweep-store",
                     "-o", os.devnull]) == 2

    def test_invocations_share_one_store_across_stems(self, tmp_path):
        import json
        # Same function under two different file stems: a per-stem
        # store could never carry components from one to the other, so
        # any second-pass hit proves the sweep store's stem-agnostic
        # keys.
        first = tmp_path / "one.pla"
        second = tmp_path / "renamed_copy.pla"
        first.write_text(PLA)
        second.write_text(PLA)
        cache_dir = str(tmp_path / "cache")
        stats = str(tmp_path / "s%d.json")
        for index, path in enumerate([first, second]):
            assert main(["decompose", str(path),
                         "-o", str(tmp_path / ("out%d.blif" % index)),
                         "--cache-dir", cache_dir, "--sweep-store",
                         "--stats-json", stats % index]) == 0
        assert os.path.exists(os.path.join(cache_dir,
                                           "sweep.cache.json"))
        cold = json.load(open(stats % 0))
        warm = json.load(open(stats % 1))
        assert cold["config"]["sweep_store"] is True
        assert cold["rehydrated_hits"] == 0
        assert warm["rehydrated_hits"] > 0

    def test_batch_sweep_store_overrides_batch_cache(self, tmp_path):
        import json
        paths = []
        for name, text in (("one", PLA), ("two", PLA_SMALL)):
            path = tmp_path / ("%s.pla" % name)
            path.write_text(text)
            paths.append(str(path))
        cache_dir = str(tmp_path / "cache")
        stats = str(tmp_path / "batch.json")
        assert main(["decompose"] + paths
                    + ["--output-dir", str(tmp_path / "out"),
                       "--jobs", "2", "--cache-dir", cache_dir,
                       "--sweep-store", "--stats-json", stats]) == 0
        doc = json.load(open(stats))
        assert doc["merged_store"].endswith("sweep.cache.json")
        assert doc["config"]["sweep_store"] is True


class TestBadInputExitCode:
    @pytest.mark.parametrize("argv", [
        ["decompose", "{missing}"],
        ["decompose", "{missing}", "{pla}", "--output-dir", "{out}"],
        ["decompose", "{dir}"],
        ["stats", "{missing}"],
        ["verify", "{pla}", "{missing}"],
        ["lint", "{missing}"],
        ["testability", "{missing}"],
        ["map", "{missing}"],
        ["fsm", "{missing}"],
        ["baseline", "{missing}"],
    ], ids=["decompose", "decompose-batch", "decompose-dir", "stats",
            "verify", "lint", "testability", "map", "fsm", "baseline"])
    def test_unreadable_input_is_one_error_line(self, argv, pla_path,
                                                tmp_path, capsys):
        paths = {"missing": str(tmp_path / "missing.pla"),
                 "dir": str(tmp_path / "adir"), "pla": pla_path,
                 "out": str(tmp_path / "out")}
        os.mkdir(paths["dir"])
        bad = paths["dir"] if "{dir}" in argv else paths["missing"]
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv, stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % bad), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("text", [
        ".i 2\n.o 2\n.ob f f\n11 11\n.e\n",
        ".i 2\n.o 2\n.ob f\n11 11\n.e\n",
        ".i 2\n.o 1\n.ilb a\n11 1\n.e\n",
        ".i 2\n.o 1\n.ilb a a\n11 1\n.e\n",
        ".i\n.o 1\n11 1\n.e\n",
        ".i 2\n.o 2\n.ilb a b\n.ob f b\n11 11\n.e\n",
    ], ids=["ob-duplicate", "ob-short", "ilb-short", "ilb-duplicate",
            "bare-i", "ob-is-ilb"])
    def test_malformed_pla_header_is_one_error_line(self, text, tmp_path,
                                                    capsys):
        path = tmp_path / "bad.pla"
        path.write_text(text)
        out = io.StringIO()
        assert main(["decompose", str(path)], stdout=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert err.count("\n") == 1, err
        assert out.getvalue() == ""

    @pytest.mark.parametrize("inputs, bad", [
        ("a b c d x4", "x4"),
        ("x0 x1 x2 x3", "x0"),
    ], ids=["extra-input", "other-names"])
    def test_blif_input_unknown_to_the_spec(self, inputs, bad, pla_path,
                                            tmp_path, capsys):
        blif = tmp_path / "bad.blif"
        blif.write_text(".model m\n.inputs %s\n.outputs f g\n"
                        ".names %s f\n1 1\n.names %s g\n1 1\n.end\n"
                        % (inputs, bad, bad))
        assert main(["verify", pla_path, str(blif)],
                    stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BLIF input %r " % bad), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("extra", [
        ".names c a\n1 1\n",
        ".names a z\n1 1\n.names b z\n1 1\n",
    ], ids=["drives-input", "drives-twice"])
    def test_blif_signal_with_two_drivers(self, extra, pla_path, tmp_path,
                                          capsys):
        # A .names table that drives a primary input, or a signal some
        # table already drives, is invalid BLIF: verify and lint reject
        # it as bad input, certify rejects the claim.
        blif = tmp_path / "in.blif"
        assert main(["decompose", pla_path, "-o", str(blif),
                     "--certificates"]) == 0
        blif.write_text(blif.read_text().replace(".end\n",
                                                 extra + ".end\n"))
        capsys.readouterr()
        for argv, code in (
                (["verify", pla_path, str(blif)], 2),
                (["lint", str(blif), "--spec", pla_path], 2),
                (["certify", pla_path, str(blif),
                  str(tmp_path / "in.cert.json")], 1)):
            assert main(argv, stdout=io.StringIO()) == code, argv
            err = capsys.readouterr().err
            assert err.startswith("error: "), err
            assert ".names drives " in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("size", ("0", "-3"))
    def test_weak_xa_size_below_one_rejected(self, pla_path, size, capsys):
        argv = ["decompose", pla_path, "--weak-xa-size", size]
        assert main(argv, stdout=io.StringIO()) == 2
        assert "weak_xa_size" in capsys.readouterr().err


class TestVerify:
    def test_detects_wrong_netlist(self, pla_path, tmp_path):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model bad\n.inputs a b c d\n.outputs f g\n"
                       ".names a f\n1 1\n.names b g\n1 1\n.end\n")
        out = io.StringIO()
        assert main(["verify", pla_path, str(bad)], stdout=out) == 1
        assert "FAIL" in out.getvalue()

    def test_detects_missing_output(self, pla_path, tmp_path):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model bad\n.inputs a b c d\n.outputs f\n"
                       ".names a f\n1 1\n.end\n")
        out = io.StringIO()
        assert main(["verify", pla_path, str(bad)], stdout=out) == 1
        assert "missing" in out.getvalue()


class TestOtherCommands:
    def test_stats(self, pla_path):
        out = io.StringIO()
        assert main(["stats", pla_path], stdout=out) == 0
        assert "gates=" in out.getvalue()

    def test_testability(self, pla_path):
        out = io.StringIO()
        assert main(["testability", pla_path], stdout=out) == 0
        assert "coverage=100.0%" in out.getvalue()

    def test_map(self, pla_path):
        out = io.StringIO()
        assert main(["map", pla_path], stdout=out) == 0
        assert "cells=" in out.getvalue()

    def test_baseline_sis_and_bds(self, pla_path):
        for flow in ("sis", "bds"):
            out = io.StringIO()
            assert main(["baseline", pla_path, "--flow", flow],
                        stdout=out) == 0
            assert "gates=" in out.getvalue()

    @pytest.mark.parametrize("flags", [
        ["--cache-dir", "{dir}"], ["--check"], ["--cache-readonly"],
        ["--sweep-store"], ["--budget-scope", "batch"],
    ], ids=["cache-dir", "check", "cache-readonly", "sweep-store",
            "budget-scope"])
    def test_baseline_rejects_engine_flags(self, pla_path, tmp_path,
                                           flags):
        # The sis/bds flows have no contracts, no component store and
        # one input: an engine flag would be silently ignored (or, for
        # --cache-dir, open and rewrite a store), so it is a usage error.
        store_dir = tmp_path / "d"
        argv = ["baseline", pla_path] + [f.format(dir=store_dir)
                                         for f in flags]
        with pytest.raises(SystemExit) as excinfo:
            main(argv, stdout=io.StringIO())
        assert excinfo.value.code == 2
        assert not store_dir.exists()

    @pytest.mark.parametrize("flags", [
        ["--factor"], ["--minimizer", "espresso"],
        ["--factor", "--minimizer", "espresso"],
    ], ids=["factor", "minimizer", "both"])
    def test_baseline_bds_rejects_sis_flags(self, pla_path, flags, capsys):
        # Each flow runs the one configuration its table uses, so the
        # factoring and minimizer knobs are gone: usage errors for the
        # BDS-like flow and the SIS-like flow alike.
        for flow in ("bds", "sis"):
            argv = ["baseline", pla_path, "--flow", flow] + flags
            with pytest.raises(SystemExit) as excinfo:
                main(argv, stdout=io.StringIO())
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flow", ["sis", "bds"])
    def test_baseline_with_no_outputs_exits_2(self, tmp_path, flow, capsys):
        # A PLA with `.o 0` parses to an empty spec dict: one error
        # line and exit 2, not a StopIteration traceback.
        pla = tmp_path / "zero.pla"
        pla.write_text(".i 2\n.o 0\n.e\n")
        assert main(["baseline", str(pla), "--flow", flow],
                    stdout=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_stats_keeps_the_store_label(self, pla_path, tmp_path):
        # stats has no --model: its store merge keeps the label that
        # decompose --model wrote.
        store_dir = str(tmp_path / "d")
        assert main(["decompose", pla_path, "--model", "foo",
                     "--cache-dir", store_dir],
                    stdout=io.StringIO()) == 0
        store = os.path.join(store_dir, "in.cache.json")
        assert json.load(open(store))["label"] == "foo"
        assert main(["stats", pla_path, "--cache-dir", store_dir],
                    stdout=io.StringIO()) == 0
        assert json.load(open(store))["label"] == "foo"

    def test_stats_rejects_budget_scope(self, pla_path):
        # stats runs one input, so a batch-wide clock means nothing.
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", pla_path, "--budget-scope", "batch"],
                 stdout=io.StringIO())
        assert excinfo.value.code == 2

    def test_fsm_command(self, tmp_path):
        kiss = tmp_path / "m.kiss2"
        kiss.write_text(".i 1\n.o 1\n.r A\n0 A A 0\n1 A B 0\n"
                        "0 B A 0\n1 B B 1\n.e\n")
        out = io.StringIO()
        blif_path = str(tmp_path / "m.blif")
        assert main(["fsm", str(kiss), "-o", blif_path],
                    stdout=out) == 0
        assert "states=2" in out.getvalue()
        assert "gates=" in out.getvalue()
        assert ".model fsm" in open(blif_path).read()
        # one-hot + no-DC ablation paths run too.
        out2 = io.StringIO()
        assert main(["fsm", str(kiss), "--encoding", "onehot",
                     "--no-dont-cares"], stdout=out2) == 0

    def test_module_invocation(self, pla_path):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "stats", pla_path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gates=" in proc.stdout
