"""Tests for the experiment harness (table regeneration paths)."""

import io

import pytest

from repro.harness import (main, print_generic, print_table2, print_table3,
                           run_cache_ablation, run_integrated_atpg,
                           run_strong_weak_ablation, run_table2,
                           run_table3, run_testability,
                           run_tuning_ablation)

TINY2 = ("9sym", "misex1")
TINY3 = ("rd53", "t481")


class TestTable2:
    def test_rows_have_expected_shape(self):
        rows = run_table2(TINY2)
        assert [row["name"] for row in rows] == list(TINY2)
        for row in rows:
            for flow in ("sis", "bidecomp"):
                for key in ("gates", "exors", "area", "cascades",
                            "delay", "time"):
                    assert key in row[flow]
            assert row["decomp_stats"]["calls"] > 0

    def test_sis_like_never_uses_exors(self):
        rows = run_table2(TINY2)
        for row in rows:
            assert row["sis"]["exors"] == 0

    def test_bidecomp_beats_sis_on_9sym(self):
        # The paper's headline: BI-DECOMP wins area AND delay on the
        # symmetric benchmark against the SOP-mapped flow.
        row = run_table2(("9sym",))[0]
        assert row["bidecomp"]["area"] < row["sis"]["area"]
        assert row["bidecomp"]["gates"] < row["sis"]["gates"]
        assert row["bidecomp"]["exors"] > 0

    def test_printer_formats_all_rows(self):
        rows = run_table2(TINY2)
        out = io.StringIO()
        print_table2(rows, stream=out)
        text = out.getvalue()
        for name in TINY2:
            assert name in text


class TestTable3:
    def test_rows_and_printer(self):
        rows = run_table3(TINY3)
        out = io.StringIO()
        print_table3(rows, stream=out)
        text = out.getvalue()
        for name in TINY3:
            assert name in text

    def test_bidecomp_beats_bds_on_t481(self):
        row = [r for r in run_table3(("t481",))][0]
        assert row["bidecomp"]["gates"] <= row["bds"]["gates"]


class TestTestabilityExperiment:
    def test_decompositions_fully_testable(self):
        rows = run_testability(("rd53", "t481"))
        for row in rows:
            assert row["fully_testable"], row
            assert row["coverage"] == 1.0


class TestAblations:
    def test_cache_ablation_reports_reuse(self):
        rows = run_cache_ablation(("rd53", "9sym"))
        for row in rows:
            assert 0 <= row["reuse_rate"] <= 1
            # The cache never makes the netlist bigger.
            assert row["with"]["gates"] <= row["without"]["gates"]
        # On these benchmarks reuse actually happens.
        assert any(row["reuse_rate"] > 0 for row in rows)

    def test_strong_weak_ablation_shape(self):
        rows = run_strong_weak_ablation(("9sym",))
        row = rows[0]
        # Weak-only (the conjectured BDS behaviour) must not beat the
        # full algorithm on a symmetric function.
        assert row["full"]["area"] <= row["weak_only"]["area"]
        # Disabling EXOR hurts area on 9sym (EXOR-intensive).
        assert row["full"]["area"] <= row["no_exor"]["area"]

    def test_tuning_ablation(self):
        rows = run_tuning_ablation(("rd53",))
        row = rows[0]
        assert set(row) == {"name", "base", "refined_grouping"}
        for key in ("base", "refined_grouping"):
            assert row[key]["gates"] > 0
        # Section 5's verdict: the refinement moves area only slightly.
        assert abs(row["refined_grouping"]["area"] - row["base"]["area"]) \
            <= 0.25 * row["base"]["area"] + 10

    def test_integrated_atpg_rows(self):
        rows = run_integrated_atpg(("rd53",))
        row = rows[0]
        assert row["redundant"] == 0
        assert 0.0 <= row["seed_rate"] <= 1.0
        assert row["patterns"] > 0

    def test_generic_printer(self):
        rows = run_cache_ablation(("rd53",))
        out = io.StringIO()
        print_generic(rows, ("with", "without", "reuse_rate"), stream=out)
        assert "rd53" in out.getvalue()


class TestCli:
    def test_quick_table3_runs(self, capsys):
        assert main(["table3", "--quick", "--no-verify"]) == 0
        captured = capsys.readouterr()
        assert "Table 3" in captured.out
        assert "9sym" in captured.out
