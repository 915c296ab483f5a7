"""Tests for the netlist linter (repro.analysis)."""

import io
import json

import pytest

from repro.analysis import Severity, lint_netlist
from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.cli import main
from repro.decomp import bi_decompose
from repro.io import parse_blif_netlist, write_blif
from repro.network import Netlist


def _clean_netlist():
    nl = Netlist(["a", "b", "c"])
    a, b, c = nl.inputs
    nl.set_output("f", nl.add_or(nl.add_and(a, b), nl.add_not(c)))
    return nl


def _findings(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


class TestCleanNetlists:
    def test_builder_output_is_clean(self):
        report = lint_netlist(_clean_netlist())
        assert not report.findings
        assert report.summary()["clean"] is True

    def test_decomposed_benchmark_is_clean(self):
        from repro.bench.registry import get
        mgr, specs = get("9sym").build()
        result = bi_decompose(specs, verify=True)
        report = lint_netlist(result.netlist, specs=specs)
        assert not report.errors(), [str(f) for f in report.errors()]

    def test_blif_round_trip_stays_clean(self):
        nl = _clean_netlist()
        raw = parse_blif_netlist(write_blif(nl))
        report = lint_netlist(raw)
        assert not report.errors()
        assert not report.warnings()


class TestErrorRules:
    def test_unknown_gate(self):
        nl = _clean_netlist()
        nl.types[4] = "FROB"
        report = lint_netlist(nl)
        assert _findings(report, "unknown-gate")
        assert report.has_errors()

    def test_bad_arity(self):
        nl = _clean_netlist()
        node = nl.add_raw_gate("AND", (nl.inputs[0], nl.inputs[1]))
        nl.fanins[node] = (nl.inputs[0],)
        nl.set_output("g", node)
        report = lint_netlist(nl)
        assert _findings(report, "bad-arity")

    def test_topology_violation(self):
        nl = _clean_netlist()
        late = nl.add_raw_gate("AND", (nl.inputs[0], nl.inputs[1]))
        nl.set_output("g", late)
        # Rewire an earlier gate to read the later id: breaks the
        # topological-id invariant (node 3 is AND(a, b) in the fixture).
        nl.fanins[3] = (late, nl.inputs[1])
        report = lint_netlist(nl)
        assert _findings(report, "topology")

    def test_undriven_output(self):
        nl = _clean_netlist()
        nl.outputs.append(("ghost", nl.num_nodes() + 5))
        report = lint_netlist(nl)
        assert _findings(report, "undriven-output")

    def test_support_mismatch(self):
        nl = _clean_netlist()
        mgr = BDD(["a", "b", "c"])
        # Spec depends on a,b only; the netlist cone also reads c.
        spec = ISF.from_csf(parse(mgr, "a & b"))
        report = lint_netlist(nl, specs={"f": spec})
        found = _findings(report, "support-mismatch")
        assert found
        assert "c" in found[0].data["foreign_inputs"]

    def test_support_match_passes(self):
        nl = _clean_netlist()
        mgr = BDD(["a", "b", "c"])
        spec = ISF.from_csf(parse(mgr, "a & b | ~c"))
        report = lint_netlist(nl, specs={"f": spec})
        assert not _findings(report, "support-mismatch")

    def test_spec_names_missing_output(self):
        nl = _clean_netlist()
        mgr = BDD(["a", "b", "c"])
        spec = ISF.from_csf(parse(mgr, "a"))
        report = lint_netlist(nl, specs={"nope": spec})
        assert _findings(report, "support-mismatch")


class TestWarningRules:
    def test_dead_gate(self):
        nl = _clean_netlist()
        nl.add_raw_gate("OR", (nl.inputs[0], nl.inputs[2]))
        report = lint_netlist(nl)
        assert _findings(report, "dead-gate")

    def test_double_negation(self):
        nl = _clean_netlist()
        inner = nl.add_raw_gate("NOT", (nl.inputs[0],))
        outer = nl.add_raw_gate("NOT", (inner,))
        nl.set_output("g", outer)
        report = lint_netlist(nl)
        assert _findings(report, "double-negation")

    def test_const_foldable(self):
        nl = _clean_netlist()
        node = nl.add_raw_gate("AND", (nl.inputs[0], nl.constant(1)))
        nl.set_output("g", node)
        report = lint_netlist(nl)
        assert _findings(report, "const-foldable")

    def test_const_foldable_equal_fanins(self):
        nl = _clean_netlist()
        node = nl.add_raw_gate("XOR", (nl.inputs[0], nl.inputs[0]))
        nl.set_output("g", node)
        report = lint_netlist(nl)
        assert _findings(report, "const-foldable")

    def test_structural_duplicate(self):
        nl = _clean_netlist()
        a, b = nl.inputs[0], nl.inputs[1]
        first = nl.add_raw_gate("AND", (a, b))
        second = nl.add_raw_gate("AND", (b, a))  # commuted: still a dup
        nl.set_output("g", first)
        nl.set_output("h", second)
        report = lint_netlist(nl)
        assert _findings(report, "structural-duplicate")

    def test_functional_duplicate(self):
        nl = Netlist(["a", "b"])
        a, b = nl.inputs
        direct = nl.add_raw_gate("AND", (a, b))
        nand = nl.add_raw_gate("NAND", (a, b))
        rebuilt = nl.add_raw_gate("NOT", (nand,))
        nl.set_output("f", direct)
        nl.set_output("g", rebuilt)
        report = lint_netlist(nl)
        found = _findings(report, "functional-duplicate")
        assert found
        # Three inputs: exhaustive simulation, so the match is exact.
        assert found[0].data["exact"] is True

    def test_random_signatures_above_input_limit(self):
        names = ["x%d" % i for i in range(14)]
        nl = Netlist(names)
        acc = nl.inputs[0]
        for node in nl.inputs[1:]:
            acc = nl.add_xor(acc, node)
        nl.set_output("parity", acc)
        dup = nl.add_raw_gate("XOR", (nl.inputs[0], nl.inputs[1]))
        nl.set_output("d", dup)
        report = lint_netlist(nl)
        found = _findings(report, "functional-duplicate")
        assert found  # the planted duplicate of the first XOR
        assert found[0].data["exact"] is False


class TestInfoRules:
    def test_dangling_input(self):
        nl = Netlist(["a", "b"])
        nl.set_output("f", nl.inputs[0])
        report = lint_netlist(nl)
        found = _findings(report, "dangling-input")
        assert found and "b" in found[0].message

    def test_output_alias(self):
        nl = _clean_netlist()
        nl.set_output("f2", nl.output_node("f"))
        report = lint_netlist(nl)
        assert _findings(report, "output-alias")


class TestReportAndSelection:
    def test_rule_selection(self):
        nl = _clean_netlist()
        nl.add_raw_gate("OR", (nl.inputs[0], nl.inputs[2]))  # dead
        report = lint_netlist(nl, rules=["topology"])
        assert report.rules_run == ("topology",)
        assert not report.findings  # dead-gate rule not selected

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            lint_netlist(_clean_netlist(), rules=["no-such-rule"])

    def test_severity_threshold(self):
        nl = _clean_netlist()
        nl.add_raw_gate("OR", (nl.inputs[0], nl.inputs[2]))  # warning
        nl.set_output("f2", nl.output_node("f"))             # info
        report = lint_netlist(nl)
        assert not report.worst(Severity.ERROR)
        assert len(report.worst(Severity.WARNING)) == 1
        assert len(report.worst(Severity.INFO)) == 2

    def test_worst_validates_threshold_even_when_empty(self):
        from repro.analysis.rules import LintReport
        report = LintReport([])
        assert report.worst(Severity.ERROR) == []
        with pytest.raises(ValueError):
            report.worst("bogus")

    def test_report_serialises(self):
        nl = _clean_netlist()
        nl.types[4] = "FROB"
        report = lint_netlist(nl)
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["summary"]["errors"] >= 1
        assert any(f["rule"] == "unknown-gate" for f in doc["findings"])
        assert "unknown-gate" in report.format_text()

    def test_structurally_broken_netlist_skips_simulation(self):
        # An unknown gate type must not crash the simulation-backed
        # rules; they bail out and the structural errors are reported.
        nl = _clean_netlist()
        nl.types[4] = "FROB"
        report = lint_netlist(nl)
        assert report.has_errors()


PLA = """\
.i 3
.o 1
.ilb a b c
.ob f
.p 2
11- 1
--0 1
.e
"""


class TestLintCommand:
    @pytest.fixture
    def pla_path(self, tmp_path):
        path = tmp_path / "in.pla"
        path.write_text(PLA)
        return str(path)

    def test_clean_flow_exits_zero(self, pla_path, tmp_path):
        blif_path = str(tmp_path / "out.blif")
        assert main(["decompose", pla_path, "-o", blif_path]) == 0
        out = io.StringIO()
        assert main(["lint", blif_path, "--spec", pla_path],
                    stdout=out) == 0
        assert "0 error" in out.getvalue()

    def test_defective_blif_fails_threshold(self, tmp_path):
        blif = tmp_path / "bad.blif"
        blif.write_text("\n".join([
            ".model bad", ".inputs a b", ".outputs f",
            ".names a t1", "0 1",
            ".names t1 t2", "0 1",         # NOT(NOT(a)): double negation
            ".names t2 b f", "11 1",
            ".end", ""]))
        out = io.StringIO()
        # Warnings only: default --fail-on error still passes...
        assert main(["lint", str(blif)], stdout=out) == 0
        assert "double-negation" in out.getvalue()
        # ...but a warning threshold trips.
        assert main(["lint", str(blif), "--fail-on", "warning"],
                    stdout=io.StringIO()) == 1
        assert main(["lint", str(blif), "--fail-on", "never"],
                    stdout=io.StringIO()) == 0

    def test_unknown_fail_on_exits_two(self, pla_path, tmp_path):
        blif_path = str(tmp_path / "out.blif")
        assert main(["decompose", pla_path, "-o", blif_path]) == 0
        # argparse's choices guard the argv path with a usage error...
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", blif_path, "--fail-on", "bogus"],
                 stdout=io.StringIO())
        assert excinfo.value.code == 2
        # ...and cmd_lint validates eagerly for programmatic callers,
        # even though the report itself would be clean.
        import types
        from repro.cli import cmd_lint
        args = types.SimpleNamespace(netlist=blif_path, spec=None,
                                     fail_on="bogus", json=None)
        assert cmd_lint(args, io.StringIO()) == 2

    def test_json_report(self, pla_path, tmp_path):
        blif_path = str(tmp_path / "out.blif")
        assert main(["decompose", pla_path, "-o", blif_path]) == 0
        json_path = tmp_path / "lint.json"
        assert main(["lint", blif_path, "--json", str(json_path)],
                    stdout=io.StringIO()) == 0
        doc = json.loads(json_path.read_text())
        assert doc["summary"]["clean"] is True
        assert "rules_run" in doc

    def test_stats_json_embeds_lint_summary(self, pla_path, tmp_path):
        stats_path = tmp_path / "stats.json"
        assert main(["decompose", pla_path, "-o",
                     str(tmp_path / "out.blif"),
                     "--stats-json", str(stats_path)]) == 0
        doc = json.loads(stats_path.read_text())
        assert doc["lint"]["errors"] == 0
        assert doc["lint"]["clean"] is True


class TestLintSarif:
    """``repro lint --sarif`` reuses the repolint SARIF exporter."""

    DEFECTIVE = "\n".join([
        ".model bad", ".inputs a b", ".outputs f",
        ".names a t1", "0 1",
        ".names t1 t2", "0 1",         # NOT(NOT(a)): double negation
        ".names t2 b f", "11 1",
        ".end", ""])

    def test_sarif_file_round_trips(self, tmp_path):
        blif = tmp_path / "bad.blif"
        blif.write_text(self.DEFECTIVE)
        sarif_path = tmp_path / "lint.sarif"
        out = io.StringIO()
        assert main(["lint", str(blif), "--sarif", str(sarif_path),
                     "--fail-on", "never"], stdout=out) == 0
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-netlist-lint"
        # The full netlist rule catalogue is present, findings or not.
        from repro.analysis.rules import RULES
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == \
            set(RULES)
        # Netlist findings carry no source path of their own: they
        # anchor to the linted file and name their nodes in the
        # properties bag, so the artifact still locates every result.
        results = {r["ruleId"]: r for r in run["results"]}
        assert "double-negation" in results
        hit = results["double-negation"]
        uri = hit["locations"][0]["physicalLocation"]["artifactLocation"]
        assert uri["uri"] == str(blif)
        assert hit["properties"]["nodes"]
        # Levels agree with the registry's severities.
        for result in run["results"]:
            level = {"error": "error", "warning": "warning",
                     "info": "note"}[RULES[result["ruleId"]].severity]
            assert result["level"] == level

    def test_sarif_to_stdout(self, tmp_path):
        blif = tmp_path / "bad.blif"
        blif.write_text(self.DEFECTIVE)
        out = io.StringIO()
        assert main(["lint", str(blif), "--sarif", "-",
                     "--fail-on", "never"], stdout=out) == 0
        text = out.getvalue()
        doc = json.loads(text[text.index("{"):])
        assert doc["runs"][0]["tool"]["driver"]["name"] == \
            "repro-netlist-lint"

    def test_lint_and_selfcheck_emit_one_format(self, tmp_path):
        """Both analyzers produce the same SARIF skeleton."""
        blif = tmp_path / "ok.blif"
        blif.write_text("\n".join([
            ".model t", ".inputs a b", ".outputs f",
            ".names a b f", "11 1", ".end", ""]))
        lint_sarif = tmp_path / "lint.sarif"
        self_sarif = tmp_path / "self.sarif"
        assert main(["lint", str(blif), "--sarif", str(lint_sarif),
                     "--fail-on", "never"], stdout=io.StringIO()) == 0
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "a.py").write_text("x = 1\n")
        assert main(["selfcheck", "--root", str(tmp_path),
                     str(tmp_path / "src"),
                     "--sarif", str(self_sarif)],
                    stdout=io.StringIO()) == 0
        lint_doc = json.loads(lint_sarif.read_text())
        self_doc = json.loads(self_sarif.read_text())
        assert lint_doc["$schema"] == self_doc["$schema"]
        assert lint_doc["version"] == self_doc["version"]
        assert set(lint_doc["runs"][0]) == set(self_doc["runs"][0])
