"""Repo-level checks of the six seam rules in repro.analysis.repolint.

The seam rules (manager-seam, process-boundary, certifier-independence,
node-encoding, bare-assert, stage-registry) are checked case by case in
tests/test_repolint.py.  These tests pin the whole-repo guarantees: the
rules are registered, the two boundary modules they guard stay clean,
and findings print as clickable ``path:line`` anchors.
"""

import io
from pathlib import Path

from repro.analysis.repolint import REPO_RULES, run_repolint
from repro.analysis.repolint.framework import RepolintReport
from repro.analysis.rules import Finding, Severity
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

SEAM_RULES = ("manager-seam", "process-boundary", "certifier-independence",
              "node-encoding", "bare-assert", "stage-registry")


def _findings_in(rel, rule_id):
    """Active *rule_id* findings in *rel* from a scan of src/repro."""
    report = run_repolint(paths=[REPO_ROOT / "src" / "repro"],
                          root=REPO_ROOT, rules=[rule_id])
    return [f for f in report.findings if f.path == rel]


class TestRepoIsClean:
    def test_default_paths_pass(self):
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(REPO_ROOT)], stdout=out)
        assert code == 0
        assert "0 finding(s)" in out.getvalue()
        assert set(SEAM_RULES) <= set(REPO_RULES)


class TestProcessBoundary:
    def test_real_parallel_module_is_clean(self):
        assert not _findings_in("src/repro/pipeline/parallel.py",
                                "process-boundary")


class TestCertifierIndependence:
    def test_real_certifier_module_is_clean(self):
        assert not _findings_in("src/repro/analysis/certify.py",
                                "certifier-independence")

    def test_rule_is_registered(self):
        rule = REPO_RULES["certifier-independence"]
        assert rule.severity == Severity.ERROR
        assert rule.scope == "project"


class TestNodeEncoding:
    def test_rule_is_registered(self):
        rule = REPO_RULES["node-encoding"]
        assert rule.severity == Severity.ERROR
        assert rule.scope == "file"


class TestDriver:
    def test_main_reports_findings_for_repo_file(self):
        # Run selfcheck over a single known-clean repo file: exit 0.
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(REPO_ROOT),
                         str(REPO_ROOT / "src" / "repro" / "cli.py")],
                        stdout=out)
        assert code == 0
        assert "over 1 file(s)" in out.getvalue()

    def test_finding_str_is_clickable(self):
        finding = Finding("bare-assert", Severity.ERROR, "msg",
                          path="src/repro/x.py", line=3)
        text = RepolintReport([finding]).format_text()
        assert text.startswith("src/repro/x.py:3: [bare-assert] error: msg")
