"""Tests for repro.analysis.repolint (the ``repro selfcheck`` analyzer).

Covers the rule framework (registry, suppressions, baseline, SARIF),
the transitive import graph, the determinism/purity rule family, the
mutation canaries from the issue, and the regression tests for the
true positives the analyzer found in the engine.
"""

import ast
import io
import json
from pathlib import Path

import pytest

from repro.analysis.repolint import (REPO_RULES, BaselineError,
                                     ImportGraph, apply_baseline,
                                     direct_imports, iteration_sites,
                                     load_baseline, make_baseline,
                                     module_name_for, parse_suppressions,
                                     run_repolint, save_baseline,
                                     to_sarif, LISTDIR_KIND, SET_KIND)
from repro.analysis.rules import Severity
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _scan(tmp_path, files, rules=None, baseline=None):
    """Write *files* (rel -> source) under tmp_path and run repolint."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return run_repolint(paths=[tmp_path / rel for rel in files],
                        root=tmp_path, rules=rules, baseline=baseline)


def _rules_of(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------
# The repo itself
# ---------------------------------------------------------------------
class TestRepoIsClean:
    def test_full_rule_set_over_src_and_tools(self):
        report = run_repolint(root=REPO_ROOT)
        assert report.findings == []
        assert report.files_checked > 50
        # Six ported seam rules plus the determinism family plus the
        # int-kind abstract-interpretation family.
        assert set(report.rules_run) >= {
            "manager-seam", "process-boundary", "certifier-independence",
            "node-encoding", "bare-assert", "stage-registry",
            "set-iteration", "listdir-order", "impure-import",
            "env-read", "id-order", "pickle-safety", "cache-attr-name",
            "intkind-subscript", "intkind-complement", "intkind-mix",
            "intkind-call", "intkind-memo-key"}

    def test_stage_registry_parses_the_runtime_constant(self):
        from repro.analysis.repolint.framework import registered_stage_names
        from repro.pipeline import STAGE_NAMES
        assert registered_stage_names(REPO_ROOT) == set(STAGE_NAMES)

    def test_certifier_independence_holds_without_suppressions(self):
        # The certifier reaches only neutral layers, with no waiver:
        # zero findings, zero suppressed findings, and no suppression
        # comment for the rule anywhere in the source tree.
        report = run_repolint(root=REPO_ROOT)
        for found in (report.findings, report.suppressed):
            assert not [f for f in found
                        if f.rule == "certifier-independence"]
        waivers = [(path, supp.line)
                   for path in sorted((REPO_ROOT / "src").rglob("*.py"))
                   for supp in parse_suppressions(path.read_text())
                   if "certifier-independence" in supp.rules]
        assert waivers == []

    def test_committed_baseline_loads_and_applies(self):
        doc = load_baseline(REPO_ROOT / "tools" / "repolint-baseline.json")
        report = run_repolint(root=REPO_ROOT, baseline=doc)
        assert report.findings == []
        assert not any(f.rule == "stale-baseline" for f in report.findings)


# ---------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------
class TestFramework:
    def test_registry_has_meta_rules(self):
        for rule_id in ("parse-error", "suppression-missing-justification",
                        "suppression-unknown-rule", "suppression-unused",
                        "stale-baseline"):
            assert REPO_RULES[rule_id].scope == "meta"

    def test_duplicate_rule_id_rejected(self):
        from repro.analysis.repolint.framework import repo_rule
        with pytest.raises(ValueError, match="duplicate"):
            repo_rule("bare-assert", Severity.ERROR)(lambda ctx: ())

    def test_bad_severity_and_scope_rejected(self):
        from repro.analysis.repolint.framework import repo_rule
        with pytest.raises(ValueError, match="severity"):
            repo_rule("x-rule", "fatal")
        with pytest.raises(ValueError, match="scope"):
            repo_rule("x-rule", Severity.ERROR, scope="galaxy")

    def test_unknown_rule_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no-such-rule"):
            _scan(tmp_path, {"src/repro/a.py": "x = 1\n"},
                  rules=["no-such-rule"])

    def test_rule_selection_runs_only_named_rules(self, tmp_path):
        report = _scan(
            tmp_path,
            {"src/repro/a.py": "assert True\nfor x in {1, 2}:\n    x\n"},
            rules=["bare-assert"])
        assert list(report.rules_run) == ["bare-assert"]
        assert _rules_of(report) == ["bare-assert"]

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        report = _scan(tmp_path, {"src/repro/bad.py": "def broken(:\n",
                                  "src/repro/ok.py": "assert True\n"})
        assert "parse-error" in _rules_of(report)
        # The broken file did not mask the good file's findings.
        assert "bare-assert" in _rules_of(report)

    def test_findings_sorted_deterministically(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/b.py": "assert True\n",
            "src/repro/a.py": "assert True\nassert False\n"})
        keys = [(f.path, f.line) for f in report.findings]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------
# Import graph
# ---------------------------------------------------------------------
class TestImportGraph:
    def test_module_name_for(self):
        assert module_name_for("src/repro/bdd/manager.py") == \
            "repro.bdd.manager"
        assert module_name_for("src/repro/io/__init__.py") == "repro.io"
        assert module_name_for("tools/report.py") is None

    def test_direct_imports_from_spellings(self):
        tree = ast.parse("import os\nfrom repro.io import pla\n"
                         "from . import sibling\n")
        names = {name for _line, name in direct_imports(tree)}
        assert names == {"os", "repro.io", "repro.io.pla"}

    def test_resolve_longest_prefix(self):
        graph = ImportGraph({
            "src/repro/io/__init__.py": ast.parse(""),
            "src/repro/io/pla.py": ast.parse("")})
        assert graph.resolve("repro.io.pla") == "src/repro/io/pla.py"
        assert graph.resolve("repro.io.load_pla") == \
            "src/repro/io/__init__.py"
        assert graph.resolve("os") is None

    def test_walk_follows_chains_and_stops_at_gateways(self):
        trees = {
            "src/repro/a.py": ast.parse("import repro.b\n"),
            "src/repro/b.py": ast.parse("import repro.c\n"),
            "src/repro/c.py": ast.parse("import repro.bdd\n")}
        graph = ImportGraph(trees)
        reached = {name for _c, _l, name in graph.walk("src/repro/a.py")}
        assert "repro.bdd" in reached
        gated = {name for _c, _l, name in graph.walk(
            "src/repro/a.py", gateways=("src/repro/b.py",))}
        # b is reported but not expanded, so c's imports stay hidden.
        assert "repro.b" in gated
        assert "repro.bdd" not in gated


# ---------------------------------------------------------------------
# Dataflow walk + determinism rules
# ---------------------------------------------------------------------
class TestSetIteration:
    def _sites(self, source):
        return [s for s in iteration_sites(ast.parse(source))
                if s.kind == SET_KIND]

    def test_for_over_set_literal_flagged(self):
        assert self._sites("s = {1, 2}\nfor x in s:\n    x\n")

    def test_for_over_set_call_and_methods_flagged(self):
        assert self._sites("s = set(items)\nfor x in s:\n    x\n")
        assert self._sites("a = set(x)\nu = a.union(b)\n"
                           "for x in u:\n    x\n")
        assert self._sites("a = set(x)\nd = a - b\n"
                           "for x in d:\n    x\n")

    def test_sorted_iteration_passes(self):
        assert not self._sites("s = set(items)\nfor x in sorted(s):\n"
                               "    x\n")

    def test_membership_and_len_pass(self):
        assert not self._sites("s = set(items)\n"
                               "ok = 1 in s\nn = len(s)\n")

    def test_comprehension_over_set_flagged(self):
        assert self._sites("s = set(items)\nout = [x for x in s]\n")

    def test_set_comprehension_result_is_still_unordered_not_a_site(self):
        # {f(x) for x in s} stays a set: no order escapes.
        assert not self._sites("s = set(items)\n"
                               "t = {x + 1 for x in s}\n")

    def test_dict_comprehension_bakes_order_flagged(self):
        assert self._sites("s = set(items)\n"
                           "d = {x: 1 for x in s}\n")

    def test_order_safe_consumer_genexp_passes(self):
        assert not self._sites("s = set(items)\n"
                               "total = sum(x for x in s)\n"
                               "best = max(x for x in s)\n")

    def test_join_over_set_flagged(self):
        assert self._sites("s = set(items)\n"
                           "text = ', '.join(str(x) for x in s)\n")

    def test_rebinding_to_ordered_value_clears(self):
        assert not self._sites("s = set(items)\ns = sorted(s)\n"
                               "for x in s:\n    x\n")

    def test_rule_fires_through_scan(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/util.py":
                "def f(items):\n"
                "    bag = set(items)\n"
                "    return [x for x in bag]\n"},
            rules=["set-iteration"])
        assert _rules_of(report) == ["set-iteration"]
        assert report.findings[0].severity == Severity.WARNING


class TestListdirOrder:
    def _sites(self, source):
        return [s for s in iteration_sites(ast.parse(source))
                if s.kind == LISTDIR_KIND]

    def test_listdir_iteration_flagged(self):
        assert self._sites("import os\n"
                           "names = os.listdir(p)\n"
                           "for n in names:\n    n\n")

    def test_glob_and_iterdir_flagged(self):
        assert self._sites("import glob\n"
                           "for p in glob.glob('*.pla'):\n    p\n")
        assert self._sites("for p in root.iterdir():\n    p\n")

    def test_sorted_listing_passes(self):
        assert not self._sites("import os\n"
                               "for n in sorted(os.listdir(p)):\n"
                               "    n\n")


class TestHotPathPurity:
    def test_impure_import_flagged_in_hot_path_only(self, tmp_path):
        source = "import time\nfrom random import choice\n"
        hot = _scan(tmp_path, {"src/repro/bdd/x.py": source},
                    rules=["impure-import"])
        assert len(hot.findings) == 2
        cold = _scan(tmp_path, {"src/repro/pipeline/x.py": source},
                     rules=["impure-import"])
        assert not cold.findings

    def test_env_read_flagged_in_hot_path_only(self, tmp_path):
        source = ("import os\n"
                  "def f():\n"
                  "    return os.environ.get('X') or os.getenv('Y')\n")
        hot = _scan(tmp_path, {"src/repro/decomp/x.py": source},
                    rules=["env-read"])
        assert len(hot.findings) == 2
        cold = _scan(tmp_path, {"src/repro/bench/x.py": source},
                     rules=["env-read"])
        assert not cold.findings

    def test_id_call_flagged_unless_rebound(self, tmp_path):
        flagged = _scan(tmp_path, {
            "src/repro/bdd/x.py": "def f(mgr):\n    return id(mgr)\n"},
            rules=["id-order"])
        assert _rules_of(flagged) == ["id-order"]
        rebound = _scan(tmp_path, {
            "src/repro/bdd/y.py":
                "def f(id):\n    return id(3)\n"},
            rules=["id-order"])
        assert not rebound.findings


class TestCacheAttrName:
    """Manager-hosted memo state must use the _cache_ namespace that
    clear_caches() invalidates — covering the kernel's quantification
    walks, whose caches are attached dynamically."""

    def test_private_literal_attr_flagged_in_hot_path(self, tmp_path):
        source = ("def probe(mgr):\n"
                  "    memo = getattr(mgr, '_memo', None)\n"
                  "    if memo is None:\n"
                  "        setattr(mgr, '_memo', {})\n")
        report = _scan(tmp_path, {"src/repro/decomp/context.py": source},
                       rules=["cache-attr-name"])
        assert _rules_of(report) == ["cache-attr-name"] * 2

    def test_cache_prefixed_literal_passes(self, tmp_path):
        source = ("def probe(mgr):\n"
                  "    cache = getattr(mgr, '_cache_exists', None)\n"
                  "    if cache is None:\n"
                  "        setattr(mgr, '_cache_exists', {})\n")
        report = _scan(tmp_path, {"src/repro/bdd/quantify.py": source},
                       rules=["cache-attr-name"])
        assert not report.findings

    def test_variable_names_and_public_attrs_pass(self, tmp_path):
        source = ("def probe(mgr, name):\n"
                  "    getattr(mgr, name, None)\n"
                  "    setattr(mgr, name, {})\n"
                  "    return getattr(mgr, 'dormant_entries', None)\n")
        report = _scan(tmp_path, {"src/repro/bdd/x.py": source},
                       rules=["cache-attr-name"])
        assert not report.findings

    def test_rule_is_hot_path_scoped(self, tmp_path):
        source = "state = getattr(object(), '_hidden', None)\n"
        report = _scan(tmp_path, {"src/repro/pipeline/x.py": source},
                       rules=["cache-attr-name"])
        assert not report.findings


class TestPickleSafety:
    BOUNDARY = "src/repro/pipeline/parallel.py"

    def test_lambda_target_flagged(self, tmp_path):
        report = _scan(tmp_path, {
            self.BOUNDARY:
                "import multiprocessing as mp\n"
                "p = mp.Process(target=lambda: None)\n"},
            rules=["pickle-safety"])
        assert _rules_of(report) == ["pickle-safety"]
        assert report.findings[0].severity == Severity.ERROR

    def test_nested_def_target_flagged(self, tmp_path):
        report = _scan(tmp_path, {
            self.BOUNDARY:
                "import multiprocessing as mp\n"
                "def start():\n"
                "    def worker():\n        pass\n"
                "    return mp.Process(target=worker)\n"},
            rules=["pickle-safety"])
        assert _rules_of(report) == ["pickle-safety"]

    def test_module_level_target_passes(self, tmp_path):
        report = _scan(tmp_path, {
            self.BOUNDARY:
                "import multiprocessing as mp\n"
                "def worker():\n    pass\n"
                "def start():\n"
                "    return mp.Process(target=worker)\n"},
            rules=["pickle-safety"])
        assert not report.findings

    def test_lambda_queue_payload_flagged(self, tmp_path):
        report = _scan(tmp_path, {
            self.BOUNDARY: "def send(q):\n"
                           "    q.put(('job', lambda: 1))\n"},
            rules=["pickle-safety"])
        assert _rules_of(report) == ["pickle-safety"]

    def test_non_boundary_module_skipped(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/pipeline/other.py":
                "import multiprocessing as mp\n"
                "p = mp.Process(target=lambda: None)\n"},
            rules=["pickle-safety"])
        assert not report.findings


# ---------------------------------------------------------------------
# Transitive seam rules
# ---------------------------------------------------------------------
class TestTransitiveSeams:
    def test_certifier_indirect_engine_import_flagged(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/analysis/certify.py":
                "from repro.helpers import rebuild\n",
            "src/repro/helpers.py":
                "from repro.decomp import bi_decompose\n"},
            rules=["certifier-independence"])
        assert set(_rules_of(report)) == {"certifier-independence"}
        # Direct findings for the off-allowlist helper import, plus a
        # transitive finding whose chain names the route.
        chains = [f for f in report.findings
                  if "transitively" in f.message]
        assert chains and "repro/helpers.py" in chains[0].message

    def test_certifier_neutral_chain_passes(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/analysis/certify.py":
                "from repro.io import load_pla\n",
            "src/repro/io/__init__.py": "from repro.bdd import BDD\n"},
            rules=["certifier-independence"])
        assert not report.findings

    def test_process_boundary_indirect_live_bdd_flagged(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/pipeline/parallel.py":
                "from repro.pipeline.helpers import pack\n",
            "src/repro/pipeline/helpers.py":
                "from repro.bdd import BDD\n"},
            rules=["process-boundary"])
        assert set(_rules_of(report)) == {"process-boundary"}
        assert "helper" in report.findings[0].message

    def test_process_boundary_gateway_chain_passes(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/pipeline/parallel.py":
                "from repro.decomp.cache_store import merge_stores\n",
            "src/repro/decomp/cache_store.py":
                "from repro.bdd import BDD\n"},
            rules=["process-boundary"])
        assert not report.findings


_BDD_CALL = "from repro.bdd.manager import BDD\nmgr = BDD(['a'])\n"
_ARRAY = "def f(mgr, e):\n    return mgr.%s[e >> 1]\n"
_DECOMP = "src/repro/decomp/foo.py"
_PARALLEL = "src/repro/pipeline/parallel.py"
_CERTIFY = "src/repro/analysis/certify.py"
_STAGES = "src/repro/pipeline/foo.py"

#: ``(rules, rel, source, finding lines)``: one file's direct evidence
#: for the seam rules (comma-separated ids) and the exact lines flagged.
SEAM_CASES = [
    # Every manager construction spelling outside the factory layers;
    # the process-boundary module gets no construction rights either.
    ("manager-seam", _DECOMP, _BDD_CALL, [2]),
    ("manager-seam", _STAGES,
     "from repro.bdd import BDD\nmgr = BDD(['a'])\n", [2]),
    ("manager-seam", _DECOMP,
     "from repro.bdd import BDD as Manager\nmgr = Manager([])\n", [2]),
    ("manager-seam", _DECOMP,
     "import repro.bdd.manager\nmgr = repro.bdd.manager.BDD(['a'])\n",
     [2]),
    ("manager-seam", _PARALLEL, _BDD_CALL, [2]),
    ("manager-seam", "src/repro/bdd/foo.py", _BDD_CALL, []),
    ("manager-seam", "src/repro/io/foo.py", _BDD_CALL, []),
    ("manager-seam", "src/repro/bench/foo.py", _BDD_CALL, []),
    ("manager-seam", "src/repro/fsm/foo.py", _BDD_CALL, []),
    ("manager-seam", _DECOMP, "from repro.bdd.manager import BDD\n"
     "def f(mgr):\n    return isinstance(mgr, BDD)\n", []),
    ("manager-seam", "tools/foo.py", _BDD_CALL, []),
    ("process-boundary", _PARALLEL, "from repro.bdd import BDD\n", [1]),
    ("process-boundary", _PARALLEL, "from repro.bdd.manager import BDD\n",
     [1]),
    ("process-boundary", _PARALLEL, "import repro.bdd\n", [1]),
    ("process-boundary", _PARALLEL, "from repro.boolfn import ISF\n", [1]),
    ("process-boundary", _PARALLEL, "from repro import boolfn\n", [1]),
    ("process-boundary", _PARALLEL,
     "from repro.decomp.cache_store import merge_stores\n"
     "from repro.io import parse_pla\n"
     "from repro.pipeline.session import Session\n", []),
    ("process-boundary", "src/repro/pipeline/session.py",
     "from repro.bdd import BDD\n", []),
    ("certifier-independence", _CERTIFY,
     "from repro.decomp import BiDecompositionEngine\n", [1]),
    ("certifier-independence", _CERTIFY,
     "from repro.decomp.bidecomp import decompose\n", [1]),
    ("certifier-independence", _CERTIFY, "import repro.decomp.bidecomp\n",
     [1]),
    ("certifier-independence", _CERTIFY,
     "from repro.pipeline.session import Session\n", [1]),
    ("certifier-independence", _CERTIFY, "from repro import decomp\n", [1]),
    ("certifier-independence", _CERTIFY, "import repro.pipeline\n", [1]),
    ("certifier-independence", _CERTIFY,
     "import json\nfrom repro.bdd import exists, pick_minterm\n"
     "from repro.bdd.function import Function\n"
     "from repro.io import load_pla, parse_blif\n"
     "from repro.io.cert import load_cert\n"
     "from repro.network import output_functions\n", []),
    ("certifier-independence", "src/repro/analysis/contracts.py",
     "from repro.decomp import OR_GATE\n", []),
    ("node-encoding", _DECOMP, _ARRAY % "_lo", [2]),
    ("node-encoding", _DECOMP, _ARRAY % "_hi", [2]),
    ("node-encoding", _DECOMP, _ARRAY % "_level", [2]),
    ("node-encoding", _DECOMP, _ARRAY % "_unique", [2]),
    ("node-encoding", _DECOMP, "def neg(f):\n    return f ^ 1\n", [2]),
    ("node-encoding", _DECOMP, "def neg(f):\n    return 1 ^ f\n", [2]),
    ("node-encoding", "src/repro/bdd/foo.py",
     "def neg(mgr, f):\n    return (f ^ 1, mgr._lo[f >> 1])\n", []),
    ("node-encoding", _DECOMP,
     "def f(mgr, e):\n    return mgr.not_(mgr.low(e)), mgr.level(e)\n",
     []),
    ("node-encoding", "src/repro/boolfn/foo.py",
     "def bit(i, k):\n    return (i >> k) & 1\n", []),
    ("node-encoding", _DECOMP, "def f(x):\n    return x ^ 3\n", []),
    ("node-encoding", "tools/foo.py", "x = y ^ 1\n", []),
    ("bare-assert", _DECOMP, "def f(x):\n    assert x > 0\n", [2]),
    ("bare-assert", _DECOMP,
     "def f(x):\n    if x <= 0:\n        raise ValueError('x')\n", []),
    ("bare-assert", "src/repro/test_foo.py", "assert True\n", []),
    ("bare-assert", "tools/foo.py", "assert True\n", []),
    # Against the STAGE_NAMES = ('parse', 'decompose') of the scan.
    ("stage-registry", _STAGES,
     "stages = [('parse', stage_parse), ('bogus', stage_bogus)]\n", [1]),
    ("stage-registry", _STAGES, "def run(session):\n"
     "    with session.stage('bogus'):\n        pass\n", [2]),
    ("stage-registry", _STAGES, "stages = [('parse', stage_parse)]\n"
     "def run(session):\n    with session.stage('decompose'):\n"
     "        pass\n", []),
    ("stage-registry", _STAGES, "pairs = [('bogus', handler), ('x', y)]\n",
     []),
    ("manager-seam,bare-assert", "src/repro/rogue.py",
     _BDD_CALL + "assert mgr\n", [2, 3]),
]


class TestSeamRules:
    @pytest.mark.parametrize(
        "rules,rel,source,expected", SEAM_CASES,
        ids=["%s-%d" % (case[0], index)
             for index, case in enumerate(SEAM_CASES)])
    def test_direct_evidence(self, tmp_path, rules, rel, source,
                             expected):
        rules = rules.split(",")
        report = _scan(tmp_path, {rel: source, "src/repro/pipeline/config.py":
                                  "STAGE_NAMES = ('parse', 'decompose')\n"},
                       rules=rules)
        found = [f for f in report.findings if f.path == rel]
        assert [f.line for f in found] == expected
        assert {f.rule for f in found} == (set(rules) if expected else set())


# ---------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------
class TestSuppressions:
    def test_parse_suppressions(self):
        found = parse_suppressions(
            "x = 1  # repolint: disable=set-iteration,id-order -- "
            "membership only\n")
        assert found[0].rules == ("set-iteration", "id-order")
        assert found[0].justification == "membership only"

    def test_justified_suppression_moves_finding_aside(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "assert True  # repolint: disable=bare-assert -- "
                "fixture invariant, not library code\n"})
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "bare-assert"
        assert "fixture invariant" in \
            report.suppressed[0].data["suppression"]

    def test_missing_justification_is_an_error(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "assert True  # repolint: disable=bare-assert\n"})
        rules = _rules_of(report)
        # The suppression is void: the finding stays active AND the
        # bare suppression itself is an error.
        assert rules == ["bare-assert",
                         "suppression-missing-justification"]

    def test_unknown_rule_in_suppression_warns(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "x = 1  # repolint: disable=not-a-rule -- why not\n"})
        assert _rules_of(report) == ["suppression-unknown-rule"]
        assert report.findings[0].severity == Severity.WARNING

    def test_unused_suppression_warns(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "x = 1  # repolint: disable=bare-assert -- nothing\n"})
        assert _rules_of(report) == ["suppression-unused"]

    def test_suppression_only_matches_its_own_line(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "x = 1  # repolint: disable=bare-assert -- wrong line\n"
                "assert True\n"})
        assert "bare-assert" in _rules_of(report)
        assert "suppression-unused" in _rules_of(report)


# ---------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------
class TestBaseline:
    def test_roundtrip(self, tmp_path):
        report = _scan(tmp_path, {"src/repro/a.py": "assert True\n"})
        doc = make_baseline(report.findings)
        path = tmp_path / "baseline.json"
        save_baseline(path, doc)
        assert load_baseline(path) == doc

    def test_baselined_findings_do_not_count(self, tmp_path):
        first = _scan(tmp_path, {"src/repro/a.py": "assert True\n"})
        doc = make_baseline(first.findings)
        again = _scan(tmp_path, {"src/repro/a.py": "assert True\n"},
                      baseline=doc)
        assert not again.findings
        assert len(again.baselined) == 1

    def test_stale_entry_is_an_error(self, tmp_path):
        first = _scan(tmp_path, {"src/repro/a.py": "assert True\n"})
        doc = make_baseline(first.findings)
        fixed = _scan(tmp_path, {"src/repro/a.py": "x = 1\n"},
                      baseline=doc)
        assert _rules_of(fixed) == ["stale-baseline"]
        assert fixed.findings[0].severity == Severity.ERROR

    def test_multiset_matching(self):
        first_findings = [
            f for f in [_mk("bare-assert", "src/repro/a.py", "m", 1),
                        _mk("bare-assert", "src/repro/a.py", "m", 2)]]
        doc = make_baseline(first_findings[:1])
        active, baselined = apply_baseline(first_findings, doc)
        # One entry absorbs exactly one of the two identical findings.
        assert len(baselined) == 1
        assert len(active) == 1

    def test_malformed_documents_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(path)
        path.write_text(json.dumps(
            {"format": "repro-repolint-baseline", "version": 99,
             "entries": []}))
        with pytest.raises(BaselineError, match="version"):
            load_baseline(path)
        path.write_text(json.dumps(
            {"format": "repro-repolint-baseline", "version": True,
             "entries": []}))
        with pytest.raises(BaselineError, match="version"):
            load_baseline(path)
        path.write_text(json.dumps(
            {"format": "repro-repolint-baseline", "version": 1,
             "entries": [{"rule": "x"}]}))
        with pytest.raises(BaselineError, match="malformed"):
            load_baseline(path)
        with pytest.raises(BaselineError, match="cannot read"):
            load_baseline(tmp_path / "missing.json")


def _mk(rule, path, message, line):
    from repro.analysis.rules import Finding
    return Finding(rule, Severity.ERROR, message, path=path, line=line)


# ---------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------
class TestSarif:
    def test_document_shape(self, tmp_path):
        report = _scan(tmp_path, {"src/repro/a.py": "assert True\n"})
        doc = to_sarif(report)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-repolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"bare-assert", "set-iteration",
                "certifier-independence"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "bare-assert"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/a.py"
        assert location["region"]["startLine"] == 1

    def test_suppressed_and_baselined_marked(self, tmp_path):
        report = _scan(tmp_path, {
            "src/repro/a.py":
                "assert True  # repolint: disable=bare-assert -- ok\n"})
        doc = to_sarif(report)
        results = doc["runs"][0]["results"]
        assert [r["suppressions"] for r in results] == \
            [[{"kind": "inSource"}]]

    def test_info_severity_maps_to_note_level(self):
        from repro.analysis.repolint.sarif import _LEVELS
        assert _LEVELS["info"] == "note"


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestSelfcheckCli:
    def test_repo_passes_at_warning(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(REPO_ROOT),
                         str(REPO_ROOT / "src" / "repro"),
                         str(REPO_ROOT / "tools"),
                         "--fail-on", "warning"], stdout=out)
        assert code == 0
        assert "0 finding(s)" in out.getvalue()

    def test_json_and_sarif_written(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "a.py").write_text("assert 1\n")
        out = io.StringIO()
        json_path = tmp_path / "report.json"
        sarif_path = tmp_path / "report.sarif"
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"),
                         "--json", str(json_path),
                         "--sarif", str(sarif_path)], stdout=out)
        assert code == 1
        # Text findings are clickable path:line anchors.
        assert out.getvalue().startswith("src/repro/a.py:1: [bare-assert]")
        report = json.loads(json_path.read_text())
        assert report["summary"]["errors"] == 1
        sarif = json.loads(sarif_path.read_text())
        assert sarif["version"] == "2.1.0"

    def test_fail_on_never_always_exits_zero(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "a.py").write_text("assert 1\n")
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"), "--fail-on", "never"],
                        stdout=out)
        assert code == 0

    def test_write_baseline_then_clean(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "a.py").write_text("assert 1\n")
        baseline = tmp_path / "baseline.json"
        out = io.StringIO()
        assert cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"),
                         "--baseline", str(baseline),
                         "--write-baseline"], stdout=out) == 0
        assert cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"),
                         "--baseline", str(baseline)], stdout=out) == 0

    def test_write_baseline_requires_path(self, tmp_path, capsys):
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         "--write-baseline"], stdout=out)
        assert code == 2

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(REPO_ROOT),
                         str(REPO_ROOT / "tools"),
                         "--baseline", str(bad)], stdout=out)
        assert code == 2


# ---------------------------------------------------------------------
# Mutation canaries (the issue's satellite 2)
# ---------------------------------------------------------------------
class TestMutationCanaries:
    def test_seeded_set_iteration_bug_in_certifier_is_caught(
            self, tmp_path):
        source = (REPO_ROOT / "src" / "repro" / "analysis"
                  / "certify.py").read_text()
        source += ("\n\ndef _canary_collect(items):\n"
                   "    bag = set(items)\n"
                   "    out = []\n"
                   "    for item in bag:\n"
                   "        out.append(item)\n"
                   "    return out\n")
        target = tmp_path / "src" / "repro" / "analysis" / "certify.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"),
                         "--fail-on", "warning"], stdout=out)
        assert code == 1
        assert "set-iteration" in out.getvalue()
        assert "bag" in out.getvalue()

    def test_sneaky_indirect_bdd_import_in_parallel_is_caught(
            self, tmp_path):
        source = (REPO_ROOT / "src" / "repro" / "pipeline"
                  / "parallel.py").read_text()
        source += "\nfrom repro.pipeline.sneaky import helper_fn\n"
        root = tmp_path / "src" / "repro" / "pipeline"
        root.mkdir(parents=True)
        (root / "parallel.py").write_text(source)
        (root / "sneaky.py").write_text(
            "import repro.bdd\n\n\ndef helper_fn():\n    return None\n")
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src")], stdout=out)
        assert code == 1
        text = out.getvalue()
        assert "process-boundary" in text
        assert "sneaky" in text

    def test_unmodified_copies_stay_clean(self, tmp_path):
        # Control: the same scan over unmodified copies raises neither
        # canary, so the catches above are the mutations' doing.
        root = tmp_path / "src" / "repro" / "pipeline"
        root.mkdir(parents=True)
        (root / "parallel.py").write_text(
            (REPO_ROOT / "src" / "repro" / "pipeline"
             / "parallel.py").read_text())
        report = run_repolint(paths=[tmp_path / "src"], root=tmp_path,
                              rules=["process-boundary",
                                     "set-iteration"])
        assert not report.findings


# ---------------------------------------------------------------------
# Regression tests for the true positives the analyzer found
# (the issue's satellite 1)
# ---------------------------------------------------------------------
class TestEngineFixes:
    def test_function_hash_is_allocator_independent(self):
        from repro.bdd import BDD
        mgr = BDD(["a", "b"])
        a, b = mgr.fn_vars()
        f = a & b
        # hash() depends only on the packed node, never on id(mgr), so
        # hash order of Function sets cannot vary across processes.
        assert hash(f) == hash(f.node)
        seen = {f: "ab"}
        assert seen[b & a] == "ab"

    def test_validate_specs_mixed_manager_message_is_deterministic(self):
        from repro.bdd import BDD
        from repro.decomp.driver import validate_specs
        mgr1 = BDD(["a", "b"])
        mgr2 = BDD(["a", "b"])
        a1, b1 = mgr1.fn_vars()
        a2, _b2 = mgr2.fn_vars()
        specs = {"f": a1 & b1, "g": a2, "h": a1 | b1}
        with pytest.raises(ValueError) as err:
            validate_specs(specs)
        # Groups follow spec insertion order, not id() hash order.
        assert "[f, h]; [g]" in str(err.value)

    def test_validate_specs_single_manager_passes(self):
        from repro.bdd import BDD
        from repro.decomp.driver import validate_specs
        mgr = BDD(["a", "b"])
        a, b = mgr.fn_vars()
        out_mgr, specs = validate_specs({"f": a, "g": a & b})
        assert out_mgr is mgr
        assert sorted(specs) == ["f", "g"]

    def test_mv_gate_counts_key_order_is_deterministic(self):
        from repro.mvlogic.netlist import MVNetlist
        nl = MVNetlist((3, 3), 3)
        lit_a = nl.literal(0, (0, 1, 2))
        lit_b = nl.literal(1, (2, 1, 0))
        nl.set_output("f", nl.add_min(lit_a, lit_b))
        counts = nl.gate_counts()
        # Iteration over the live set is sorted by node id now, so the
        # dict's key order is a pure function of the netlist.
        assert list(counts) == ["LITERAL", "MIN"]
