"""Static-analysis layer: netlist linter and theorem-contract checker.

* :func:`lint_netlist` — rule engine over :class:`repro.network.Netlist`
  producing typed :class:`Finding`\\ s with severities and a
  machine-readable report (``repro lint`` on the CLI);
* :class:`CheckedDecompositionEngine` — sanitizer asserting the paper's
  Theorem 1/2/3/4/6 certificates at every recursion step (CLI
  ``--check``, ``PipelineConfig(check_contracts=True)``);
* :func:`certify` / :func:`certify_file` — independent offline
  certifier replaying decomposition certificate traces in a fresh
  manager (``repro certify`` on the CLI); imports no engine or
  pipeline code, enforced by the ``certifier-independence`` rule of
  ``repro selfcheck``;
* :mod:`repro.analysis.repolint` — the repo-discipline static analyzer
  behind ``repro selfcheck``: a typed rule-plugin framework with a
  transitive import graph and a per-function dataflow walk, covering
  the six architectural seam invariants plus determinism/purity rules
  for the certified hot paths.

See docs/ANALYSIS.md for the rule and contract catalogue with paper
references.
"""

from repro.analysis.rules import (RULES, Finding, LintReport, LintRule,
                                  Severity, rule)
from repro.analysis.netlist_lint import LintContext, lint_netlist
from repro.analysis.contracts import (CONTRACTS, CheckedDecompositionEngine,
                                      ContractStats, ContractViolation)
from repro.analysis.certify import (CertificationFailure,
                                    CertificationReport, certify,
                                    certify_file)
from repro.analysis.repolint import (REPO_RULES, RepolintReport, RepoRule,
                                     load_project, repo_rule, run_repolint,
                                     to_sarif)

__all__ = [
    "RULES", "Finding", "LintReport", "LintRule", "Severity", "rule",
    "LintContext", "lint_netlist",
    "CONTRACTS", "CheckedDecompositionEngine", "ContractStats",
    "ContractViolation",
    "CertificationFailure", "CertificationReport", "certify",
    "certify_file",
    "REPO_RULES", "RepoRule", "RepolintReport", "load_project",
    "repo_rule", "run_repolint", "to_sarif",
]
