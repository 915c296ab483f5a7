"""repolint — the repository's self-analysis rule framework.

``repro selfcheck`` runs every registered rule over ``src/`` and
``tools/``: the six seam invariants (with a transitive import graph),
the determinism/purity family built on a per-function dataflow walk,
and the int-kind discipline family built on an abstract interpretation
of the packed-edge BDD core.  See ``docs/ANALYSIS.md`` for the rule
catalogue.

Importing this package registers the full rule set as a side effect of
loading the three rule modules below.
"""

from repro.analysis.repolint.baseline import (BASELINE_FORMAT,
                                              BASELINE_VERSION,
                                              BaselineError, apply_baseline,
                                              load_baseline, make_baseline,
                                              save_baseline)
from repro.analysis.repolint.dataflow import (LISTDIR_KIND, SET_KIND,
                                              IterationSite, iteration_sites)
from repro.analysis.repolint.framework import (REPO_RULES, FileContext,
                                               Project, ProjectContext,
                                               RepolintReport, RepoRule,
                                               Suppression, SourceFile,
                                               is_test_path, iter_python_files,
                                               load_project,
                                               parse_suppressions,
                                               registered_stage_names,
                                               repo_rule, run_repolint)
from repro.analysis.repolint.imports import (ImportGraph, direct_imports,
                                             module_name_for)
from repro.analysis.repolint import rules_seams  # noqa: F401  (registers)
from repro.analysis.repolint import rules_determinism  # noqa: F401
from repro.analysis.repolint import rules_intkinds  # noqa: F401
from repro.analysis.repolint.intkinds import (IntKindAnalysis,
                                              analyze_project,
                                              in_intkind_scope)
from repro.analysis.repolint.sarif import (SARIF_SCHEMA, SARIF_VERSION,
                                           TOOL_NAME, to_sarif)

__all__ = [
    "BASELINE_FORMAT",
    "BASELINE_VERSION",
    "BaselineError",
    "FileContext",
    "ImportGraph",
    "IntKindAnalysis",
    "IterationSite",
    "LISTDIR_KIND",
    "Project",
    "ProjectContext",
    "REPO_RULES",
    "RepoRule",
    "RepolintReport",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "SET_KIND",
    "SourceFile",
    "Suppression",
    "TOOL_NAME",
    "analyze_project",
    "apply_baseline",
    "direct_imports",
    "in_intkind_scope",
    "is_test_path",
    "iter_python_files",
    "iteration_sites",
    "load_baseline",
    "load_project",
    "make_baseline",
    "module_name_for",
    "parse_suppressions",
    "registered_stage_names",
    "repo_rule",
    "rules_determinism",
    "rules_intkinds",
    "rules_seams",
    "run_repolint",
    "save_baseline",
    "to_sarif",
]
