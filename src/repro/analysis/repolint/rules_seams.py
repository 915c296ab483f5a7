"""The six architectural seam rules.

Direct evidence per file, plus the transitive import graph:
``certifier-independence`` and ``process-boundary`` also flag
*indirect* leakage, where a helper module imports the forbidden layer
on the seam module's behalf.  docs/ANALYSIS.md carries the full
rationale per rule.
"""

import ast

from repro.analysis.repolint.framework import repo_rule
from repro.analysis.rules import Severity

# -- manager-seam ------------------------------------------------------
#: Path prefixes (repo-root-relative) where constructing a BDD manager
#: is legitimate: the BDD package itself, the file readers, the
#: benchmark builders and the FSM encoder.  All other ``src/repro``
#: code must receive managers through the ``Session.adopt_manager``
#: seam.
MANAGER_SEAM_ALLOWED = (
    "src/repro/bdd/",
    "src/repro/io/",
    "src/repro/bench/",
    "src/repro/fsm/",
)

#: Module paths whose ``BDD`` attribute is the manager class.
_BDD_MODULES = ("repro.bdd", "repro.bdd.manager")


def _bdd_aliases(tree):
    """Names *tree* binds to the BDD manager class or its module."""
    class_names = set()
    module_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in _BDD_MODULES:
                for alias in node.names:
                    if alias.name == "BDD":
                        class_names.add(alias.asname or alias.name)
            elif node.module == "repro" and any(
                    alias.name == "bdd" for alias in node.names):
                for alias in node.names:
                    if alias.name == "bdd":
                        module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _BDD_MODULES:
                    module_names.add((alias.asname or alias.name)
                                     .split(".", 1)[0])
    return class_names, module_names


def _constructs_manager(call, class_names, module_names):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in class_names
    if isinstance(func, ast.Attribute) and func.attr == "BDD":
        # repro.bdd.manager.BDD(...) / bdd.BDD(...) attribute chains.
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        return isinstance(root, ast.Name) and root.id in module_names
    return False


@repo_rule("manager-seam", Severity.ERROR)
def check_manager_seam(ctx):
    """BDD managers must enter through ``Session.adopt_manager`` (or be
    built by the designated factory layers); any other ``BDD(...)``
    construction in ``src/repro`` dodges the session's growth hook and
    resource budgets."""
    rel = ctx.rel
    if not rel.startswith("src/repro/"):
        return
    if any(rel.startswith(prefix) for prefix in MANAGER_SEAM_ALLOWED):
        return
    class_names, module_names = _bdd_aliases(ctx.tree)
    if not class_names and not module_names:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _constructs_manager(
                node, class_names, module_names):
            yield ctx.finding(
                node.lineno,
                "BDD manager constructed outside the adopt_manager "
                "seam; pass a manager in (or move the construction "
                "into repro.bdd/io/bench/fsm)")


# -- process-boundary --------------------------------------------------
#: Modules (repo-root-relative) that marshal data across a process
#: boundary.  They may not import the live-BDD layers at all: anything
#: they ship must already be in the manager-independent store format
#: (``repro.decomp.cache_store``) or a sanitized primitive payload.
PROCESS_BOUNDARY_MODULES = (
    "src/repro/pipeline/parallel.py",
)

#: Package prefixes whose objects are bound to a per-process BDD
#: manager and therefore must never cross a process boundary.
LIVE_BDD_PACKAGES = ("repro.bdd", "repro.boolfn")

#: Worker-side gateway modules a process-boundary module may import
#: even though they themselves use live BDD objects: the code behind
#: them executes *within* one process (sessions, pipelines, the store
#: codec), it does not cross the boundary.  Anything else that reaches
#: a live-BDD package — directly or through a helper — is a finding.
PROCESS_BOUNDARY_GATEWAYS = (
    "src/repro/pipeline/session.py",
    "src/repro/pipeline/pipeline.py",
    "src/repro/pipeline/config.py",
    "src/repro/decomp/cache_store.py",
    "src/repro/io/__init__.py",
    "src/repro/network/stats.py",
)


def _is_live_bdd_module(name):
    return name is not None and any(
        name == pkg or name.startswith(pkg + ".")
        for pkg in LIVE_BDD_PACKAGES)


def _direct_process_boundary_findings(rel, tree):
    """``(line, message)`` for direct live-BDD imports in *tree*."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if _is_live_bdd_module(node.module):
                names = [node.module]
            elif node.module == "repro":
                names = ["repro.%s" % alias.name for alias in node.names]
        for name in names:
            if _is_live_bdd_module(name):
                yield (node.lineno,
                       "process-boundary module imports %r; live BDD "
                       "objects must not cross the process boundary — "
                       "exchange store-format dicts "
                       "(repro.decomp.cache_store) instead" % name)


@repo_rule("process-boundary", Severity.ERROR, scope="project")
def check_process_boundary(ctx):
    """Process-boundary marshalling modules must not reach the live-BDD
    layers (``repro.bdd``/``repro.boolfn``) directly or through helper
    modules; only the sanctioned worker-side gateways are exempt."""
    for rel in PROCESS_BOUNDARY_MODULES:
        source = ctx.project.by_rel.get(rel)
        if source is None:
            continue
        for line, message in _direct_process_boundary_findings(
                rel, source.tree):
            yield ctx.finding(rel, line, message)
        for chain, line, name in ctx.graph.walk(
                rel, gateways=_gateway_rels(ctx)):
            if len(chain) < 2 or not _is_live_bdd_module(name):
                continue
            yield ctx.finding(
                chain[0], _chain_anchor_line(ctx, chain),
                "process-boundary module reaches live-BDD package %r "
                "through a non-gateway helper: %s — live objects must "
                "not leak toward the boundary; route through the store "
                "format or add the helper to the sanctioned gateways"
                % (name, ctx.graph.format_chain(chain, name)))


def _gateway_rels(ctx):
    return [rel for rel in PROCESS_BOUNDARY_GATEWAYS
            if rel in ctx.project.by_rel]


def _chain_anchor_line(ctx, chain):
    """Line of the first hop's import in the seam module itself."""
    first_hop = chain[1] if len(chain) > 1 else chain[0]
    hop_module = None
    graph = ctx.graph
    for name, rel in graph.path_by_module.items():
        if rel == first_hop:
            hop_module = name
            break
    for line, name in graph.imports_by_path.get(chain[0], ()):
        if hop_module is not None and (
                name == hop_module
                or name.startswith(hop_module + ".")
                or graph.resolve(name) == first_hop):
            return line
    return 1


# -- certifier-independence --------------------------------------------
#: Modules (repo-root-relative) that independently audit the engine's
#: output.  Among ``repro`` packages they may reach only the neutral
#: layers below — never the decomposition engine or the pipeline they
#: are checking, not even through a helper.
CERTIFIER_MODULES = (
    "src/repro/analysis/certify.py",
)

#: The ``repro`` packages a certifier module may depend on.
CERTIFIER_ALLOWED = ("repro.bdd", "repro.boolfn", "repro.io",
                     "repro.network")


def _is_repro_module(name):
    return name is not None and (name == "repro"
                                 or name.startswith("repro."))


def _certifier_allowed(name):
    return any(name == pkg or name.startswith(pkg + ".")
               for pkg in CERTIFIER_ALLOWED)


def _direct_certifier_findings(rel, tree):
    """``(line, message)`` for direct off-allowlist repro imports."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if _is_repro_module(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                names = ["repro.%s" % alias.name for alias in node.names]
            elif _is_repro_module(node.module):
                names = [node.module]
        for name in names:
            if not _certifier_allowed(name):
                yield (node.lineno,
                       "certifier module imports %r; the offline "
                       "checker may only use the neutral layers (%s) "
                       "so it cannot share bugs with the engine it "
                       "audits" % (name, ", ".join(CERTIFIER_ALLOWED)))


@repo_rule("certifier-independence", Severity.ERROR, scope="project")
def check_certifier_independence(ctx):
    """The offline certifier may depend only on the neutral layers
    (``repro.bdd``/``boolfn``/``io``/``network``) — transitively: a
    neutral-looking helper that itself imports the engine would let the
    certifier share bugs with what it audits."""
    for rel in CERTIFIER_MODULES:
        source = ctx.project.by_rel.get(rel)
        if source is None:
            continue
        for line, message in _direct_certifier_findings(rel, source.tree):
            yield ctx.finding(rel, line, message)
        for chain, line, name in ctx.graph.walk(rel):
            if len(chain) < 2 or not _is_repro_module(name):
                continue
            if _certifier_allowed(name):
                continue
            yield ctx.finding(
                chain[0], _chain_anchor_line(ctx, chain),
                "certifier transitively reaches %r: %s — the offline "
                "checker may only use the neutral layers (%s), even "
                "through helpers"
                % (name, ctx.graph.format_chain(chain, name),
                   ", ".join(CERTIFIER_ALLOWED)))


# -- node-encoding -----------------------------------------------------
#: Manager-private storage attributes of the packed-edge BDD arena.
NODE_PRIVATE_ATTRS = ("_lo", "_hi", "_level", "_unique")


def _is_xor_with_one(node):
    """True for ``expr ^ 1`` / ``1 ^ expr`` (complement-bit negation)."""
    if not (isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitXor)):
        return False
    for operand in (node.left, node.right):
        if (isinstance(operand, ast.Constant)
                and type(operand.value) is int and operand.value == 1):
            return True
    return False


@repo_rule("node-encoding", Severity.ERROR)
def check_node_encoding(ctx):
    """The packed complement-edge encoding is private to ``repro.bdd``:
    no other module may touch the manager-private arrays or do
    complement-bit arithmetic (``^ 1``), so the encoding can change
    without a repo-wide audit."""
    rel = ctx.rel
    if not rel.startswith("src/repro/") or rel.startswith("src/repro/bdd/"):
        return
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in NODE_PRIVATE_ATTRS):
            yield ctx.finding(
                node.lineno,
                "manager-private array %r accessed outside repro.bdd; "
                "use the public handle API (mgr.low/high/level, "
                "Function) instead" % node.attr)
        elif _is_xor_with_one(node):
            yield ctx.finding(
                node.lineno,
                "complement-bit arithmetic (`^ 1`) outside repro.bdd; "
                "edge encoding is private — negate through mgr.not_ "
                "or the Function operators")


# -- bare-assert -------------------------------------------------------
@repo_rule("bare-assert", Severity.ERROR)
def check_bare_assert(ctx):
    """``assert`` statements in library code vanish under ``python -O``;
    invariants must use the typed exceptions instead."""
    if not ctx.rel.startswith("src/repro/"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield ctx.finding(
                node.lineno,
                "bare assert is stripped under python -O; raise a "
                "typed exception instead")


# -- stage-registry ----------------------------------------------------
def literal_stage_names(tree):
    """(line, name) of every stage-name literal in *tree*.

    Covers the two spellings the pipeline layer uses: composition
    tuples ``("name", stage_fn)`` and instrumentation calls
    ``<obj>.stage("name", ...)``.
    """
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[0], ast.Constant)
                and isinstance(node.elts[0].value, str)
                and isinstance(node.elts[1], ast.Name)
                and node.elts[1].id.startswith("stage_")):
            yield node.lineno, node.elts[0].value
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stage"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.lineno, node.args[0].value


@repo_rule("stage-registry", Severity.ERROR)
def check_stage_registry(ctx):
    """Every pipeline stage name spelled as a literal must be registered
    in ``repro.pipeline.config.STAGE_NAMES``, keeping the event/report
    vocabulary closed."""
    if not ctx.rel.startswith("src/repro/"):
        return
    registered = ctx.project.stage_names
    if registered is None:
        return
    for line, name in literal_stage_names(ctx.tree):
        if name not in registered:
            yield ctx.finding(
                line,
                "pipeline stage %r is not registered in "
                "repro.pipeline.config.STAGE_NAMES" % name)
