"""Determinism and purity rules.

The reproduction's headline guarantees — ``--jobs 1`` and ``--jobs N``
emitting byte-identical BLIFs, certificate traces that replay bit-exact
in a fresh manager, component-store keys stable across runs — all
reduce to one discipline: nothing on the synthesis path may depend on
interpreter accidents (hash order, memory addresses, directory order)
or ambient process state (clock, RNG, environment).  These rules
enforce that discipline statically:

* ``set-iteration`` / ``listdir-order`` run everywhere, on the
  per-function dataflow walk of :mod:`.dataflow`;
* the purity rules (``impure-import``, ``env-read``, ``id-order``)
  fence the *hot paths* — ``repro.bdd`` and ``repro.decomp``, the
  packages whose outputs are certified byte-exact.  The pipeline layer
  legitimately reads clocks (budgets) and the bench layer seeds RNGs;
  the engine itself must stay pure;
* ``pickle-safety`` guards the worker boundary of
  ``repro.pipeline.parallel``: spawn-start cannot pickle lambdas or
  nested functions, so shipping one is a latent crash that fork-start
  CI never sees.
"""

import ast

from repro.analysis.repolint.dataflow import (LISTDIR_KIND, SET_KIND,
                                              iteration_sites)
from repro.analysis.repolint.framework import repo_rule
from repro.analysis.repolint.rules_seams import PROCESS_BOUNDARY_MODULES
from repro.analysis.rules import Severity

#: Packages whose emitted artifacts are certified byte-exact; ambient
#: process state must not be readable from inside them.  The two
#: ``repro.network`` entries are single files (a file path is a prefix
#: of itself): they sit on the verify path — ``extract`` rebuilds BDDs
#: from emitted netlists and ``simulate`` replays them — so an impurity
#: there can mask or fabricate a verification failure.
HOT_PATH_PREFIXES = (
    "src/repro/bdd/",
    "src/repro/decomp/",
    "src/repro/network/extract.py",
    "src/repro/network/simulate.py",
)

#: Modules whose import alone makes a hot-path function impure.
IMPURE_MODULES = ("time", "random", "uuid", "secrets", "datetime")


def _in_hot_path(rel):
    return any(rel.startswith(prefix) for prefix in HOT_PATH_PREFIXES)


# -- unordered iteration ----------------------------------------------
@repo_rule("set-iteration", Severity.WARNING)
def check_set_iteration(ctx):
    """Iterating a ``set``/``frozenset`` without ``sorted()`` makes any
    order-sensitive consumer — emitted netlists, store keys, error
    messages — depend on ``PYTHONHASHSEED``; wrap the iteration in
    ``sorted(...)`` or justify why order cannot reach the output."""
    for site in iteration_sites(ctx.tree):
        if site.kind != SET_KIND:
            continue
        yield ctx.finding(
            site.line,
            "iteration over unordered set value %r; iterate "
            "sorted(...) instead, or suppress with a justification "
            "that order cannot reach emitted output or store keys"
            % site.describe)


@repo_rule("listdir-order", Severity.WARNING)
def check_listdir_order(ctx):
    """``os.listdir``/``scandir``/``glob``/``iterdir`` return entries
    in directory order, which differs across filesystems and mutates as
    files land; sort before iterating."""
    for site in iteration_sites(ctx.tree):
        if site.kind != LISTDIR_KIND:
            continue
        yield ctx.finding(
            site.line,
            "iteration over directory-ordered listing %r; wrap it in "
            "sorted(...) so runs do not depend on filesystem order"
            % site.describe)


# -- hot-path purity ---------------------------------------------------
@repo_rule("impure-import", Severity.WARNING)
def check_impure_import(ctx):
    """The certified hot paths (``repro.bdd``, ``repro.decomp``) must
    not even import clock/RNG modules: budgets and seeding belong to
    the pipeline layer, which passes results in as plain data."""
    if not _in_hot_path(ctx.rel):
        return
    for node in ast.walk(ctx.tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] if node.module else []
        for name in names:
            top = name.split(".", 1)[0]
            if top in IMPURE_MODULES:
                yield ctx.finding(
                    node.lineno,
                    "hot-path module imports %r; clocks and RNG are "
                    "pipeline-layer concerns — pass their results in "
                    "as data (repro.pipeline.limits owns budgets)"
                    % name)


@repo_rule("env-read", Severity.WARNING)
def check_env_read(ctx):
    """Reading ``os.environ``/``os.getenv`` inside the hot paths makes
    decomposition results depend on ambient shell state; configuration
    must arrive through ``DecompositionConfig``/``PipelineConfig``."""
    if not _in_hot_path(ctx.rel):
        return
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "environb", "getenv",
                                  "putenv")):
            yield ctx.finding(
                node.lineno,
                "hot-path read of os.%s; engine behaviour must be a "
                "function of its config objects, not the environment"
                % node.attr)


def _binds_name(tree, name):
    """Does *tree* ever rebind *name* (param, assignment, import)?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == name:
            return True
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Store)):
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return True
    return False


@repo_rule("id-order", Severity.WARNING)
def check_id_order(ctx):
    """``id()`` returns a memory address: using it in hashes, dict keys
    or messages inside the hot paths couples results to allocator
    state.  Key by value (node ints, names) or compare with ``is``."""
    if not _in_hot_path(ctx.rel):
        return
    if _binds_name(ctx.tree, "id"):
        return
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"):
            yield ctx.finding(
                node.lineno,
                "hot-path call to id(); memory addresses vary per run "
                "— key by value (packed node ints, variable names) or "
                "group with `is` comparisons instead")


@repo_rule("cache-attr-name", Severity.WARNING)
def check_cache_attr_name(ctx):
    """Memo dicts dynamically attached to the manager must live in the
    ``_cache_``-prefixed namespace that
    ``repro.bdd.manager.BDD.clear_caches`` drops wholesale on reorder
    and GC — the discipline the kernel quantification walks rely on
    for invalidation.
    A ``getattr``/``setattr`` with any other ``_``-prefixed literal
    name creates hidden state that survives node renumbering and can
    replay stale edges."""
    if not _in_hot_path(ctx.rel):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr")
                and len(node.args) >= 2):
            continue
        name_arg = node.args[1]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            continue
        attr = name_arg.value
        if attr.startswith("_") and not attr.startswith("_cache_"):
            yield ctx.finding(
                node.lineno,
                "hot-path %s of private attribute %r; dynamically "
                "attached manager state must use the _cache_ prefix "
                "so clear_caches() invalidates it on reorder/GC"
                % (node.func.id, attr))


# -- pickle safety at the worker boundary ------------------------------
def _module_level_defs(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _process_target(call):
    """The ``target=`` expression of a ``Process(...)`` call, if any."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if name != "Process":
        return None
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


@repo_rule("pickle-safety", Severity.ERROR)
def check_pickle_safety(ctx):
    """Everything crossing the worker boundary must pickle under the
    spawn start method: worker targets must be module-level functions,
    and queue payloads must not carry lambdas or nested callables."""
    if ctx.rel not in PROCESS_BOUNDARY_MODULES:
        return
    top_level = _module_level_defs(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _process_target(node)
        if target is not None:
            if isinstance(target, ast.Lambda):
                yield ctx.finding(
                    target.lineno,
                    "Process target is a lambda; lambdas do not pickle "
                    "under the spawn start method — use a module-level "
                    "function")
            elif (isinstance(target, ast.Name)
                    and target.id not in top_level):
                yield ctx.finding(
                    target.lineno,
                    "Process target %r is not a module-level function "
                    "in this file; nested functions do not pickle "
                    "under spawn" % target.id)
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "put_nowait", "send")):
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        yield ctx.finding(
                            sub.lineno,
                            "queue payload contains a lambda; only "
                            "picklable primitives and store-format "
                            "dicts may cross the worker boundary")
