"""Transitive import graph over the scanned source tree.

The repo's seam rules (certifier-independence, process-boundary) used
to inspect only the *direct* imports of one file at a time — a helper
module could launder a forbidden dependency past them.  This substrate
parses every scanned file's imports once, maps repo-relative paths to
dotted module names (``src/repro/a/b.py`` -> ``repro.a.b``), and
answers the question the rules actually ask: *which import names are
reachable from module M, and along which chain?*

External modules (stdlib, or repo modules outside the scanned paths)
are leaves: their names still show up as reachable imports, so the
graph works on temp mini-trees (the mutation-canary tests) where
``repro.bdd`` itself is not part of the scan.
"""

import ast
from collections import deque


def module_name_for(rel):
    """Dotted module name of a repo-relative path, or ``None``.

    Only ``src/``-rooted files map to importable module names
    (``src/repro/bdd/manager.py`` -> ``repro.bdd.manager``,
    ``src/repro/io/__init__.py`` -> ``repro.io``).  Scripts elsewhere
    (``tools/*.py``) have imports worth following but no dotted name
    other modules could import them by.
    """
    if not rel.startswith("src/") or not rel.endswith(".py"):
        return None
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def direct_imports(tree):
    """``(line, imported_name)`` pairs for every import in *tree*.

    ``from pkg import sub`` contributes both ``pkg`` and ``pkg.sub``
    (the attribute may or may not be a submodule; the graph resolves
    ``pkg.sub`` only when a scanned module by that name exists, while
    rules matching on name prefixes see both spellings).  Relative
    imports are left unresolved (the repo uses absolute imports only,
    but the scan should not crash on one).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, "%s.%s" % (node.module, alias.name)


class ImportGraph:
    """Module-level import edges over the scanned files.

    Built once per run from ``{rel_path: ast_tree}``; exposes
    per-module direct imports and a transitive walk with optional
    gateway modules whose own imports are not followed.
    """

    def __init__(self, trees):
        #: rel path -> sorted ``(line, name)`` direct imports.
        self.imports_by_path = {}
        #: dotted module name -> rel path, for scanned modules.
        self.path_by_module = {}
        for rel, tree in trees.items():
            self.imports_by_path[rel] = sorted(set(direct_imports(tree)))
            name = module_name_for(rel)
            if name is not None:
                self.path_by_module[name] = rel

    def resolve(self, name):
        """Rel path of the scanned module *name* refers to, or None.

        ``from repro.io import load_pla`` emits the candidate name
        ``repro.io.load_pla``; when that is not a scanned module the
        longest scanned prefix (``repro.io``) wins, so the walk enters
        the package ``__init__`` exactly like the import machinery
        would.
        """
        parts = name.split(".")
        for end in range(len(parts), 0, -1):
            rel = self.path_by_module.get(".".join(parts[:end]))
            if rel is not None:
                return rel
        return None

    def walk(self, start_rel, gateways=()):
        """Transitive imports from *start_rel*: ``(chain, line, name)``.

        Breadth-first over scanned modules.  *chain* is the rel-path
        route ``[start_rel, ..., importing_rel]`` and *line*/*name* the
        import statement at its end — ``len(chain) == 1`` is a direct
        import of the start module.  Modules whose rel path is in
        *gateways* are reported when imported but never expanded: their
        own dependencies are considered sanctioned (the process-boundary
        rule uses this for the worker-side session/pipeline modules).
        Deterministic: modules expand in discovery order, imports in
        line order.
        """
        gateways = frozenset(gateways)
        seen = {start_rel}
        pending = deque([(start_rel, (start_rel,))])
        while pending:
            rel, chain = pending.popleft()
            for line, name in self.imports_by_path.get(rel, ()):
                yield chain, line, name
                target = self.resolve(name)
                if (target is None or target in seen
                        or target in gateways):
                    continue
                seen.add(target)
                pending.append((target, chain + (target,)))

    def format_chain(self, chain, name):
        """Human-readable route, e.g. ``a.py -> b.py -> import x``."""
        return " -> ".join(chain + ("import %s" % name,))
