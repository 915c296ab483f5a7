"""Tests for the int-kind abstract interpretation (``intkinds``).

Covers the lattice algebra, the structural transfer functions of the
packed-edge encoding, annotation seeding, the interprocedural fixpoint
(including termination on recursive helpers), the scope predicate, the
five ``intkind-*`` rules, the hot-path scope extension to the
``repro.network`` verify path, and the issue's mutation canaries:
copies of the real ``manager.py``/``quantify.py`` with seeded
kind-confusion bugs that ``repro selfcheck`` must report with the
right rule ids and line numbers.
"""

import io
import textwrap
from pathlib import Path

from repro.analysis.repolint import run_repolint
from repro.analysis.repolint.framework import load_project
from repro.analysis.repolint.intkinds import (ANNOTATION_KINDS, CHECKED_KINDS,
                                              COUNT, EDGE, INT_KINDS,
                                              KNOWN_ATTRS, LEVEL, MAX_ROUNDS,
                                              NODE, PLAIN, SID, TOP, VARID,
                                              Arr, IntKindAnalysis,
                                              analyze_project,
                                              annotation_kind,
                                              in_intkind_scope, join)
from repro.analysis.repolint.rules_determinism import _in_hot_path
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

DEMO_REL = "src/repro/bdd/demo.py"


def _analyze(tmp_path, source, rel=DEMO_REL):
    """Write *source* at *rel* under tmp_path and analyze it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    project, broken = load_project([tmp_path / "src"], tmp_path)
    assert not broken, broken
    return analyze_project(project)


def _fn(analysis, name, rel=DEMO_REL):
    return analysis.functions[(rel, name)]


def _rules_of(analysis):
    return sorted({rule for rule, _rel, _line, _msg in analysis.findings})


# ---------------------------------------------------------------------
# Lattice algebra
# ---------------------------------------------------------------------
class TestLattice:
    def test_bottom_is_identity(self):
        for kind in INT_KINDS + (TOP,):
            assert join(None, kind) == kind
            assert join(kind, None) == kind
        assert join(None, None) is None

    def test_join_idempotent(self):
        for kind in INT_KINDS:
            assert join(kind, kind) == kind

    def test_join_commutative(self):
        for a in INT_KINDS:
            for b in INT_KINDS:
                assert join(a, b) == join(b, a)

    def test_distinct_kinds_join_to_top(self):
        assert join(EDGE, NODE) == TOP
        assert join(LEVEL, VARID) == TOP
        assert join(SID, COUNT) == TOP

    def test_top_absorbs(self):
        for kind in INT_KINDS:
            assert join(TOP, kind) == TOP
            assert join(kind, TOP) == TOP

    def test_join_associative(self):
        kinds = INT_KINDS + (None, TOP)
        for a in kinds:
            for b in kinds:
                for c in kinds:
                    assert join(join(a, b), c) == join(a, join(b, c))

    def test_arr_joins_fieldwise(self):
        assert join(Arr(NODE, EDGE), Arr(NODE, EDGE)) == Arr(NODE, EDGE)
        assert join(Arr(NODE, None), Arr(None, EDGE)) == Arr(NODE, EDGE)
        assert join(Arr(NODE, EDGE), Arr(LEVEL, EDGE)) == Arr(TOP, EDGE)
        assert join(Arr(NODE, EDGE), EDGE) == TOP

    def test_checked_kinds_exclude_bookkeeping(self):
        # count/plain legitimately mix with everything (lengths, bit
        # masks, packed keys) and must never be flagged.
        assert COUNT not in CHECKED_KINDS
        assert PLAIN not in CHECKED_KINDS
        assert CHECKED_KINDS == {EDGE, NODE, LEVEL, VARID, SID}


class TestAnnotationSeeding:
    def test_alias_names_map_to_kinds(self):
        import ast
        for name, kind in ANNOTATION_KINDS.items():
            assert annotation_kind(ast.parse(name, mode="eval").body) \
                == kind
            # Attribute and string spellings seed too.
            assert annotation_kind(
                ast.parse("types.%s" % name, mode="eval").body) == kind
            assert annotation_kind(
                ast.parse(repr(name), mode="eval").body) == kind

    def test_unrelated_annotations_do_not_seed(self):
        import ast
        for text in ("int", "str", "Optional[Edge]", "'int'"):
            assert annotation_kind(
                ast.parse(text, mode="eval").body) is None

    def test_aliases_are_runtime_noops(self):
        from repro.bdd.types import Edge, Level, NodeId, SuffixId, VarId
        for alias in (Edge, NodeId, Level, VarId, SuffixId):
            assert alias(7) == 7


# ---------------------------------------------------------------------
# Structural transfer functions
# ---------------------------------------------------------------------
class TestTransferFunctions:
    def test_shift_unpacks_edge_to_node(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def unpack(f: Edge):
                return f >> 1
        ''')
        assert _fn(analysis, "unpack").ret_kind == NODE
        assert analysis.findings == []

    def test_shift_repacks_node_to_edge(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import NodeId
            def pack(n: NodeId):
                return (n << 1) | 1
        ''')
        assert _fn(analysis, "pack").ret_kind == EDGE
        assert analysis.findings == []

    def test_xor_one_preserves_edge(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def negate(f: Edge):
                return f ^ 1
        ''')
        assert _fn(analysis, "negate").ret_kind == EDGE
        assert analysis.findings == []

    def test_mask_minus_two_preserves_edge_and_bit_is_plain(
            self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def regular(f: Edge):
                return f & -2
            def bit(f: Edge):
                return f & 1
        ''')
        assert _fn(analysis, "regular").ret_kind == EDGE
        assert _fn(analysis, "bit").ret_kind == PLAIN
        assert analysis.findings == []

    def test_polarity_algebra_is_kind_sound(self, tmp_path):
        # The kernel's hot-loop idiom: extract a polarity bit from two
        # edges and apply it to a third.  No kind is violated anywhere.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def apply_polarity(f: Edge, g: Edge, res: Edge):
                pol = (f ^ g) & 1
                return res ^ pol
        ''')
        assert _fn(analysis, "apply_polarity").ret_kind == EDGE
        assert analysis.findings == []

    def test_len_yields_count_not_node(self, tmp_path):
        # `node = len(_lev)` is the allocator idiom; a count must not
        # be mistaken for an existing node nor flagged as one.
        analysis = _analyze(tmp_path, '''
            def alloc(levels):
                return len(levels)
        ''')
        assert _fn(analysis, "alloc").ret_kind == COUNT
        assert analysis.findings == []

    def test_known_attrs_demand_and_yield(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def walk(mgr, f: Edge):
                node = f >> 1
                lvl = mgr._level[node]
                var = mgr._level_to_var[lvl]
                back = mgr._var_to_level[var]
                return mgr._lo[node]
        ''')
        assert analysis.findings == []
        assert _fn(analysis, "walk").ret_kind == EDGE

    def test_annotation_pins_name_across_rebinding(self, tmp_path):
        # An AnnAssign pin survives later textual rebinding — the
        # `sid = ids.get(...)` / `sid = len(ids)` idiom in quantify.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge, SuffixId
            def intern(ids, suffix, e: Edge):
                sid: SuffixId = ids.get(suffix)
                if sid is None:
                    sid = len(ids)
                return (e << 20) | sid
        ''')
        assert analysis.findings == []


# ---------------------------------------------------------------------
# The five rules
# ---------------------------------------------------------------------
class TestSubscriptRule:
    def test_unshifted_edge_into_level_array(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def bad(mgr, f: Edge):
                return mgr._level[f]
        ''')
        [(rel, line, message)] = analysis.findings_for("intkind-subscript")
        assert (rel, line) == (DEMO_REL, 4)
        assert "edge >> 1" in message

    def test_level_into_var_array(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Level
            def bad(mgr, lvl: Level):
                return mgr._var_to_level[lvl]
        ''')
        assert analysis.findings_for("intkind-subscript")

    def test_store_side_is_checked_too(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def bad(mgr, f: Edge):
                mgr._level[f] = 0
        ''')
        assert analysis.findings_for("intkind-subscript")

    def test_shifted_subscript_is_clean(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def good(mgr, f: Edge):
                return mgr._level[f >> 1]
        ''')
        assert analysis.findings == []


class TestComplementRule:
    def test_xor_one_on_node_id(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def bad(f: Edge):
                node = f >> 1
                return node ^ 1
        ''')
        [(rel, line, message)] = analysis.findings_for(
            "intkind-complement")
        assert (rel, line) == (DEMO_REL, 5)
        assert "'node'" in message

    def test_xor_one_on_level(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Level
            def bad(lvl: Level):
                return lvl ^ 1
        ''')
        assert analysis.findings_for("intkind-complement")


class TestMixRule:
    def test_arithmetic_mix(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge, Level
            def bad(e: Edge, lvl: Level):
                return e + lvl
        ''')
        [(rel, line, message)] = analysis.findings_for("intkind-mix")
        assert (rel, line) == (DEMO_REL, 4)
        assert "'edge'" in message and "'level'" in message

    def test_comparison_mix(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge, Level
            def bad(e: Edge, lvl: Level):
                return e < lvl
        ''')
        assert analysis.findings_for("intkind-mix")

    def test_same_kind_and_constants_are_clean(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Level
            def good(a: Level, b: Level):
                return (a + 1) < b
        ''')
        assert analysis.findings == []


class TestCallRule:
    def test_node_passed_where_edge_annotated(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def negate(f: Edge) -> Edge:
                return f ^ 1
            def bad(f: Edge):
                node = f >> 1
                return negate(node)
        ''')
        [(rel, line, message)] = analysis.findings_for("intkind-call")
        assert (rel, line) == (DEMO_REL, 7)
        assert "negate" in message and "'node'" in message

    def test_inferred_return_kind_feeds_the_check(self, tmp_path):
        # make_node has no return annotation; its NODE return kind is
        # inferred by the fixpoint and still trips the annotated
        # callee's parameter check.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def negate(f: Edge) -> Edge:
                return f ^ 1
            def make_node(f: Edge):
                return f >> 1
            def bad(f: Edge):
                return negate(make_node(f))
        ''')
        assert _fn(analysis, "make_node").ret_kind == NODE
        assert analysis.findings_for("intkind-call")

    def test_method_call_skips_self(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            class M:
                def negate(self, f: Edge) -> Edge:
                    return f ^ 1
                def bad(self, f: Edge):
                    return self.negate(f >> 1)
                def good(self, f: Edge):
                    return self.negate(f)
        ''')
        findings = analysis.findings_for("intkind-call")
        assert len(findings) == 1
        assert findings[0][1] == 7


class TestMemoKeyRule:
    def test_edge_in_narrow_low_field(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            _SUFFIX_BITS = 20
            def bad(e: Edge, g: Edge):
                return (e << _SUFFIX_BITS) | g
        ''')
        [(rel, line, message)] = analysis.findings_for(
            "intkind-memo-key")
        assert (rel, line) == (DEMO_REL, 5)
        assert "20-bit" in message

    def test_full_width_and_suffix_packing_are_clean(self, tmp_path):
        # The kernel's sanctioned keys: 32-bit operand fields for
        # edges, narrow fields only for interned suffix ids.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge, SuffixId
            _SUFFIX_BITS = 20
            def ct_key(f: Edge, g: Edge):
                return (f << 32) | g
            def quant_key(e: Edge, sid: SuffixId):
                return (e << _SUFFIX_BITS) | sid
            def and_exists_key(f: Edge, g: Edge, sid: SuffixId):
                return (((f << 32) | g) << _SUFFIX_BITS) | sid
        ''')
        assert analysis.findings == []


# ---------------------------------------------------------------------
# Interprocedural fixpoint
# ---------------------------------------------------------------------
class TestFixpoint:
    def test_call_sites_infer_unannotated_params(self, tmp_path):
        # The bug lives inside an *unannotated* helper; only the
        # call-site kind propagated by the fixpoint exposes it.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def helper(mgr, x):
                return mgr._level[x]
            def seed(mgr, e: Edge):
                return helper(mgr, e)
        ''')
        assert _fn(analysis, "helper").param_kinds["x"] == EDGE
        assert analysis.findings_for("intkind-subscript")

    def test_terminates_on_direct_recursion(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def spin(e: Edge):
                return spin(e)
        ''')
        assert analysis.rounds <= MAX_ROUNDS
        assert analysis.findings == []

    def test_terminates_and_infers_through_mutual_recursion(
            self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def ping(e):
                return pong(e)
            def pong(x):
                return ping(x)
            def seed(f: Edge):
                return ping(f)
        ''')
        assert analysis.rounds <= MAX_ROUNDS
        assert _fn(analysis, "ping").param_kinds["e"] == EDGE
        assert _fn(analysis, "pong").param_kinds["x"] == EDGE

    def test_conflicting_call_sites_widen_to_top_silently(
            self, tmp_path):
        # Polymorphic helpers are legal: conflicting argument kinds
        # widen the parameter to ⊤, which satisfies every demand
        # (documented imprecision, DESIGN.md section 10).
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge, Level
            def ident(x):
                return x
            def use_edge(e: Edge):
                return ident(e)
            def use_level(lvl: Level):
                return ident(lvl)
        ''')
        assert _fn(analysis, "ident").param_kinds["x"] == TOP
        assert analysis.findings == []

    def test_annotations_are_not_demoted_by_call_sites(self, tmp_path):
        # A bad call site reports a finding but must not corrupt the
        # annotated summary it disagrees with.
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def negate(f: Edge) -> Edge:
                return f ^ 1
            def bad(f: Edge):
                return negate(f >> 1)
        ''')
        assert _fn(analysis, "negate").param_kinds["f"] == EDGE
        assert analysis.findings_for("intkind-call")

    def test_imports_resolve_across_modules(self, tmp_path):
        # The FALSE/TRUE constants seed through a `from ... import`
        # chain, mirroring repro.decomp.context importing through the
        # repro.bdd package __init__.
        consts = textwrap.dedent('''
            from repro.bdd.types import Edge
            FALSE: Edge = 0
            TRUE: Edge = 1
        ''')
        (tmp_path / "src/repro/bdd").mkdir(parents=True)
        (tmp_path / "src/repro/bdd/consts.py").write_text(consts)
        analysis = _analyze(tmp_path, '''
            from repro.bdd.consts import FALSE
            def bad(mgr):
                return mgr._level[FALSE]
        ''')
        assert analysis.findings_for("intkind-subscript")


# ---------------------------------------------------------------------
# Scope
# ---------------------------------------------------------------------
class TestScope:
    def test_scope_predicate(self):
        assert in_intkind_scope("src/repro/bdd/manager.py")
        assert in_intkind_scope("src/repro/bdd/quantify.py")
        assert in_intkind_scope("src/repro/decomp/context.py")
        assert not in_intkind_scope("src/repro/decomp/engine.py")
        assert not in_intkind_scope("src/repro/network/extract.py")
        assert not in_intkind_scope("tools/report.py")

    def test_out_of_scope_files_are_not_analyzed(self, tmp_path):
        analysis = _analyze(tmp_path, '''
            from repro.bdd.types import Edge
            def bad(mgr, f: Edge):
                return mgr._level[f]
        ''', rel="src/repro/pipeline/stagex.py")
        assert analysis.findings == []
        assert analysis.functions == {}

    def test_real_tree_is_clean_and_fully_summarized(self):
        project, broken = load_project(None, REPO_ROOT)
        assert not broken
        analysis = analyze_project(project)
        assert analysis.findings == []
        # Every in-scope module produced summaries, and the memoised
        # accessor returns the same instance.
        assert "repro.bdd.manager" in analysis.modules
        assert "repro.decomp.context" in analysis.modules
        assert len(analysis.functions) > 100
        assert analyze_project(project) is analysis
        # Spot-check a fixpoint inference on the real tree: reorder's
        # swap_levels has no annotation, yet every call site passes a
        # level.
        swap = analysis.functions[
            ("src/repro/bdd/reorder.py", "swap_levels")]
        assert swap.param_kinds["level"] == LEVEL

    def test_known_attrs_cover_the_manager_arrays(self):
        assert KNOWN_ATTRS["_level"] == Arr(NODE, LEVEL)
        assert KNOWN_ATTRS["_lo"] == Arr(NODE, EDGE)
        assert KNOWN_ATTRS["_hi"] == Arr(NODE, EDGE)
        assert KNOWN_ATTRS["_var_to_level"] == Arr(VARID, LEVEL)


# ---------------------------------------------------------------------
# Hot-path scope extension (repro.network verify path)
# ---------------------------------------------------------------------
class TestNetworkHotPath:
    def test_verify_path_files_are_hot(self):
        assert _in_hot_path("src/repro/network/extract.py")
        assert _in_hot_path("src/repro/network/simulate.py")
        # ...but the rest of repro.network is not.
        assert not _in_hot_path("src/repro/network/__init__.py")

    def test_impure_import_canary_in_simulate_is_caught(self, tmp_path):
        source = (REPO_ROOT / "src" / "repro" / "network"
                  / "simulate.py").read_text()
        source += "\nimport random\n"
        target = tmp_path / "src" / "repro" / "network" / "simulate.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        report = run_repolint(paths=[tmp_path / "src"], root=tmp_path,
                              rules=["impure-import"])
        assert [f.rule for f in report.findings] == ["impure-import"]
        assert report.findings[0].line == source.count("\n")

    def test_env_read_canary_in_extract_is_caught(self, tmp_path):
        source = (REPO_ROOT / "src" / "repro" / "network"
                  / "extract.py").read_text()
        source += ("\n\ndef _canary_env():\n"
                   "    import os\n"
                   "    return os.environ.get('REPRO_FAST')\n")
        target = tmp_path / "src" / "repro" / "network" / "extract.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        report = run_repolint(paths=[tmp_path / "src"], root=tmp_path,
                              rules=["env-read"])
        assert [f.rule for f in report.findings] == ["env-read"]

    def test_real_verify_path_is_clean(self):
        report = run_repolint(
            paths=[REPO_ROOT / "src" / "repro" / "network"],
            root=REPO_ROOT,
            rules=["impure-import", "env-read", "id-order",
                   "cache-attr-name"])
        assert report.findings == []


# ---------------------------------------------------------------------
# Mutation canaries (the issue's acceptance bar)
# ---------------------------------------------------------------------
class TestMutationCanaries:
    def _copy_with(self, tmp_path, rel, suffix):
        source = (REPO_ROOT / rel).read_text()
        mutated = source + suffix
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(mutated)
        return source.count("\n")

    def test_selfcheck_reports_both_seeded_bugs(self, tmp_path):
        # Canary 1: un-shifted edge subscript into the flat node
        # arrays, seeded into a copy of the real manager.py.
        base_mgr = self._copy_with(
            tmp_path, "src/repro/bdd/manager.py",
            "\n\ndef _canary_level_subscript(mgr, edge: Edge):\n"
            "    return mgr._level[edge]\n")
        # Canary 2: complement flip on a raw node id, seeded into a
        # copy of the real quantify.py.
        base_qnt = self._copy_with(
            tmp_path, "src/repro/bdd/quantify.py",
            "\n\ndef _canary_complement(f: Edge):\n"
            "    node = f >> 1\n"
            "    return node ^ 1\n")
        out = io.StringIO()
        code = cli_main(["selfcheck", "--root", str(tmp_path),
                         str(tmp_path / "src"),
                         "--fail-on", "warning"], stdout=out)
        text = out.getvalue()
        assert code == 1
        assert "intkind-subscript" in text
        assert "intkind-complement" in text
        # The findings carry the exact seeded lines: the suffix adds
        # two blank lines, a def line, then the offending statements.
        assert "manager.py:%d" % (base_mgr + 4) in text
        assert "quantify.py:%d" % (base_qnt + 5) in text

    def test_canaries_survive_the_full_rule_set(self, tmp_path):
        # Same mutations through run_repolint with every rule active:
        # no other rule's noise masks the intkind findings.
        self._copy_with(
            tmp_path, "src/repro/bdd/manager.py",
            "\n\ndef _canary_level_subscript(mgr, edge: Edge):\n"
            "    return mgr._level[edge]\n")
        report = run_repolint(paths=[tmp_path / "src"], root=tmp_path)
        assert any(f.rule == "intkind-subscript"
                   for f in report.findings)

    def test_unmodified_copies_stay_clean(self, tmp_path):
        # Control: identical copies without the seeded bugs raise no
        # intkind findings, so the catches above are the mutations'
        # doing.
        for rel in ("src/repro/bdd/manager.py",
                    "src/repro/bdd/quantify.py"):
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text((REPO_ROOT / rel).read_text())
        report = run_repolint(paths=[tmp_path / "src"], root=tmp_path,
                              rules=["intkind-subscript",
                                     "intkind-complement",
                                     "intkind-mix", "intkind-call",
                                     "intkind-memo-key"])
        assert report.findings == []
