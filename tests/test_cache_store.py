"""Tests for the persistent Theorem 6 component cache.

Covers the serialisation format (validation, canonical JSON,
forward-compatible version gating), manager-independent rehydration
(bit-exact under permuted variable orders), the lazy dormant-entry
lookup path (direct and complement hits, cone emission, promotion),
the run-level store protocol (one read before the session, one merge
after it: load / merge events, readonly mode, corrupt files preserved
and skipped with a warning event), file modes, and the CLI warm-start
behaviour (`--cache-dir` + `--check` + `--stats-json`).
"""

import io
import json
import os
import stat

import pytest

from repro.bdd import BDD, Function
from repro.boolfn import ISF, parse
from repro.decomp import ComponentCache
from repro.decomp.cache_store import (CACHE_FORMAT, CACHE_VERSION,
                                      CacheStoreError,
                                      PersistentComponentCache,
                                      StoredComponent, commit_store,
                                      cone_gate_count, load_store,
                                      make_store, merge_entries,
                                      merge_stores, open_store,
                                      save_store, serialize_cache,
                                      store_component)
from repro.network.extract import node_functions
from repro.network.netlist import Netlist
from repro.pipeline import (Pipeline, PipelineConfig, PipelineInput,
                            Session)

PLA = """\
.i 4
.o 2
.ilb a b c d
.ob f g
.type fd
.p 5
11-- 10
--11 11
00-- 01
1--1 -0
0-0- 01
.e
"""


def make_cached_session(tmp_path, names=("a", "b", "c")):
    """A manager, a netlist-with-inputs and one cached (a&b)|c entry."""
    mgr = BDD(list(names))
    fn = parse(mgr, "(a & b) | c")
    netlist = Netlist()
    var_nodes = {mgr.var_index(n): netlist.add_input(n) for n in names}
    ab = netlist.add_and(var_nodes[mgr.var_index("a")],
                         var_nodes[mgr.var_index("b")])
    root = netlist.add_or(ab, var_nodes[mgr.var_index("c")])
    cache = ComponentCache()
    cache.insert(fn, root)
    return mgr, fn, netlist, var_nodes, cache


def run_with_cache(tmp_path, text=PLA, readonly=False, check=False,
                   label="t", decomposition=None):
    """One single-input run against a store under *tmp_path*, through
    the CLI's helper (one store read before the session, one merge
    after it)."""
    from repro.cli import _run_pipeline
    path = os.path.join(str(tmp_path), "t.cache.json")
    config = PipelineConfig(decomposition=decomposition, cache_path=path,
                            cache_readonly=readonly,
                            check_contracts=check)
    session, run = _run_pipeline(config, Pipeline.standard(),
                                 PipelineInput(text=text, label=label))
    return session, run, path


# ---------------------------------------------------------------------
# StoredComponent: format + validation
# ---------------------------------------------------------------------
class TestStoredComponent:
    def test_roundtrip_dict(self):
        stored = StoredComponent(["a", "b"], [{"a": 1, "b": 0}], gates=2)
        again = StoredComponent.from_dict(stored.as_dict())
        assert again.key() == stored.key()
        assert again.gates == 2

    def test_key_is_order_insensitive(self):
        one = StoredComponent(["a", "b"], [{"a": 1}, {"b": 0}])
        two = StoredComponent(["a", "b"], [{"b": 0}, {"a": 1}])
        assert one.key() == two.key()

    @pytest.mark.parametrize("data", [
        "not a dict",
        {"support": [], "cubes": [], "gates": 0},
        {"support": ["a", 3], "cubes": [], "gates": 0},
        {"support": ["a"], "cubes": "no", "gates": 0},
        {"support": ["a"], "cubes": [{}], "gates": 0},
        {"support": ["a"], "cubes": [{"b": 1}], "gates": 0},
        {"support": ["a"], "cubes": [{"a": 2}], "gates": 0},
        {"support": ["a"], "cubes": [{"a": 1}], "gates": -1},
        # bool is an int subclass, so True/False would slip through a
        # bare `value in (0, 1)` / isinstance(int) check — but they are
        # not canonical store values and must be rejected.
        {"support": ["a"], "cubes": [{"a": True}], "gates": 0},
        {"support": ["a"], "cubes": [{"a": False}], "gates": 0},
        {"support": ["a"], "cubes": [{"a": 1}], "gates": True},
        # A repeated support name keys as ("a", "a") and would never
        # dedup against the canonical ("a",).
        {"support": ["a", "a"], "cubes": [{"a": 1}], "gates": 0},
    ])
    def test_from_dict_rejects_malformed(self, data):
        with pytest.raises(CacheStoreError):
            StoredComponent.from_dict(data)

    def test_rehydrate_unknown_variable_returns_none(self):
        stored = StoredComponent(["a", "zz"], [{"a": 1, "zz": 1}])
        assert stored.rehydrate(BDD(["a", "b"])) is None

    def test_rehydrate_bit_exact_under_permuted_order(self):
        mgr = BDD(["a", "b", "c", "d"])
        fn = parse(mgr, "(a & ~b) | (c & d) | (~a & ~c & ~d)")
        netlist = Netlist()
        for name in "abcd":
            netlist.add_input(name)
        stored = store_component(fn, netlist.constant(1), mgr, netlist)
        # A fresh manager with the order reversed must rebuild the
        # exact same function (cube literals are resolved by name).
        mgr2 = BDD(["d", "c", "b", "a"])
        rebuilt = stored.rehydrate(mgr2)
        expect = parse(mgr2, "(a & ~b) | (c & d) | (~a & ~c & ~d)")
        assert rebuilt.node == expect.node

    def test_tautology_cube_emits_constant(self):
        stored = StoredComponent(["a"], [{}])
        netlist = Netlist()
        netlist.add_input("a")
        # A literal-free cube is the constant-1 cover.
        assert stored.emit_cone(netlist, {0: netlist.input_node("a")},
                                BDD(["a"])) == netlist.constant(1)


# ---------------------------------------------------------------------
# Store files: save / load / version gating
# ---------------------------------------------------------------------
class TestStoreFile:
    def test_save_load_roundtrip(self, tmp_path):
        mgr, fn, netlist, _vn, cache = make_cached_session(tmp_path)
        doc = serialize_cache(cache, mgr, netlist, label="toy")
        path = save_store(str(tmp_path / "toy.cache.json"), doc)
        entries, skipped = load_store(path)
        assert skipped == 0
        assert len(entries) == 1
        assert entries[0].support == ("a", "b", "c")
        assert entries[0].gates == cone_gate_count(
            netlist, next(cache.entries())[1])

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CacheStoreError):
            load_store(str(tmp_path / "absent.cache.json"))

    def test_load_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.cache.json"
        path.write_text("{ not json")
        with pytest.raises(CacheStoreError):
            load_store(str(path))

    def test_load_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else",
                                    "version": 1, "entries": []}))
        with pytest.raises(CacheStoreError):
            load_store(str(path))

    def test_load_newer_version_raises(self, tmp_path):
        path = tmp_path / "future.cache.json"
        path.write_text(json.dumps({"format": CACHE_FORMAT,
                                    "version": CACHE_VERSION + 1,
                                    "entries": []}))
        with pytest.raises(CacheStoreError):
            load_store(str(path))

    def test_load_bool_version_raises(self, tmp_path):
        # bool is an int subclass: JSON true must not pass as version 1.
        path = tmp_path / "bool.cache.json"
        path.write_text(json.dumps({"format": CACHE_FORMAT,
                                    "version": True, "entries": []}))
        with pytest.raises(CacheStoreError, match="version"):
            load_store(str(path))

    def test_malformed_entries_skipped_not_fatal(self, tmp_path):
        good = StoredComponent(["a"], [{"a": 1}]).as_dict()
        twice = {"support": ["a", "a"], "cubes": [{"a": 1}], "gates": 0}
        path = tmp_path / "mixed.cache.json"
        path.write_text(json.dumps({
            "format": CACHE_FORMAT, "version": CACHE_VERSION,
            "entries": [good, {"support": "nope"}, 42, twice]}))
        entries, skipped = load_store(str(path))
        assert len(entries) == 1
        assert skipped == 3

    def test_serialize_skips_constants(self, tmp_path):
        mgr = BDD(["a"])
        netlist = Netlist()
        netlist.add_input("a")
        cache = ComponentCache()
        cache.insert(Function(mgr, mgr.true), netlist.constant(1))
        doc = serialize_cache(cache, mgr, netlist)
        assert doc["entries"] == []

    def test_serialize_writes_live_entries_only(self, tmp_path):
        stored = StoredComponent(["a", "b"], [{"a": 1, "b": 1}], gates=1)
        cache = PersistentComponentCache([stored])
        mgr = BDD(["a", "b"])
        netlist = Netlist()
        for name in "ab":
            netlist.add_input(name)
        # A never-rehydrated entry is not the session's to write: the
        # run's merge keeps it from the store file itself.
        assert serialize_cache(cache, mgr, netlist)["entries"] == []


# ---------------------------------------------------------------------
# Atomic writes + store merging
# ---------------------------------------------------------------------
class TestAtomicSave:
    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "t.cache.json")
        save_store(path, make_store([]))
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name != "t.cache.json"]
        assert leftovers == []

    def test_failed_replace_keeps_original_and_cleans_temp(self, tmp_path,
                                                           monkeypatch):
        import repro.decomp.cache_store as cache_store
        path = str(tmp_path / "t.cache.json")
        entry = StoredComponent(["a"], [{"a": 1}])
        save_store(path, make_store([entry]))
        before = open(path).read()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache_store.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_store(path, make_store([]))
        # The original store is untouched and no temp file survives.
        assert open(path).read() == before
        assert os.listdir(str(tmp_path)) == ["t.cache.json"]

    def test_saved_with_plain_open_mode(self, tmp_path):
        old_mask = os.umask(0o022)
        try:
            path = save_store(str(tmp_path / "rd53.cache.json"),
                              make_store([]))
            with open(str(tmp_path / "plain.txt"), "w") as handle:
                handle.write("x")
        finally:
            os.umask(old_mask)
        mode = stat.S_IMODE(os.stat(path).st_mode)
        assert mode == 0o644
        assert mode == stat.S_IMODE(
            os.stat(str(tmp_path / "plain.txt")).st_mode)


class TestMerge:
    def entry(self, support, cube, gates=0):
        return StoredComponent(list(support),
                               [dict(cube)], gates=gates)

    def test_many_lists_merge_in_argument_order(self):
        one = self.entry("ab", {"a": 1}, gates=3)
        two = self.entry("ab", {"b": 0})
        three = self.entry("ab", {"a": 1}, gates=1)
        merged = merge_entries([one], [two], [three])
        assert [e.key() for e in merged] == [one.key(), two.key()]
        assert merged[0].gates == 1

    def test_union_preserves_order_a_then_b(self):
        one = self.entry("ab", {"a": 1})
        two = self.entry("ab", {"b": 0})
        three = self.entry("ab", {"a": 0, "b": 1})
        merged = merge_entries([one, two], [three, two])
        assert [e.key() for e in merged] \
            == [one.key(), two.key(), three.key()]

    def test_duplicate_key_keeps_smaller_cone(self):
        big = self.entry("ab", {"a": 1}, gates=7)
        small = self.entry("ab", {"a": 1}, gates=2)
        assert merge_entries([big], [small])[0].gates == 2
        assert merge_entries([small], [big])[0].gates == 2

    def test_merge_stores_documents(self):
        a = make_store([self.entry("ab", {"a": 1}, gates=3)], label="a")
        b = make_store([self.entry("ab", {"a": 1}, gates=1),
                        self.entry("ab", {"b": 1})])
        merged = merge_stores(a, b)
        assert merged["format"] == CACHE_FORMAT
        assert merged["label"] == "a"
        assert len(merged["entries"]) == 2
        assert StoredComponent.from_dict(merged["entries"][0]).gates == 1

    def test_merge_rejects_invalid_document(self):
        good = make_store([])
        with pytest.raises(CacheStoreError):
            merge_stores(good, {"format": "bogus"})
        with pytest.raises(CacheStoreError):
            merge_stores({"format": CACHE_FORMAT,
                          "version": CACHE_VERSION + 1,
                          "entries": []}, good)

    def test_merge_drops_malformed_entries(self):
        ok = self.entry("ab", {"a": 1}).as_dict()
        dirty = {"format": CACHE_FORMAT, "version": CACHE_VERSION,
                 "entries": [ok, {"support": "nope"}]}
        merged = merge_stores(dirty, make_store([]))
        assert len(merged["entries"]) == 1


# ---------------------------------------------------------------------
# PersistentComponentCache: dormant lookups
# ---------------------------------------------------------------------
class TestPersistentCache:
    def build(self, expr="(a & b) | c", names=("a", "b", "c"),
              order=None):
        mgr = BDD(list(names))
        fn = parse(mgr, expr)
        netlist = Netlist()
        var_nodes = {mgr.var_index(n): netlist.add_input(n)
                     for n in names}
        stored = StoredComponent(
            sorted(mgr.var_name(v) for v in fn.support()),
            [{mgr.var_name(var): value
              for var, value in cube.literals.items()}
             for cube in fn.isop()[1]])
        order = order or list(names)
        mgr2 = BDD(order)
        fn2 = parse(mgr2, expr)
        netlist2 = Netlist()
        var_nodes2 = {mgr2.var_index(n): netlist2.add_input(n)
                      for n in order}
        cache = PersistentComponentCache([stored])
        cache.bind(mgr2, netlist2, var_nodes2)
        return mgr2, fn2, netlist2, cache

    def test_direct_hit_rehydrates_and_promotes(self):
        mgr, fn, netlist, cache = self.build(order=["c", "a", "b"])
        hit = cache.lookup(ISF.from_csf(fn), fn.support())
        assert hit is not None
        csf, node, complemented = hit
        assert complemented is False
        assert csf.node == fn.node
        assert node_functions(netlist, mgr,
                              restrict_to={node})[node] == fn.node
        stats = cache.stats()
        assert stats["rehydrated_hits"] == 1
        assert stats["rehydrated_entries"] == 1
        assert stats["dormant"] == 0
        # Promoted: the second lookup is a plain live hit.
        again = cache.lookup(ISF.from_csf(fn), fn.support())
        assert again[1] == node
        assert cache.stats()["rehydrated_hits"] == 1

    def test_complement_hit(self):
        mgr, fn, netlist, cache = self.build()
        isf = ISF.from_csf(~fn)
        csf, node, complemented = cache.lookup(isf, fn.support())
        assert complemented is True
        assert csf.node == (~fn).node
        # The returned node still implements the *stored* function;
        # the engine adds the inverter.
        assert node_functions(netlist, mgr,
                              restrict_to={node})[node] == fn.node
        assert cache.stats()["rehydrated_complement_hits"] == 1

    def test_incompatible_isf_misses(self):
        mgr, fn, netlist, cache = self.build()
        other = parse(mgr, "a ^ (b | ~c)")
        assert cache.lookup(ISF.from_csf(other), other.support()) is None
        assert cache.stats()["rehydrated_hits"] == 0
        assert cache.stats()["dormant"] == 1

    def test_unbound_cache_behaves_like_plain(self):
        stored = StoredComponent(["a", "b"], [{"a": 1, "b": 1}])
        cache = PersistentComponentCache([stored])
        mgr = BDD(["a", "b"])
        fn = parse(mgr, "a & b")
        assert cache.lookup(ISF.from_csf(fn), fn.support()) is None

    def test_on_hit_seam_fires_for_rehydrated_hits(self):
        mgr, fn, netlist, cache = self.build()
        seen = []
        cache.on_hit = lambda isf, csf, node, comp: seen.append(comp)
        cache.lookup(ISF.from_csf(fn), fn.support())
        assert seen == [False]


# ---------------------------------------------------------------------
# Session lifecycle: load / flush / events
# ---------------------------------------------------------------------
class TestSessionPersistence:
    def test_cold_run_flushes_store(self, tmp_path):
        session, run, path = run_with_cache(tmp_path)
        assert os.path.exists(path)
        merged = session.events.named("component_cache_merged")
        assert merged and merged[-1]["entries"] > 0
        assert not session.events.named("component_cache_loaded")

    def test_warm_run_loads_and_hits(self, tmp_path):
        _s1, cold, path = run_with_cache(tmp_path)
        session, warm, _path = run_with_cache(tmp_path)
        loaded = session.events.named("component_cache_loaded")
        assert loaded and loaded[-1]["entries"] > 0
        cold_doc = cold.stats_json()
        warm_doc = warm.stats_json()
        assert warm_doc["rehydrated_hits"] > 0
        assert warm_doc["cache_hit_rate"] > cold_doc["cache_hit_rate"]

    def test_warm_run_verifies_under_check(self, tmp_path):
        run_with_cache(tmp_path)
        session, warm, _path = run_with_cache(tmp_path, check=True)
        assert warm.stats_json()["rehydrated_hits"] > 0
        assert not session.events.named("contract_violated")
        decomp = warm.stage_record("decompose")
        assert decomp["contracts"]["total_violations"] == 0

    def test_warm_netlist_passes_lint(self, tmp_path):
        from repro.analysis import lint_netlist
        run_with_cache(tmp_path)
        _session, warm, _path = run_with_cache(tmp_path)
        assert warm.stats_json()["rehydrated_hits"] > 0
        report = lint_netlist(warm.netlist, specs=warm.specs)
        assert not report.has_errors()

    def test_readonly_never_writes(self, tmp_path):
        _s1, _cold, path = run_with_cache(tmp_path)
        before = open(path).read()
        session, warm, _path = run_with_cache(tmp_path, readonly=True)
        assert warm.stats_json()["rehydrated_hits"] > 0
        assert not session.events.named("component_cache_merged")
        assert open(path).read() == before

    def test_corrupt_store_warns_and_runs_cold(self, tmp_path):
        path = tmp_path / "t.cache.json"
        path.write_text("{ definitely not json")
        session, run, _path = run_with_cache(tmp_path)
        failed = session.events.named("component_cache_load_failed")
        assert failed and "corrupt" in failed[-1]["error"]
        assert run.stats_json()["rehydrated_hits"] == 0
        assert run.blif  # the run itself completed
        # The unreadable file was set aside, not overwritten.
        preserved = str(path) + ".corrupt"
        assert failed[-1]["preserved"] == preserved
        assert tmp_path.joinpath("t.cache.json.corrupt").read_text() \
            == "{ definitely not json"
        assert load_store(str(path))[1] == 0

    def test_corrupt_store_left_alone_when_readonly(self, tmp_path):
        path = tmp_path / "t.cache.json"
        path.write_text("{ definitely not json")
        session, run, _path = run_with_cache(tmp_path, readonly=True)
        assert session.events.named("component_cache_load_failed")
        assert run.blif
        assert path.read_text() == "{ definitely not json"
        assert not os.path.exists(str(path) + ".corrupt")

    def test_version_mismatch_warns_and_runs_cold(self, tmp_path):
        path = tmp_path / "t.cache.json"
        path.write_text(json.dumps({"format": CACHE_FORMAT,
                                    "version": CACHE_VERSION + 1,
                                    "entries": []}))
        session, run, _path = run_with_cache(tmp_path)
        failed = session.events.named("component_cache_load_failed")
        assert failed and "version" in failed[-1]["error"]
        assert run.blif

    def test_session_never_touches_the_store_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "t.cache.json")
        with Session(PipelineConfig(cache_path=path), stored=[]) as session:
            Pipeline.standard(emit=False).run(
                session, PipelineInput(text=PLA, label="t"))
        # The live components are handed back, never written.
        assert session.component_entries()
        assert not os.path.exists(path)
        assert os.listdir(str(tmp_path)) == []

    def test_flush_skipped_when_cache_disabled(self, tmp_path):
        from repro.decomp import DecompositionConfig
        session, run, path = run_with_cache(
            tmp_path, decomposition=DecompositionConfig(use_cache=False))
        # NullCache has no components worth writing: nothing to merge,
        # and no empty store is created either.
        assert run.blif
        assert session.component_entries() == []
        assert not os.path.exists(path)
        assert not session.events.named("component_cache_merged")


# ---------------------------------------------------------------------
# The run-level protocol: open_store / commit_store
# ---------------------------------------------------------------------
class TestRunProtocol:
    def entry(self, *names, gates=0):
        return StoredComponent(list(names), [{name: 1 for name in names}],
                               gates=gates)

    def test_open_missing_store_is_a_cold_start(self, tmp_path):
        from repro.pipeline import EventBus
        events = EventBus()
        assert open_store(str(tmp_path / "none.cache.json"),
                          events=events) == []
        assert events.history == []

    def test_open_publishes_loaded(self, tmp_path):
        from repro.pipeline import EventBus
        path = save_store(str(tmp_path / "s.cache.json"),
                          make_store([self.entry("a")]))
        events = EventBus()
        entries = open_store(path, events=events)
        assert [e.support for e in entries] == [("a",)]
        loaded = events.named("component_cache_loaded")
        assert loaded[0]["entries"] == 1 and loaded[0]["skipped"] == 0

    def test_commit_canonicalises_contributions(self, tmp_path):
        # A live entry's support comes in manager order; the merge keys
        # it in sorted order, so it dedups against the stored copy.
        path = save_store(str(tmp_path / "s.cache.json"),
                          make_store([self.entry("a", "b", gates=4)]))
        live = {"support": ["b", "a"], "cubes": [{"b": 1, "a": 1}],
                "gates": 2}
        _path, count = commit_store(path, [[live]])
        entries, _skipped = load_store(path)
        assert count == 1 and len(entries) == 1
        assert entries[0].support == ("a", "b")
        assert entries[0].gates == 2

    def test_commit_keeps_entries_written_meanwhile(self, tmp_path):
        path = str(tmp_path / "s.cache.json")
        save_store(path, make_store([self.entry("a")]))
        stored = open_store(path)
        # Another writer adds an entry while the run is going on.
        save_store(path, make_store(stored + [self.entry("b")]))
        commit_store(path, [[self.entry("c").as_dict()]], label="x")
        entries, _skipped = load_store(path)
        assert [e.support for e in entries] == [("a",), ("b",), ("c",)]

    def test_commit_without_store_or_contributions_writes_nothing(
            self, tmp_path):
        path = str(tmp_path / "s.cache.json")
        assert commit_store(path, [[], []]) == (None, 0)
        assert not os.path.exists(path)


# ---------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------
class TestCLIWarmStart:
    def run_cli(self, argv):
        from repro.cli import main
        out = io.StringIO()
        code = main(argv, stdout=out)
        return code, out.getvalue()

    def test_cache_dir_warm_start(self, tmp_path):
        pla = tmp_path / "bench.pla"
        pla.write_text(PLA)
        cold_json = str(tmp_path / "cold.json")
        warm_json = str(tmp_path / "warm.json")
        cache_dir = str(tmp_path / "cache")
        base = ["decompose", str(pla), "-o", str(tmp_path / "out.blif"),
                "--check", "--cache-dir", cache_dir]
        code, _out = self.run_cli(base + ["--stats-json", cold_json])
        assert code == 0
        assert os.path.exists(os.path.join(cache_dir, "bench.cache.json"))
        code, _out = self.run_cli(base + ["--stats-json", warm_json])
        assert code == 0
        cold = json.load(open(cold_json))
        warm = json.load(open(warm_json))
        assert cold["rehydrated_hits"] == 0
        assert warm["rehydrated_hits"] > 0
        assert warm["cache_hit_rate"] > cold["cache_hit_rate"]
        assert warm["config"]["cache_path"].endswith("bench.cache.json")

    def test_cache_readonly_flag(self, tmp_path):
        pla = tmp_path / "bench.pla"
        pla.write_text(PLA)
        cache_dir = str(tmp_path / "cache")
        store = os.path.join(cache_dir, "bench.cache.json")
        code, _ = self.run_cli(["decompose", str(pla), "-o",
                                str(tmp_path / "a.blif"),
                                "--cache-dir", cache_dir])
        assert code == 0
        before = open(store).read()
        code, _ = self.run_cli(["decompose", str(pla), "-o",
                                str(tmp_path / "b.blif"),
                                "--cache-dir", cache_dir,
                                "--cache-readonly"])
        assert code == 0
        assert open(store).read() == before

    def test_cache_readonly_needs_cache_dir(self, tmp_path, capsys):
        pla = tmp_path / "bench.pla"
        pla.write_text(PLA)
        code, _ = self.run_cli(["decompose", str(pla), "-o",
                                str(tmp_path / "a.blif"),
                                "--cache-readonly"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and "cache_readonly" in err
        assert not os.path.exists(str(tmp_path / "a.blif"))

    def test_corrupt_store_preserved_by_single_input_run(self, tmp_path):
        pla = tmp_path / "bench.pla"
        pla.write_text(PLA)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        store = cache_dir / "bench.cache.json"
        store.write_text("NOT JSON {{{")
        code, _ = self.run_cli(["decompose", str(pla), "-o",
                                str(tmp_path / "a.blif"),
                                "--cache-dir", str(cache_dir)])
        assert code == 0
        assert (cache_dir / "bench.cache.json.corrupt").read_text() \
            == "NOT JSON {{{"
        entries, skipped = load_store(str(store))
        assert entries and skipped == 0
