"""Tests for the session/pipeline layer.

Covers the event stream (ordering, timing fields), resource budgets
(wall-clock and BDD-node limits trip cleanly), the one-input-per-session
guards (a second run, a second manager or a redeclared output name
raise), configuration validation, and driver ergonomics (error
messages, recursion-limit restoration).
"""

import inspect
import io
import json
import sys
import traceback

import pytest

from repro.bdd import BDD, exists, native
from repro.bench import get
from repro.boolfn import ISF, parse
from repro.decomp import bi_decompose
from repro.decomp.bidecomp import DecompositionEngine
from repro.io import write_blif
from repro.pipeline import (DEFAULT_RECURSION_LIMIT, Deadline, EventBus,
                            NodeLimitExceeded, Pipeline, PipelineConfig,
                            PipelineError, PipelineInput, PipelineTimeout,
                            Session, recursion_guard)

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

def run_standard(text=PLA, config=None, **kwargs):
    session = Session(config or PipelineConfig())
    run = Pipeline.standard(**kwargs).run(
        session, PipelineInput(text=text, label="t"))
    return session, run


# ---------------------------------------------------------------------
# Event stream
# ---------------------------------------------------------------------
class TestEvents:
    def test_stage_events_alternate_in_declared_order(self):
        session, run = run_standard()
        names = [(e.name, e.payload.get("stage"))
                 for e in session.events.history
                 if e.name in ("stage_started", "stage_finished")]
        stages = Pipeline.standard().stage_names()
        expected = []
        for stage in stages:
            expected.append(("stage_started", stage))
            expected.append(("stage_finished", stage))
        assert names == expected

    def test_stage_finished_carries_timing_and_node_count(self):
        session, run = run_standard()
        assert len(run.stages) == len(Pipeline.standard().stages)
        for payload in run.stages:
            assert payload["elapsed"] >= 0.0
            assert payload["bdd_nodes"] >= 0
        decomp = run.stage_record("decompose")
        assert decomp["gates"] > 0
        assert "decomposition" in decomp
        assert "cache_hit_rate" in decomp
        assert 0.0 <= decomp["cache_hit_rate"] <= 1.0

    def test_skipped_stages_still_emit_events(self):
        mgr = BDD(["a", "b"])
        spec = ISF.from_csf(parse(mgr, "a & b"))
        session = Session()
        run = Pipeline.standard().run(
            session, PipelineInput(mgr=mgr, specs={"y": spec}))
        assert run.stage_record("parse")["skipped"] is True
        assert run.stage_record("build_isfs")["skipped"] is True
        assert run.stage_record("decompose").get("skipped") is None

    def test_verify_skipped_when_disabled(self):
        _session, run = run_standard(config=PipelineConfig(verify=False))
        assert run.stage_record("verify")["skipped"] is True

    def test_stage_failed_event_on_error(self):
        session = Session()
        with pytest.raises(ValueError):
            with session.stage("boom"):
                raise ValueError("no")
        failed = [e for e in session.events.history
                  if e.name == "stage_failed"]
        assert len(failed) == 1
        assert failed[0]["stage"] == "boom"
        assert failed[0]["error"] == "ValueError"

    def test_event_bus_unsubscribe(self):
        bus = EventBus()
        seen = []
        handle = bus.subscribe(lambda e: seen.append(e.name))
        bus.publish("one")
        bus.unsubscribe(handle)
        bus.publish("two")
        assert seen == ["one"]
        assert [e.name for e in bus.history] == ["one", "two"]


# ---------------------------------------------------------------------
# Resource budgets
# ---------------------------------------------------------------------
#: ``(function, line)`` that runs the growth hook inside a kernel walk:
#: the hand-over to the C loops where they are loaded, else the Python
#: loops' own hook call.
_KERNEL_CALL = {
    "and_": ("and_", "return self._kernel.and_(self, f, g, _CT_MAX)"),
    "exists": ("_exists_iter",
               "return mgr._kernel.exists(mgr, f, levels, sids, cache,"),
    "grouping": ("variable_grouping",
                 "return mgr._kernel.group_variables("),
} if native.ACTIVE else {
    "and_": ("and_", "self._growth_hook(self)"),
    "exists": ("and_", "self._growth_hook(self)"),
    "grouping": ("and_", "self._growth_hook(self)"),
}


def _hook_caller(info):
    """``(function, line)`` of the frame that ran the growth hook."""
    frames = traceback.extract_tb(info.tb)
    names = [frame.name for frame in frames]
    caller = frames[names.index("_on_manager_growth") - 1]
    return caller.name, caller.line


class TestLimits:
    def test_time_limit_raises_pipeline_timeout(self):
        session = Session(PipelineConfig(time_limit=1e-9))
        with pytest.raises(PipelineTimeout) as info:
            Pipeline.standard().run(session, PipelineInput(text=PLA))
        assert info.value.budget == 1e-9
        assert isinstance(info.value, PipelineError)

    def test_node_limit_raises_clean_error(self):
        mgr, specs = get("9sym").build()
        assert mgr._kernel is native.KERNEL
        session = Session(PipelineConfig(max_nodes=10), mgr=mgr)
        with pytest.raises(NodeLimitExceeded) as info:
            Pipeline.standard().run(
                session, PipelineInput(mgr=mgr, specs=specs))
        assert info.value.limit == 10
        assert info.value.nodes > 10

    def test_node_limit_trips_inside_the_kernel_walk(self):
        # One node over the built specs: the first growth-hook check
        # fires inside an AND walk of the first variable grouping — the
        # grouping's C entry where it is loaded, else the Python AND loop.
        mgr, specs = get("9sym").build()
        session = Session(PipelineConfig(max_nodes=mgr.live_count() + 1),
                          mgr=mgr)
        with pytest.raises(NodeLimitExceeded) as info:
            Pipeline.standard().run(
                session, PipelineInput(mgr=mgr, specs=specs))
        assert _hook_caller(info) == _KERNEL_CALL["grouping"]
        assert info.value.stage == "decompose"

    @pytest.mark.parametrize("op", ["and_", "exists"])
    def test_time_limit_trips_inside_the_kernel_walk(self, op):
        mgr = BDD(["x%d" % i for i in range(20)])
        f = g = mgr.false
        for i in range(10):
            f = mgr.xor(f, mgr.and_(mgr.var(i), mgr.var(i + 10)))
            g = mgr.or_(g, mgr.and_(mgr.var(i), mgr.nvar(i + 10)))
        h = mgr.xor(f, g)
        session = Session(PipelineConfig(time_limit=600.0), mgr=mgr)
        session.adopt_deadline(Deadline(1e-9))
        with pytest.raises(PipelineTimeout) as info:
            if op == "and_":
                mgr.and_(f, g)
            else:
                exists(mgr, [0, 2, 4, 11, 13], h)
        assert _hook_caller(info) == _KERNEL_CALL[op]

    def test_generous_limits_do_not_interfere(self):
        _session, run = run_standard(
            config=PipelineConfig(time_limit=600.0, max_nodes=10**7))
        assert run.blif.startswith(".model")

    def test_deadline_reports_elapsed(self):
        deadline = Deadline(1e-9)
        with pytest.raises(PipelineTimeout) as info:
            deadline.check(stage="decompose")
        assert info.value.elapsed >= 0.0
        assert "decompose" in str(info.value)


# ---------------------------------------------------------------------
# One input per session
# ---------------------------------------------------------------------
class TestOneInputPerSession:
    @pytest.mark.parametrize("prebuilt", (False, True))
    def test_second_run_raises(self, prebuilt):
        mgr, specs = get("rd53").build()
        source = (PipelineInput(mgr=mgr, specs=specs) if prebuilt
                  else PipelineInput(text=PLA))
        session = Session()
        Pipeline.standard().run(session, source)
        with pytest.raises(ValueError, match="already ran an input"):
            Pipeline.standard().run(session, source)

    def test_second_manager_raises(self):
        mgr1, _specs1 = get("rd53").build()
        mgr2, specs2 = get("rd53").build()
        session = Session(mgr=mgr1)
        assert session.adopt_manager(mgr1) is mgr1
        with pytest.raises(ValueError, match="different BDD manager"):
            session.adopt_manager(mgr2)
        with pytest.raises(ValueError, match="different BDD manager"):
            session.decompose_specs(specs2)
        assert session.mgr is mgr1

    def test_text_input_needs_a_session_without_manager(self):
        # build_isfs builds a fresh manager for a PLA; it never extends
        # a manager the session already owns.
        mgr = BDD(["a", "b"])
        session = Session(mgr=mgr)
        with pytest.raises(ValueError, match="different BDD manager"):
            Pipeline.standard().run(session, PipelineInput(text=PLA))
        assert mgr.num_vars == 2

    def test_redeclared_output_name_raises(self):
        mgr = BDD(["a", "b", "c"])
        session = Session(mgr=mgr)
        session.decompose_specs({"f": ISF.from_csf(parse(mgr, "a & b"))})
        with pytest.raises(ValueError, match="already declares"):
            session.decompose_specs(
                {"g": ISF.from_csf(parse(mgr, "b | c")),
                 "f": ISF.from_csf(parse(mgr, "a ^ c"))})
        assert [name for name, _node in session.netlist.outputs] == ["f"]


# ---------------------------------------------------------------------
# Session lifecycle regressions
# ---------------------------------------------------------------------
class TestSessionLifecycle:
    def test_nested_stage_restores_outer_attribution(self):
        # An inner stage must not clear the outer stage's name: events
        # published after the inner stage exits (limit violations,
        # contract_violated, decompose_progress) carry the outer stage.
        session = Session()
        with session.stage("decompose"):
            with session.stage("verify"):
                pass
            session._on_contract_violation("cache-compatible", "test")
        event = session.events.named("contract_violated")[-1]
        assert event["stage"] == "decompose"

    def test_stage_cleared_after_outermost_exit(self):
        session = Session()
        with session.stage("decompose"):
            pass
        session._on_contract_violation("cache-compatible", "test")
        assert session.events.named("contract_violated")[-1]["stage"] \
            is None

    def test_same_manager_twice_keeps_cache(self):
        # decompose_specs re-adopts the specs' manager every call;
        # adopting the manager the session already owns must be a
        # no-op that keeps the engine and its component cache.  Each
        # call reports the counters it added, not the engine totals.
        mgr, specs = get("rd53").build()
        first_name, *rest = sorted(specs)
        session = Session()
        first = session.decompose_specs({first_name: specs[first_name]})
        engine = session.engine
        size_before = engine.cache.size()
        second = session.decompose_specs({name: specs[name]
                                          for name in rest})
        assert session.engine is engine and session.mgr is mgr
        assert engine.cache.size() >= size_before
        assert first.stats.calls > 0 and second.stats.calls > 0
        assert (first.stats.calls + second.stats.calls
                == engine.stats.calls)
        assert len(session.netlist.outputs) == len(specs)

    def test_stage_failed_carries_record_and_nodes(self):
        # Partial counters recorded before the failure must survive
        # into the stage_failed payload, like stage_finished.
        session = Session()
        with pytest.raises(ValueError):
            with session.stage("decompose") as record:
                record["gates"] = 7
                raise ValueError("boom")
        failed = session.events.named("stage_failed")[-1]
        assert failed["stage"] == "decompose"
        assert failed["error"] == "ValueError"
        assert failed["gates"] == 7
        assert failed["bdd_nodes"] >= 0


# ---------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------
class TestConfig:
    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError, match="flow"):
            PipelineConfig(flow="abc")

    @pytest.mark.parametrize("kwargs", [
        {"time_limit": 0}, {"time_limit": -1.0},
        {"max_nodes": 0}, {"max_nodes": -5},
    ])
    def test_rejects_non_positive_budgets(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_rejects_non_string_cache_path(self):
        with pytest.raises(ValueError, match="cache_path"):
            PipelineConfig(cache_path=123)

    def test_cache_fields_in_as_dict(self):
        config = PipelineConfig(cache_path="x.cache.json",
                                cache_readonly=True)
        doc = config.as_dict()
        assert doc["cache_path"] == "x.cache.json"
        assert doc["cache_readonly"] is True
        assert doc["sweep_store"] is False

    def test_cache_readonly_requires_cache_path(self):
        with pytest.raises(ValueError, match="cache_readonly"):
            PipelineConfig(cache_readonly=True)

    def test_thirteen_fields(self):
        # recursion_limit and progress_interval are module constants
        # (repro.pipeline.limits / repro.pipeline.session), not knobs;
        # the baseline flows take no options.
        fields = inspect.signature(PipelineConfig).parameters
        assert len(fields) == 13
        assert "flow_options" not in fields
        assert "recursion_limit" not in fields
        assert "progress_interval" not in fields

    def test_sweep_store_requires_cache_path(self):
        with pytest.raises(ValueError, match="sweep_store"):
            PipelineConfig(sweep_store=True)
        config = PipelineConfig(cache_path="sweep.cache.json",
                                sweep_store=True)
        assert config.as_dict()["sweep_store"] is True

    def test_coerce_passthrough_and_wrapping(self):
        config = PipelineConfig()
        assert PipelineConfig.coerce(config) is config
        assert PipelineConfig.coerce(None).flow == "bidecomp"
        from repro.decomp import DecompositionConfig
        decomp = DecompositionConfig(use_exor=False)
        coerced = PipelineConfig.coerce(decomp)
        assert coerced.decomposition is decomp

    def test_as_dict_round_trips_fields(self):
        config = PipelineConfig(time_limit=2.5, max_nodes=1000)
        doc = config.as_dict()
        assert doc["time_limit"] == 2.5
        assert doc["max_nodes"] == 1000
        assert doc["flow"] == "bidecomp"
        assert doc["verify"] is True


# ---------------------------------------------------------------------
# Driver ergonomics (satellite: bi_decompose error messages + recursion)
# ---------------------------------------------------------------------
class TestDriverErgonomics:
    def test_empty_spec_dict_is_rejected_with_message(self):
        with pytest.raises(ValueError, match="empty specification dict"):
            bi_decompose({})

    def test_mixed_managers_rejected_naming_outputs(self):
        mgr1 = BDD(["a", "b"])
        mgr2 = BDD(["a", "b"])
        specs = {
            "p": ISF.from_csf(parse(mgr1, "a & b")),
            "q": ISF.from_csf(parse(mgr1, "a | b")),
            "r": ISF.from_csf(parse(mgr2, "a ^ b")),
        }
        with pytest.raises(ValueError) as info:
            bi_decompose(specs)
        message = str(info.value)
        assert "p" in message and "q" in message and "r" in message
        assert "manager" in message

    def test_recursion_limit_restored_after_success(self):
        before = sys.getrecursionlimit()
        mgr, specs = get("rd53").build()
        bi_decompose(specs)
        assert sys.getrecursionlimit() == before

    def test_recursion_limit_restored_when_decompose_raises(self,
                                                            monkeypatch):
        before = sys.getrecursionlimit()

        def explode(self, isf):
            assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT
            raise RuntimeError("engine blew up")

        monkeypatch.setattr(DecompositionEngine, "decompose", explode)
        mgr, specs = get("rd53").build()
        with pytest.raises(RuntimeError, match="engine blew up"):
            bi_decompose(specs)
        assert sys.getrecursionlimit() == before

    def test_recursion_guard_restores_on_raise(self):
        before = sys.getrecursionlimit()
        with pytest.raises(KeyError):
            with recursion_guard(before + 1234):
                assert sys.getrecursionlimit() == before + 1234
                raise KeyError("boom")
        assert sys.getrecursionlimit() == before


# ---------------------------------------------------------------------
# Stats report (the --stats-json document)
# ---------------------------------------------------------------------
class TestStatsJson:
    def test_report_structure(self):
        session, run = run_standard()
        doc = run.stats_json(config=session.config)
        assert doc["label"] == "t"
        assert doc["elapsed"] > 0.0
        assert [s["stage"] for s in doc["stages"]] == \
            Pipeline.standard().stage_names()
        for stage in doc["stages"]:
            assert "elapsed" in stage and "bdd_nodes" in stage
        assert doc["netlist"]["gates"] > 0
        assert doc["decomposition"]["calls"] > 0
        assert "cache_hit_rate" in doc
        assert doc["config"]["flow"] == "bidecomp"
        # The report must be JSON-serialisable as-is.
        json.dumps(doc)

    def test_cli_stats_json_to_file(self, tmp_path):
        from repro.cli import main
        pla_path = tmp_path / "in.pla"
        pla_path.write_text(PLA)
        stats_path = tmp_path / "stats.json"
        out = io.StringIO()
        assert main(["decompose", str(pla_path), "-o",
                     str(tmp_path / "out.blif"),
                     "--stats-json", str(stats_path),
                     "--time-limit", "600", "--max-nodes", "10000000"],
                    stdout=out) == 0
        doc = json.loads(stats_path.read_text())
        assert doc["config"]["time_limit"] == 600.0
        assert doc["config"]["max_nodes"] == 10000000
        assert doc["netlist"]["gates"] > 0
        assert {s["stage"] for s in doc["stages"]} >= \
            {"parse", "build_isfs", "decompose", "verify", "emit"}

    def test_cli_stats_json_records_engine_switches(self, tmp_path):
        from repro.cli import main
        pla_path = tmp_path / "in.pla"
        pla_path.write_text(PLA)
        stats_path = tmp_path / "stats.json"
        assert main(["decompose", str(pla_path), "-o",
                     str(tmp_path / "out.blif"), "--no-exor",
                     "--weak-xa-size", "2",
                     "--stats-json", str(stats_path)],
                    stdout=io.StringIO()) == 0
        doc = json.loads(stats_path.read_text())
        assert doc["config"]["decomposition"] == {
            "use_or": True, "use_and": True, "use_exor": False,
            "use_weak": True, "use_cache": True,
            "exhaustive_grouping": False, "weak_xa_size": 2}

    def test_cli_time_limit_trips_with_exit_code_3(self, tmp_path):
        from repro.cli import main
        pla_path = tmp_path / "in.pla"
        pla_path.write_text(PLA)
        out = io.StringIO()
        assert main(["decompose", str(pla_path),
                     "--time-limit", "1e-9"], stdout=out) == 3


# ---------------------------------------------------------------------
# Golden equivalence: pipeline output is byte-identical to the direct
# driver path (the pre-refactor program).
# ---------------------------------------------------------------------
GOLDEN_NAMES = ("rd53", "xor5", "maj", "squar5", "misex1", "z4ml")


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_pipeline_blif_matches_driver_blif(self, name):
        # Two independent builds: the driver path and the pipeline path
        # must agree byte-for-byte on the emitted BLIF.
        mgr1, specs1 = get(name).build()
        direct = bi_decompose(specs1, verify=True)
        direct_blif = write_blif(direct.netlist, model="bidecomp")

        mgr2, specs2 = get(name).build()
        session = Session()
        run = Pipeline.standard().run(
            session, PipelineInput(mgr=mgr2, specs=specs2, label=name))
        assert run.blif == direct_blif

        d_stats = direct.netlist_stats()
        p_stats = run.netlist_stats()
        assert d_stats.as_dict() == p_stats.as_dict()
        assert direct.stats.as_dict() == run.result.stats.as_dict()
