"""Tests for the multi-process batch executor (repro.pipeline.parallel).

Covers the determinism contract (jobs=1 and jobs=N emit byte-identical
BLIFs and certificate traces — every input runs snapshot-isolated in a
fresh session, so dynamic scheduling cannot perturb outputs), the
pull-based work queue (hogs dispatched first, no worker idles while
the deque is non-empty, crash accounting), worker event forwarding
(``worker`` payload tags, batch lifecycle events, reserved-key
payloads that must not crash the parent pump), failure isolation (a
failing input reports an error without killing the sweep; a crashed
worker's buffered payloads are drained, not lost), component-store
sharing (one store read and one merge per sweep, contributions riding
on ``run`` messages, jobs-independent store bytes, corrupt-store
preservation, warm-rerun rehydrated hits), the
``PipelineConfig(jobs=...)`` wiring, and the per-input vs sweep-wide
wall-clock budget.
"""

import json
import os
import sys
import time

import pytest

import repro.pipeline.parallel as parallel_module
from repro.pipeline import (Deadline, EventBus, Pipeline, PipelineConfig,
                            PipelineInput, Session)
from repro.pipeline.events import Event
from repro.pipeline.parallel import (ParallelPipelineRun, _WorkQueue,
                                     run_batch_parallel)
from repro.pipeline.pipeline import (stage_build_isfs, stage_decompose,
                                     stage_emit, stage_parse,
                                     stage_preprocess, stage_verify)

PLA_A = """\
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

PLA_B = """\
.i 4
.o 1
.ilb a b x y
.ob f
.type fd
.p 3
11-- 1
--11 1
0-0- 0
.e
"""

PLA_C = """\
.i 3
.o 1
.ilb p q r
.ob s
.type fd
.p 4
11- 1
--1 1
000 0
010 0
.e
"""

PLA_D = """\
.i 5
.o 1
.ilb a b c d e
.ob t
.type fd
.p 6
11--- 1
--11- 1
---11 1
00000 0
0-0-0 0
-0-0- 0
.e
"""

TEXTS = [PLA_A, PLA_B, PLA_C, PLA_D]


def make_inputs():
    return [PipelineInput(text=text, label="in%d" % i)
            for i, text in enumerate(TEXTS)]


def blifs(runs):
    return [run.blif for run in runs]


def _boom_preprocess(session, run, record):
    if run.label == "boom":
        raise RuntimeError("injected stage failure")
    stage_preprocess(session, run, record)


#: A standard pipeline whose preprocess stage raises for label "boom".
#: Module-level so worker processes can resolve it.
FAILING_PIPELINE = Pipeline([("parse", stage_parse),
                             ("build_isfs", stage_build_isfs),
                             ("preprocess", _boom_preprocess),
                             ("decompose", stage_decompose),
                             ("verify", stage_verify),
                             ("emit", stage_emit)])


def _custom_pipeline(preprocess):
    return Pipeline([("parse", stage_parse),
                     ("build_isfs", stage_build_isfs),
                     ("preprocess", preprocess),
                     ("decompose", stage_decompose),
                     ("verify", stage_verify),
                     ("emit", stage_emit)])


def _hostile_preprocess(session, run, record):
    """Forward an event whose payload carries keys that collide with
    ``EventBus.publish``'s own parameters — the parent pump must
    republish it without a TypeError."""
    if run.label == "in0":
        session.events.republish(Event("hostile_event",
                                       {"name": "evil", "self": "boom",
                                        "worker": "forged"}))
    stage_preprocess(session, run, record)


HOSTILE_PIPELINE = _custom_pipeline(_hostile_preprocess)

#: Events the crashing worker buffers on the channel before dying.
FLOOD_EVENTS = 300


def _flooding_preprocess(session, run, record):
    """Flood the result channel, then die without a ``done`` message.

    ``sys.exit`` (not an ``Exception``) escapes the worker loop, so
    the process exits mid-sweep with its flood buffered — the parent's
    straggler drain must still collect every message.
    """
    if run.label == "crash":
        for tick in range(FLOOD_EVENTS):
            session.events.publish("decompose_progress", tick=tick)
        sys.exit(3)
    stage_preprocess(session, run, record)


FLOODING_PIPELINE = _custom_pipeline(_flooding_preprocess)

#: Sleeps for the mixed-workload stress test: the hog's runtime is a
#: large multiple of everything else so scheduling assertions hold on
#: slow CI boxes too.
HOG_SLEEP = 1.2
SMALL_SLEEP = 0.01


def _sleepy_preprocess(session, run, record):
    time.sleep(HOG_SLEEP if run.label == "hog" else SMALL_SLEEP)
    stage_preprocess(session, run, record)


SLEEPY_PIPELINE = _custom_pipeline(_sleepy_preprocess)

#: Inputs each worker process has started (fork copies start empty).
_STARTED = []


def _die_on_second_input(session, run, record):
    """Every worker process finishes one input, then dies on its next."""
    _STARTED.append(run.label)
    if len(_STARTED) > 1:
        sys.exit(3)
    stage_preprocess(session, run, record)


DYING_PIPELINE = _custom_pipeline(_die_on_second_input)


def _concurrent_writer_preprocess(session, run, record):
    """Another writer adds an entry to the store mid-sweep."""
    from repro.decomp.cache_store import (StoredComponent, load_store,
                                          make_store, save_store)
    if run.label == "in0":
        path = session.config.cache_path
        entries = load_store(path)[0] if os.path.exists(path) else []
        extra = StoredComponent(["zz_outsider"], [{"zz_outsider": 1}])
        save_store(path, make_store(entries + [extra]))
    stage_preprocess(session, run, record)


WRITER_PIPELINE = _custom_pipeline(_concurrent_writer_preprocess)


# ---------------------------------------------------------------------
# Determinism: jobs must not change the emitted BLIFs
# ---------------------------------------------------------------------
class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = run_batch_parallel(make_inputs(), jobs=1)
        for jobs in (2, 3):
            parallel = run_batch_parallel(make_inputs(), jobs=jobs)
            assert blifs(parallel) == blifs(serial)
            assert [run.label for run in parallel] \
                == [run.label for run in serial]

    def test_results_come_back_in_input_order(self):
        result = run_batch_parallel(make_inputs(), jobs=2)
        assert [run.label for run in result] \
            == ["in0", "in1", "in2", "in3"]
        assert all(isinstance(run, ParallelPipelineRun) for run in result)

    def test_gate_counts_match_serial_session(self):
        session = Session()
        classic = Pipeline.standard().run(
            session, PipelineInput(text=PLA_A, label="in0"))
        result = run_batch_parallel(
            [PipelineInput(text=PLA_A, label="in0")], jobs=2)
        assert result[0].blif == classic.blif
        assert result[0].netlist_stats().gates \
            == classic.netlist_stats().gates


# ---------------------------------------------------------------------
# Work queue
# ---------------------------------------------------------------------
def make_descs(cube_counts):
    return [{"path": None, "label": "d%d" % i, "emit_path": None,
             "text": "\n".join([".i 2", ".o 1", ".type fd"]
                               + ["1- 1"] * n + [".e"]) + "\n"}
            for i, n in enumerate(cube_counts)]


class TestWorkQueue:
    def test_hogs_dispatched_first(self):
        work = _WorkQueue(make_descs([1, 5, 2, 4]))
        # Descending cube count: 5, 4, 2, 1 cubes.
        assert work.order == [1, 3, 2, 0]
        dispatched = []
        while True:
            task = work.next_for(0)
            if task is None:
                break
            dispatched.append(task[0])
            work.task_done(0, task[0])
        assert dispatched == [1, 3, 2, 0]

    def test_never_idles_while_nonempty(self):
        # Whichever worker asks — in any interleaving — gets a task as
        # long as the deque is non-empty: the no-idle property.
        work = _WorkQueue(make_descs([3, 1, 2, 5, 4]))
        served = []
        for worker_id in (2, 0, 1, 0, 2, 1):
            remaining = len(work)
            task = work.next_for(worker_id)
            if remaining:
                assert task is not None
                served.append(task[0])
                work.task_done(worker_id, task[0])
            else:
                assert task is None
        assert sorted(served) == [0, 1, 2, 3, 4]

    def test_assignment_tracking_for_crash_accounting(self):
        work = _WorkQueue(make_descs([2, 1]))
        index, _desc = work.next_for(7)
        assert work.lost_input(7) == index
        work.task_done(7, index)
        assert work.lost_input(7) is None
        # A stale done report for a task the worker no longer holds
        # must not clobber a newer assignment.
        second, _desc = work.next_for(7)
        work.task_done(7, index)
        assert work.lost_input(7) == second

    def test_ties_broken_by_input_order(self):
        work = _WorkQueue(make_descs([2, 2, 2]))
        assert work.order == [0, 1, 2]

    def test_unparsable_text_gets_zero_weight_not_error(self):
        descs = [{"path": None, "text": "not a pla", "label": "bad",
                  "emit_path": None},
                 {"path": None, "text": PLA_A, "label": "good",
                  "emit_path": None}]
        work = _WorkQueue(descs)
        # The parsable input outweighs the zero-weight bad one.
        assert work.order == [1, 0]


# ---------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------
class TestEvents:
    def test_worker_tags_and_batch_lifecycle(self):
        events = EventBus()
        run_batch_parallel(make_inputs(), jobs=2, events=events)
        started = events.named("batch_started")
        finished = events.named("batch_finished")
        assert started and started[0]["inputs"] == 4
        assert started[0]["jobs"] == 2
        assert sorted(started[0]["queue"]) == [0, 1, 2, 3]
        assigned = events.named("task_assigned")
        assert sorted(p["index"] for p in assigned) == [0, 1, 2, 3]
        assert finished and finished[0]["failures"] == 0
        batch_level = {"batch_started", "batch_finished",
                       "component_cache_merged", "worker_failed"}
        workers = set()
        for event in events.history:
            if event.name in batch_level:
                continue
            assert "worker" in event.payload, event.name
            workers.add(event.payload["worker"])
        assert workers == {0, 1}

    def test_stage_events_forwarded_per_input(self):
        events = EventBus()
        run_batch_parallel(make_inputs(), jobs=2, events=events)
        finished = events.named("stage_finished")
        emits = [p for p in finished if p["stage"] == "emit"]
        assert len(emits) == 4


# ---------------------------------------------------------------------
# Failure isolation
# ---------------------------------------------------------------------
class TestFailureIsolation:
    def inputs(self):
        return [PipelineInput(text=PLA_A, label="in0"),
                PipelineInput(text=PLA_B, label="boom"),
                PipelineInput(text=PLA_C, label="in2")]

    def test_failing_input_reports_error_others_succeed(self):
        events = EventBus()
        result = run_batch_parallel(self.inputs(), jobs=2,
                                    events=events,
                                    pipeline=FAILING_PIPELINE)
        assert [run.label for run in result] == ["in0", "boom", "in2"]
        boom = result[1]
        assert boom.failed
        assert boom.error["type"] == "RuntimeError"
        assert "injected" in boom.error["message"]
        assert boom.blif is None
        assert not result[0].failed and result[0].blif
        assert not result[2].failed and result[2].blif
        assert result.failures == [boom]
        failed = events.named("stage_failed")
        assert failed and failed[0]["stage"] == "preprocess"
        assert failed[0]["worker"] in (0, 1)
        finished = events.named("batch_finished")
        assert finished[0]["failures"] == 1

    def test_failed_run_raises_on_netlist_stats(self):
        result = run_batch_parallel(self.inputs(), jobs=2,
                                    pipeline=FAILING_PIPELINE)
        with pytest.raises(ValueError, match="injected"):
            result[1].netlist_stats()

    def test_failure_surfaces_in_stats_json(self):
        result = run_batch_parallel(self.inputs(), jobs=1,
                                    pipeline=FAILING_PIPELINE)
        doc = result.report()
        assert doc["failures"] == 1
        errors = [run["error"] for run in doc["runs"] if "error" in run]
        assert errors == [{"type": "RuntimeError",
                           "message": "injected stage failure"}]
        json.dumps(doc)  # the whole report is JSON-serializable


# ---------------------------------------------------------------------
# Hostile event payloads (reserved-key collision)
# ---------------------------------------------------------------------
class TestHostilePayloads:
    def check(self, jobs):
        events = EventBus()
        result = run_batch_parallel(make_inputs(), jobs=jobs,
                                    events=events,
                                    pipeline=HOSTILE_PIPELINE)
        # The pump survived and the sweep completed.
        assert not result.failures
        hostile = events.named("hostile_event")
        assert len(hostile) == 1
        payload = hostile[0]
        # Keys colliding with publish()'s own parameters arrive intact.
        assert payload["name"] == "evil"
        assert payload["self"] == "boom"
        # ...except the worker tag, which the parent always overwrites
        # with the id of the worker the event actually came from.
        assert isinstance(payload["worker"], int)
        assert payload["worker"] != "forged"

    def test_parent_pump_survives_reserved_keys(self):
        self.check(jobs=2)

    def test_inline_path_survives_reserved_keys(self):
        self.check(jobs=1)


# ---------------------------------------------------------------------
# Straggler drain (crashed worker's buffered messages)
# ---------------------------------------------------------------------
class TestStragglerDrain:
    def test_flooded_channel_is_drained_after_worker_death(self):
        # The crash input has the most cubes, so the work queue hands
        # it out first; its worker floods the channel and exits without
        # a "done" message while the other worker runs the small
        # inputs.  Every buffered message must still reach the parent.
        sources = [PipelineInput(text=PLA_D, label="crash"),
                   PipelineInput(text=PLA_B, label="ok1"),
                   PipelineInput(text=PLA_C, label="ok2")]
        events = EventBus()
        result = run_batch_parallel(sources, jobs=2, events=events,
                                    pipeline=FLOODING_PIPELINE)
        assert [run.label for run in result] == ["crash", "ok1", "ok2"]
        # The survivors' run payloads were collected, not lost.
        assert not result[1].failed and result[1].blif
        assert not result[2].failed and result[2].blif
        # Only the input the dead worker was actually holding failed.
        assert result[0].failed
        assert "worker process died" in result[0].error["message"]
        # The flood the worker buffered before dying arrived complete.
        ticks = [p["tick"] for p in events.named("decompose_progress")
                 if "tick" in p.payload]
        assert sorted(ticks) == list(range(FLOOD_EVENTS))
        failed = events.named("worker_failed")
        assert len(failed) == 1
        assert failed[0]["exitcode"] == 3
        assert failed[0]["lost_inputs"] == [0]


# ---------------------------------------------------------------------
# Component-store sharing
# ---------------------------------------------------------------------
class TestStoreSharing:
    def config(self, tmp_path, **kwargs):
        return PipelineConfig(
            cache_path=str(tmp_path / "batch.cache.json"), **kwargs)

    def test_cold_sweep_merges_worker_stores(self, tmp_path):
        events = EventBus()
        config = self.config(tmp_path)
        result = run_batch_parallel(make_inputs(), config=config,
                                    jobs=2, events=events)
        assert result.merged_store == config.cache_path
        assert result.merged_entries > 0
        assert os.path.exists(config.cache_path)
        merged = events.named("component_cache_merged")
        assert merged and merged[0]["entries"] == result.merged_entries
        assert merged[0]["inputs"] == 4
        # The store is the only file the sweep wrote.
        assert os.listdir(str(tmp_path)) == ["batch.cache.json"]

    def test_warm_rerun_rehydrates_from_merged_store(self, tmp_path):
        config = self.config(tmp_path)
        cold = run_batch_parallel(make_inputs(), config=config, jobs=2)
        warm = run_batch_parallel(make_inputs(), config=config, jobs=2)
        assert cold.report()["rehydrated_hits"] == 0
        assert warm.report()["rehydrated_hits"] > 0

    def test_warm_determinism_across_jobs(self, tmp_path):
        config = self.config(tmp_path)
        run_batch_parallel(make_inputs(), config=config, jobs=2)
        snapshot = open(config.cache_path).read()
        readonly = self.config(tmp_path, cache_readonly=True)
        warm2 = run_batch_parallel(make_inputs(), config=readonly, jobs=2)
        warm3 = run_batch_parallel(make_inputs(), config=readonly, jobs=3)
        assert blifs(warm2) == blifs(warm3)
        # Readonly sweeps never touch the store.
        assert open(config.cache_path).read() == snapshot
        assert warm2.merged_store is None

    def test_inline_path_shares_store_too(self, tmp_path):
        config = self.config(tmp_path)
        run_batch_parallel(make_inputs(), config=config, jobs=1)
        warm = run_batch_parallel(make_inputs(), config=config, jobs=1)
        assert warm.report()["rehydrated_hits"] > 0

    def test_corrupt_presweep_store_preserved_not_destroyed(self, tmp_path):
        from repro.decomp.cache_store import load_store
        config = self.config(tmp_path)
        garbage = "NOT JSON {{{"
        with open(config.cache_path, "w") as handle:
            handle.write(garbage)
        events = EventBus()
        result = run_batch_parallel(make_inputs(), config=config,
                                    jobs=2, events=events)
        assert not result.failures
        # The unreadable original was renamed aside, bytes intact, not
        # silently overwritten by the workers' entries.
        preserved = config.cache_path + ".corrupt"
        assert open(preserved).read() == garbage
        fails = events.named("component_cache_load_failed")
        assert len(fails) == 1
        assert fails[0]["preserved"] == preserved
        assert fails[0]["path"] == config.cache_path
        # The merge still went through: the store was rebuilt from the
        # live workers' components and is readable again.
        assert result.merged_store == config.cache_path
        assert result.merged_entries > 0
        entries, skipped = load_store(config.cache_path)
        assert len(entries) == result.merged_entries
        assert skipped == 0


class TestStoreProtocol:
    """One read before the sweep, one merge after it, for any jobs."""

    @pytest.fixture
    def io_log(self, tmp_path, monkeypatch):
        """Log every store read/write, from any process, to one file."""
        import repro.decomp.cache_store as cache_store
        log = tmp_path / "io.log"
        load_store, save_store = cache_store.load_store, \
            cache_store.save_store

        def logged(kind, fn):
            def wrapper(path, *args, **kwargs):
                with open(str(log), "a") as handle:
                    handle.write("%s %s\n" % (kind, path))
                return fn(path, *args, **kwargs)
            return wrapper
        monkeypatch.setattr(cache_store, "load_store",
                            logged("read", load_store))
        monkeypatch.setattr(cache_store, "save_store",
                            logged("write", save_store))

        def lines():
            return log.read_text().splitlines() if log.exists() else []
        return lines

    def sweep(self, tmp_path, name, jobs, pipeline=None, sources=None):
        store_dir = tmp_path / name
        store_dir.mkdir(exist_ok=True)
        config = PipelineConfig(
            cache_path=str(store_dir / "batch.cache.json"))
        result = run_batch_parallel(sources or make_inputs(),
                                    config=config, jobs=jobs,
                                    pipeline=pipeline)
        return config.cache_path, result

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_read_to_seed_one_to_merge_one_write(self, tmp_path,
                                                     io_log, jobs):
        path, _cold = self.sweep(tmp_path, "store", jobs)
        assert io_log() == ["write %s" % path]
        inputs = make_inputs() * 2
        for i, source in enumerate(inputs):
            source.label = "in%d" % i
        _path, warm = self.sweep(tmp_path, "store", jobs, sources=inputs)
        assert not warm.failures
        assert io_log()[1:] == ["read %s" % path, "read %s" % path,
                                "write %s" % path]
        assert os.listdir(os.path.dirname(path)) == ["batch.cache.json"]

    def test_jobs1_and_jobs2_store_bytes_identical(self, tmp_path):
        serial, _ = self.sweep(tmp_path, "serial", 1)
        parallel, _ = self.sweep(tmp_path, "parallel", 2)
        with open(serial, "rb") as one, open(parallel, "rb") as two:
            assert one.read() == two.read()
        # ... and again warm, from those stores.
        self.sweep(tmp_path, "serial", 1)
        self.sweep(tmp_path, "parallel", 2)
        with open(serial, "rb") as one, open(parallel, "rb") as two:
            assert one.read() == two.read()

    def test_killed_worker_still_banks_finished_input(self, tmp_path):
        path, result = self.sweep(tmp_path, "dying", 2,
                                  pipeline=DYING_PIPELINE)
        finished = [i for i, run in enumerate(result) if not run.failed]
        # Each of the two workers finished its first input, then died.
        assert len(finished) == 2
        expected, _ = self.sweep(
            tmp_path, "expected", 1,
            sources=[make_inputs()[i] for i in finished])
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()

    def test_entries_written_during_the_sweep_survive(self, tmp_path):
        from repro.decomp.cache_store import load_store
        path, result = self.sweep(tmp_path, "writer", 1,
                                  pipeline=WRITER_PIPELINE)
        assert not result.failures
        entries, _skipped = load_store(path)
        assert ("zz_outsider",) in [entry.support for entry in entries]
        assert len(entries) == result.merged_entries > 1


# ---------------------------------------------------------------------
# Mixed-workload stress: one hog + many small inputs
# ---------------------------------------------------------------------
class TestMixedWorkloadStress:
    def test_hog_never_blocks_the_queue(self):
        # The hog has the most cubes, so it is dispatched first — and
        # then sleeps for longer than every small input combined.
        sources = [PipelineInput(text=PLA_D, label="hog")] \
            + [PipelineInput(text=(PLA_B if i % 2 else PLA_C),
                             label="small%d" % i) for i in range(6)]
        events = EventBus()
        result = run_batch_parallel(sources, jobs=2, events=events,
                                    pipeline=SLEEPY_PIPELINE)
        assert len(result) == 7
        assert not result.failures
        assigned = events.named("task_assigned")
        assert len(assigned) == 7
        assert assigned[0]["index"] == 0  # the hog goes out first
        hog_worker = assigned[0]["worker"]
        # While the hog holds its worker, every later assignment flows
        # to the free worker: nothing queues up behind the hog and no
        # worker idles while the deque is non-empty.  (Static
        # partitioning would strand some small inputs behind the hog.)
        others = {p["worker"] for p in assigned[1:]}
        assert others == {1 - hog_worker}

    def test_jobs1_vs_jobs4_blif_and_cert_bytes_identical(self, tmp_path):
        def sweep(jobs):
            outdir = tmp_path / ("jobs%d" % jobs)
            outdir.mkdir()
            sources = [
                PipelineInput(text=text, label="in%d" % i,
                              emit_path=str(outdir / ("in%d.blif" % i)))
                for i, text in enumerate(TEXTS)]
            config = PipelineConfig(emit_certificates=True)
            result = run_batch_parallel(sources, config=config,
                                        jobs=jobs)
            assert not result.failures
            return {path.name: path.read_bytes()
                    for path in sorted(outdir.iterdir())}
        serial, parallel = sweep(1), sweep(4)
        # Four BLIFs and four certificate traces per sweep, all
        # byte-identical under dynamic scheduling.
        assert len(serial) == 8
        assert any(name.endswith(".cert.json") for name in serial)
        assert parallel == serial


# ---------------------------------------------------------------------
# Config wiring
# ---------------------------------------------------------------------
class TestRunBatchWiring:
    def test_live_inputs_are_rejected(self):
        from repro.io import parse_pla
        pla = parse_pla(PLA_A)
        with pytest.raises(ValueError, match="process boundary"):
            run_batch_parallel([PipelineInput(pla=pla)], jobs=2)

    def test_negative_jobs_rejected_by_config(self):
        with pytest.raises(ValueError, match="jobs"):
            PipelineConfig(jobs=-1)

    @pytest.mark.parametrize("jobs", [-3, 2.7, True, "2"])
    def test_jobs_override_validated_like_config(self, jobs):
        # The override obeys PipelineConfig's rule, and is refused
        # before any worker starts.
        with pytest.raises(ValueError, match="jobs"):
            PipelineConfig(jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            run_batch_parallel(make_inputs()[:1], jobs=jobs)

    def test_report_includes_batch_metadata(self):
        config = PipelineConfig(jobs=2)
        result = run_batch_parallel(make_inputs(), config=config)
        doc = result.report(config)
        assert doc["inputs"] == 4
        assert doc["jobs"] == 2
        assert doc["failures"] == 0
        assert doc["config"]["jobs"] == 2
        assert len(doc["runs"]) == 4
        assert {run["worker"] for run in doc["runs"]} == {0, 1}
        json.dumps(doc)



    def test_finished_session_is_freed_before_the_next_input(
            self, monkeypatch):
        # Sessions hold reference cycles; a sweep must not keep several
        # inputs' BDD managers alive at once.
        import weakref
        started = []
        start_clock = Session.start_clock

        def recording(session):
            assert all(ref() is None for ref in started)
            started.append(weakref.ref(session))
            start_clock(session)
        monkeypatch.setattr(Session, "start_clock", recording)
        result = run_batch_parallel(make_inputs(), jobs=1)
        assert not result.failures and len(started) == 4


# ---------------------------------------------------------------------
# Batch-scope wall clock
# ---------------------------------------------------------------------
class TestBudgetScope:
    def test_bogus_scope_rejected(self):
        with pytest.raises(ValueError, match="budget_scope"):
            PipelineConfig(budget_scope="sweep")

    @pytest.fixture
    def sessions(self, monkeypatch):
        """Every session whose clock starts, in start order."""
        started = []
        start_clock = Session.start_clock

        def recording(session):
            start_clock(session)
            started.append(session)
        monkeypatch.setattr(Session, "start_clock", recording)
        return started

    def test_run_scope_arms_a_clock_per_input(self, sessions):
        config = PipelineConfig(time_limit=600.0)
        result = run_batch_parallel(make_inputs(), config=config, jobs=1)
        assert not result.failures
        assert len(sessions) == len(result) == 4
        deadlines = [session._deadline for session in sessions]
        assert all(isinstance(d, Deadline) for d in deadlines)
        assert len({id(d) for d in deadlines}) == len(deadlines)
        # Each worker session runs on the sweep config itself.
        assert all(session.config is config for session in sessions)

    def test_batch_scope_sessions_hold_the_parent_clock(
            self, sessions, monkeypatch):
        armed = []

        class RecordingDeadline(Deadline):
            def __init__(self, seconds):
                super().__init__(seconds)
                armed.append(self)
        monkeypatch.setattr(parallel_module, "Deadline", RecordingDeadline)
        config = PipelineConfig(time_limit=600.0, budget_scope="batch")
        result = run_batch_parallel(make_inputs(), config=config, jobs=1)
        assert not result.failures
        assert len(armed) == 1
        assert len(sessions) == 4
        assert all(session._deadline is armed[0] for session in sessions)

    def test_adopted_deadline_survives_batch_scope_runs(self):
        session = Session(PipelineConfig(time_limit=60.0,
                                         budget_scope="batch"))
        shared = Deadline(60.0)
        session.adopt_deadline(shared)
        session.start_clock()
        assert session._deadline is shared

    def test_batch_scope_spans_parallel_partition(self):
        # A batch budget far too small for even one decomposition must
        # fail every input in the partition, not one per time_limit.
        config = PipelineConfig(time_limit=1e-9, budget_scope="batch")
        result = run_batch_parallel(make_inputs(), config=config, jobs=1)
        assert len(result.failures) == len(result)
        assert all(run.error["type"] == "PipelineTimeout"
                   for run in result)
