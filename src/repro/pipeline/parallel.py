"""Process-pool batch decomposition with component-store sharing.

The paper reports CPU time over whole MCNC benchmark sweeps (Tables
2-3); each PLA is an independent unit of work, so a sweep is
embarrassingly parallel.  This module is the one way to run many
inputs, with any number of jobs.  It reuses Section 6 components across
inputs through the manager-independent store format of
:mod:`repro.decomp.cache_store`, never through a live session:

* **Scheduling.**  The parent holds a *pull-based work queue*: a task
  deque sorted by descending PLA cube count (the wall-clock hogs —
  alu4, 16sym8 — are handed out first).  Workers request the next
  input whenever they finish one, so a cube-count / runtime mismatch
  can never idle a worker while the deque is non-empty: there are no
  static partitions and no idle tails.  Results come back in input
  order regardless of the dispatch order.
* **Isolation.**  Every input runs in a *fresh* :class:`Session` (one
  BDD manager per input — the manager is not thread-safe and never
  crosses a process boundary).  Sharing within a sweep is *snapshot*
  sharing: the parent reads the store once, before any worker starts
  (:func:`repro.decomp.cache_store.open_store`), and every session is
  seeded from those parsed entries.  That snapshot isolation —
  not any scheduling order — is the determinism contract: the BLIF
  (and certificate trace) emitted for every input is independent of
  which worker ran it and when, so ``jobs=1`` and ``jobs=N`` produce
  byte-identical outputs even though the work queue assigns tasks
  dynamically.
* **Budgets.**  Under ``budget_scope="batch"`` the parent arms one
  :class:`~repro.pipeline.limits.Deadline` when the sweep starts and
  every worker session adopts it, so the whole sweep — not each
  worker's share of it — runs under a single wall clock.
* **Store merge.**  Workers never touch the store file.  After each
  input the session's live components travel back as store-format
  dicts on that input's ``run`` message, and after the sweep the parent
  re-reads the file, unions it with every input's contribution in
  dispatch order (dedup by support+cover key, smaller cone wins) and
  writes it once (:func:`repro.decomp.cache_store.commit_store`).  The
  store bytes therefore do not depend on ``jobs``, a worker that dies
  after finishing an input still banks that input's components, and a
  second sweep is warm everywhere.
* **Observability.**  Worker events are forwarded over the result
  queue and republished on the parent bus with a ``worker`` field, so
  ``--stats-json`` and budget accounting keep working; the parent adds
  ``batch_started`` / ``component_cache_merged`` / ``worker_failed`` /
  ``batch_finished`` events around them.

Only sanitized event payloads and the manager-independent store format
cross the process boundary — never BDD nodes, Functions or ISFs
(``repro selfcheck`` rule ``process-boundary`` enforces this
statically).  Workers build their managers through the usual seam
(``stage_build_isfs`` -> ``pla.make_manager`` ->
``Session.adopt_manager``).
"""

import gc
import multiprocessing
import os
import queue as queue_module
import time
from collections import deque

from repro.decomp.cache_store import commit_store, open_store
from repro.io import parse_pla, read_text
from repro.network.stats import NetlistStats
from repro.pipeline.config import PipelineConfig, _jobs
from repro.pipeline.events import Event, EventBus
from repro.pipeline.limits import Deadline
from repro.pipeline.pipeline import Pipeline, PipelineInput, PipelineRun
from repro.pipeline.session import Session

#: Seconds between liveness checks while waiting on worker messages.
POLL_INTERVAL = 0.2


# ---------------------------------------------------------------------
# Serializable views of inputs, runs and events
# ---------------------------------------------------------------------
def _describe(source, position):
    """Reduce one batch input to a picklable descriptor dict.

    Parallel inputs must be path- or text-based: live managers, specs
    or parsed PLAs cannot cross the process boundary.  ``"-"`` (stdin)
    is read once here, in the parent.
    """
    if not isinstance(source, PipelineInput):
        source = (PipelineInput(**source) if isinstance(source, dict)
                  else PipelineInput(path=source))
    if (source.mgr is not None or source.specs is not None
            or source.pla is not None):
        raise ValueError(
            "parallel batch input #%d (%r) carries live BDD/PLA objects; "
            "only path- or text-based inputs can cross the process "
            "boundary (run prebuilt specs through Pipeline.run)"
            % (position, source.label))
    text = source.text
    if text is None:
        text = read_text(source.path)
    path = source.path if source.path not in (None, "-") else None
    return {"path": path, "text": text, "label": source.label,
            "emit_path": source.emit_path}


def _cube_count(desc):
    """Scheduling weight of one input: its PLA cube count (0 if the
    text does not parse — the worker will surface the real error)."""
    try:
        return len(parse_pla(desc["text"]).cubes)
    except Exception:
        return 0


class _WorkQueue:
    """Pull-based task queue: descending cube count, hogs first.

    The parent owns one of these per sweep.  Tasks are sorted once by
    *descending PLA cube count* (ties broken by input position), and
    :meth:`next_for` hands the heaviest remaining task to whichever
    worker asks — so no worker can idle while the deque is non-empty,
    regardless of how badly cube count mispredicts runtime (the
    misprediction only shifts *which* worker pulls next, never whether
    one does).

    Assignment accounting makes crashes attributable: a worker holds at
    most one task at a time, so a worker that dies loses exactly its
    currently :attr:`assigned` input.  A lost task is deliberately
    *not* re-queued to another worker — a poison-pill input that kills
    its process would otherwise cascade through the whole pool.
    """

    def __init__(self, descs):
        counts = [_cube_count(desc) for desc in descs]
        self.order = sorted(range(len(descs)),
                            key=lambda i: (-counts[i], i))
        self._tasks = deque((i, descs[i]) for i in self.order)
        self.assigned = {}

    def __len__(self):
        return len(self._tasks)

    def next_for(self, worker_id):
        """Assign the heaviest remaining task to *worker_id*.

        Returns ``(index, desc)``, or None when the queue is drained.
        """
        if not self._tasks:
            return None
        index, desc = self._tasks.popleft()
        self.assigned[worker_id] = index
        return index, desc

    def task_done(self, worker_id, index):
        """Worker reported *index*; it no longer holds an assignment."""
        if self.assigned.get(worker_id) == index:
            del self.assigned[worker_id]

    def lost_input(self, worker_id):
        """The input a crashed worker was holding, or None."""
        return self.assigned.get(worker_id)


def _sanitize(value):
    """Strip a payload down to picklable/JSON-able primitives."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {str(key): _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return repr(value)


def _run_payload(run):
    """Serialize a finished :class:`PipelineRun` for the result queue."""
    payload = {
        "label": run.label,
        "input": run.source.path or run.label,
        "blif": run.blif,
        "elapsed": run.elapsed,
        "stages": _sanitize(run.stages),
        "certificate": run.certificate_path,
        "error": None,
    }
    if run.netlist is not None:
        payload["netlist"] = run.netlist_stats().as_dict()
    return payload


def _failure_payload(desc, exc, elapsed, stages):
    return {
        "label": desc["label"],
        "input": desc["path"] or desc["label"],
        "blif": None,
        "elapsed": elapsed,
        "stages": _sanitize(stages),
        "certificate": None,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class ParallelPipelineRun(PipelineRun):
    """A pipeline run reconstructed from a worker's serialized report.

    Exposes the reporting surface of :class:`PipelineRun` (label,
    ``blif``, per-stage records, ``elapsed``, ``netlist_stats()``,
    ``stats_json()``) plus ``worker`` (partition id) and ``error``
    (None, or ``{"type", "message"}`` when this input's pipeline
    failed).  It carries no live netlist or manager — those stayed in
    the worker process.
    """

    def __init__(self, source, payload):
        super().__init__(source)
        self.worker = payload.get("worker")
        self.error = payload.get("error")
        self.blif = payload.get("blif")
        self.stages = list(payload.get("stages") or [])
        self.elapsed = payload.get("elapsed", 0.0)
        self.certificate_path = payload.get("certificate")
        self._netlist_stats = payload.get("netlist")

    @property
    def failed(self):
        """True when this input's pipeline raised in the worker."""
        return self.error is not None

    def netlist_stats(self):
        if self._netlist_stats is None:
            raise ValueError(
                "run %r has no netlist stats (%s)"
                % (self.label,
                   "it failed: %s" % self.error["message"] if self.error
                   else "the pipeline recorded none"))
        return NetlistStats(**self._netlist_stats)

    def stats_json(self, config=None):
        doc = super().stats_json(config=config)
        doc["worker"] = self.worker
        if self._netlist_stats is not None:
            doc["netlist"] = dict(self._netlist_stats)
        if self.error is not None:
            doc["error"] = dict(self.error)
        return doc


class ParallelBatchResult(list):
    """Ordered run list plus sweep-level metadata.

    Behaves as a plain ``[ParallelPipelineRun, ...]`` list, with
    extras: ``jobs`` (worker
    count used), ``elapsed`` (sweep wall clock), ``merged_store`` /
    ``merged_entries`` (the unioned component store, when a
    ``cache_path`` was configured), and :meth:`report` for the batch
    ``--stats-json`` document.
    """

    def __init__(self, runs, jobs, elapsed, merged_store=None,
                 merged_entries=0):
        super().__init__(runs)
        self.jobs = jobs
        self.elapsed = elapsed
        self.merged_store = merged_store
        self.merged_entries = merged_entries

    @property
    def failures(self):
        return [run for run in self if run.error is not None]

    def report(self, config=None):
        """The batch ``--stats-json`` document."""
        run_docs = [run.stats_json() for run in self]
        doc = {
            "inputs": len(self),
            "jobs": self.jobs,
            "cpu_count": os.cpu_count(),
            "elapsed": self.elapsed,
            "failures": len(self.failures),
            "rehydrated_hits": sum(d.get("rehydrated_hits", 0)
                                   for d in run_docs),
            "certificates": sum(1 for run in self
                                if run.certificate_path),
            "runs": run_docs,
        }
        if self.merged_store is not None:
            doc["merged_store"] = self.merged_store
            doc["merged_store_entries"] = self.merged_entries
        if config is not None:
            doc["config"] = config.as_dict()
        return doc


# ---------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------
def _worker_main(worker_id, next_task, config, pipeline, channel,
                 stored=None, deadline=None):
    """Worker loop: pull tasks until the queue is drained.

    *next_task* is a zero-argument callable returning ``(index, desc)``
    or None (queue drained); in a worker process it round-trips a
    ``("ready", id)`` request through the parent, in the ``jobs=1``
    inline path it pops the parent's work queue directly.  Every input
    gets a fresh session (and hence a fresh BDD manager, built inside
    the pipeline through the ``adopt_manager`` seam) seeded from
    *stored*, the store entries the parent read when the sweep began.
    *deadline* is the sweep-wide clock under ``budget_scope="batch"``
    (armed once by the parent, shared by every worker).  Events are
    forwarded over *channel* as they happen; a failing input is
    reported and the worker pulls the next one.  Messages on *channel*:
    ``("ready", id)``, ``("event", id, name, payload)``,
    ``("run", id, index, payload)`` and ``("done", id)``.  When the
    sweep writes the store, a ``run`` payload carries the session's
    live components under ``"components"``.
    """
    contribute = config.cache_path is not None and not config.cache_readonly
    while True:
        task = next_task()
        if task is None:
            break
        index, desc = task
        stages = []

        def forward(event, _stages=stages):
            if event.name == "stage_finished":
                _stages.append(dict(event.payload))
            channel.put(("event", worker_id, event.name,
                         _sanitize(event.payload)))

        bus = EventBus(record=False)
        bus.subscribe(forward)
        session = Session(config, events=bus, stored=stored)
        if deadline is not None:
            session.adopt_deadline(deadline)
        started = time.perf_counter()
        try:
            run = pipeline.run(session, PipelineInput(**desc))
        except Exception as exc:
            payload = _failure_payload(desc, exc,
                                       time.perf_counter() - started,
                                       stages)
        else:
            payload = _run_payload(run)
        payload["worker"] = worker_id
        if session.mgr is not None:
            session.mgr.set_growth_hook(None)
        if contribute:
            payload["components"] = session.component_entries()
        channel.put(("run", worker_id, index, payload))
        # The engine and its caches hold reference cycles, so only the
        # cycle collector frees a finished input's BDD manager: free it
        # before the next input builds its own.
        session = run = None
        gc.collect()
    channel.put(("done", worker_id))


def _worker_process(worker_id, task_queue, config, pipeline, channel,
                    stored, deadline):
    """Process entrypoint: request/response loop against the parent.

    Each ``("ready", id)`` message on *channel* asks the parent's work
    queue for the next input; the reply arrives on this worker's
    private *task_queue* — ``(index, desc)``, or None once the sweep's
    deque is drained.  Must stay a module-level function so the target
    pickles under the spawn start method.
    """
    def next_task():
        channel.put(("ready", worker_id))
        return task_queue.get()

    _worker_main(worker_id, next_task, config, pipeline, channel,
                 stored=stored, deadline=deadline)


class _InlineChannel:
    """Queue stand-in for the in-process (``jobs=1``) path: messages go
    straight to the parent's handler, so serial and parallel execution
    share the exact same worker code."""

    def __init__(self, handler):
        self._handler = handler

    def put(self, message):
        self._handler(message)


# ---------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------
def _mp_context():
    """Fork when available (cheap, no import replay), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def run_batch_parallel(sources, config=None, jobs=None, events=None,
                       pipeline=None):
    """Feed *sources* through the pull-based work queue; returns a
    :class:`ParallelBatchResult` (runs in input order).

    Parameters
    ----------
    sources:
        Iterable of :class:`PipelineInput` (or path / dict shorthand),
        each path- or text-based.
    config:
        :class:`PipelineConfig` (coerced).  ``cache_path`` enables
        snapshot warm starts and the store merge (skipped under
        ``cache_readonly``); ``budget_scope``
        chooses per-run clocks (``"run"``) vs one sweep-wide deadline
        shared by every worker (``"batch"``).
    jobs:
        Worker count, validated as ``PipelineConfig(jobs=...)`` is (an
        integer >= 0, else ``ValueError`` before any work); defaults to
        ``config.jobs``; ``0`` means ``os.cpu_count()``.  ``jobs=1`` runs the same isolated
        semantics in-process (no fork), so its outputs are
        byte-identical to any ``jobs=N`` run.
    events:
        Parent :class:`EventBus`; worker events are republished on it
        with a ``worker`` payload field.
    pipeline:
        :class:`Pipeline` to run (default ``Pipeline.standard()``).
        Its stage functions must be picklable (module-level).
    """
    config = PipelineConfig.coerce(config)
    events = events if events is not None else EventBus()
    jobs = config.jobs if jobs is None else _jobs(jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if pipeline is None:
        pipeline = Pipeline.standard()
    descs = [_describe(source, i) for i, source in enumerate(sources)]
    work = _WorkQueue(descs)
    workers = min(jobs, max(1, len(descs)))
    deadline = None
    if config.budget_scope == "batch" and config.time_limit is not None:
        # One sweep-wide clock, armed here and adopted by every worker
        # session (Deadline survives fork/pickle: see its docstring).
        deadline = Deadline(config.time_limit)

    stored = None
    if config.cache_path is not None:
        stored = open_store(config.cache_path, events=events,
                            readonly=config.cache_readonly)
    payloads = {}
    contributions = {}

    def handle(message):
        kind = message[0]
        if kind == "event":
            _kind, worker_id, name, payload = message
            payload = dict(payload)
            payload["worker"] = worker_id
            # Republish as a prebuilt Event, never via **payload: a
            # payload carrying a key named "name" (or "self") would
            # collide with publish()'s own parameters and TypeError
            # the parent pump mid-sweep.
            events.republish(Event(name, payload))
        elif kind == "run":
            _kind, worker_id, index, payload = message
            if "components" in payload:
                contributions[index] = payload.pop("components")
            payloads[index] = payload
            work.task_done(worker_id, index)

    events.publish("batch_started", inputs=len(descs), jobs=workers,
                   queue=list(work.order))
    started = time.perf_counter()
    if workers <= 1:
        channel = _InlineChannel(handle)

        def next_task():
            task = work.next_for(0)
            if task is not None:
                events.publish("task_assigned", worker=0,
                               index=task[0], label=task[1]["label"],
                               queued=len(work))
            return task

        _worker_main(0, next_task, config, pipeline, channel,
                     stored=stored, deadline=deadline)
    else:
        _run_workers(work, workers, config, pipeline, handle, stored,
                     events, deadline)

    merged_store, merged_entries = None, 0
    if config.cache_path is not None and not config.cache_readonly:
        merged_store, merged_entries = commit_store(
            config.cache_path,
            [contributions[i] for i in work.order if i in contributions],
            label=config.model, events=events)

    lost = set(work.assigned.values())
    runs = []
    for index, desc in enumerate(descs):
        payload = payloads.get(index)
        if payload is None:  # never reported back to the parent
            reason = ("worker process died"
                      if index in lost else
                      "no live worker was left to run this input")
            payload = _failure_payload(
                desc, RuntimeError(reason), 0.0, [])
        runs.append(ParallelPipelineRun(
            PipelineInput(path=desc["path"], text=desc["text"],
                          label=desc["label"],
                          emit_path=desc["emit_path"]),
            payload))
    elapsed = time.perf_counter() - started
    events.publish("batch_finished", inputs=len(runs),
                   jobs=workers, elapsed=elapsed,
                   failures=sum(1 for run in runs
                                if run.error is not None))
    return ParallelBatchResult(runs, workers, elapsed,
                               merged_store=merged_store,
                               merged_entries=merged_entries)


def _run_workers(work, workers, config, pipeline, handle, stored, events,
                 deadline):
    """Spawn the worker pool and pump the message queue.

    Every ``("ready", id)`` request is answered from the shared
    :class:`_WorkQueue` (heaviest task first) on that worker's private
    task queue, so a free worker is never left idle while inputs
    remain.  A worker that dies without its ``done`` message (hard
    crash, kill) is detected by liveness polling; the one input it was
    holding surfaces as a failure payload and a ``worker_failed`` event
    is published — unassigned inputs stay in the queue and flow to the
    surviving workers.
    """
    context = _mp_context()
    channel = context.Queue()
    task_queues = {}
    processes = {}
    for worker_id in range(workers):
        task_queue = context.Queue()
        process = context.Process(
            target=_worker_process,
            args=(worker_id, task_queue, config, pipeline, channel,
                  stored, deadline),
            daemon=True)
        process.start()
        task_queues[worker_id] = task_queue
        processes[worker_id] = process
    pending = set(processes)
    finished = set()

    def dispatch(message):
        if message[0] == "ready":
            worker_id = message[1]
            task = work.next_for(worker_id)
            if task is None:
                task_queues[worker_id].put(None)
            else:
                index, desc = task
                events.publish("task_assigned", worker=worker_id,
                               index=index, label=desc["label"],
                               queued=len(work))
                task_queues[worker_id].put((index, desc))
            return
        handle(message)
        if message[0] == "done":
            finished.add(message[1])
            pending.discard(message[1])

    while pending:
        try:
            message = channel.get(timeout=POLL_INTERVAL)
        except queue_module.Empty:
            for worker_id in sorted(pending):
                process = processes[worker_id]
                if not process.is_alive():
                    pending.discard(worker_id)
            continue
        dispatch(message)
    # Straggler drain.  A worker's buffered messages are flushed by its
    # queue feeder thread only as the process exits, so one quiet
    # POLL_INTERVAL window is not proof the channel is dry: keep
    # pumping (joining exited processes as we go) until every process
    # has been joined *and* the channel stays empty.  Stopping early
    # loses run payloads a crashed worker managed to buffer before
    # dying and misreports those inputs as worker-process deaths.
    while True:
        try:
            dispatch(channel.get(timeout=POLL_INTERVAL))
            continue
        except queue_module.Empty:
            pass
        if any(process.is_alive() for process in processes.values()):
            for process in processes.values():
                process.join(timeout=POLL_INTERVAL)
            continue
        while True:  # all processes joined: sweep until truly empty
            try:
                dispatch(channel.get_nowait())
            except queue_module.Empty:
                break
        break
    for worker_id, process in processes.items():
        process.join(timeout=5.0)
        if worker_id not in finished:
            lost = work.lost_input(worker_id)
            events.publish("worker_failed", worker=worker_id,
                           exitcode=process.exitcode,
                           lost_inputs=([] if lost is None
                                        else [lost]))
