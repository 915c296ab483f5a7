"""Workload inputs, set-up and one measured pass.

A *pass* takes every input of a workload from PLA file to verified,
emitted BLIF (plus certificates, certified offline, where the workload
asks for them).  Every workload goes through the batch executor
(:func:`repro.pipeline.run_batch_parallel`), which runs each input in
its own fresh :class:`~repro.pipeline.Session`; the pass shares one
``budget_scope="batch"`` wall-clock budget, so a hang shows up as a
failed input instead of a process that never ends.
"""

import hashlib
import importlib
import multiprocessing
import os
import random
import resource
import shutil
from time import perf_counter

from repro.bench import registry
from repro.bench.synth_pla import structured_pla
from repro.decomp.cache_store import load_store, make_store, save_store
from repro.io import (BLIFError, CertificateError, load_pla,
                      parse_blif_netlist, read_text, write_pla)
from repro.network.verify import VerificationError, verify_against_isfs
from repro.pipeline import (EventBus, Pipeline, PipelineConfig,
                            PipelineInput, run_batch_parallel)
from tracer import counter_delta

# ``repro.analysis.certify`` is also the name of a function re-exported by
# ``repro.analysis``; look the module up so a traced pass sees its patch.
certify_module = importlib.import_module("repro.analysis.certify")

HOGS = ("alu4", "16sym8", "cordic")

#: Table 2's control PLAs plus seven arithmetic/symmetric benchmarks.
SWEEP = ("cps", "duke2", "e64", "misex1", "pdc", "spla", "vg2",
         "5xp1", "alu2", "rd84", "mul4", "9sym", "z4ml", "squar5")

#: Shape parameters of the registry's structured stand-ins
#: (``repro.bench.mcnc.build_*``); the seed only redraws the content.
GENERATED_SHAPES = (
    ("gen_cps", dict(n_in=24, n_out=109, cluster_size=5, support_size=8)),
    ("gen_duke2", dict(n_in=22, n_out=29, cluster_size=5, support_size=10,
                       terms_per_output=3)),
    ("gen_pdc", dict(n_in=16, n_out=40, cluster_size=4, support_size=9,
                     dc_per_cluster=3)),
    ("gen_spla", dict(n_in=16, n_out=46, cluster_size=4, support_size=9,
                      dc_per_cluster=3)),
)

SWEEP_INPUTS = SWEEP + tuple(name for name, _shape in GENERATED_SHAPES)

#: Every input of every workload, in a fixed order.
ALL_INPUTS = HOGS + SWEEP_INPUTS


class Workload:
    """One benchmark workload: its inputs and how a pass runs them."""

    def __init__(self, name, inputs, jobs, check, certify, store,
                 time_limit):
        self.name = name
        self.inputs = tuple(inputs)
        self.jobs = jobs
        self.check = check
        self.certify = certify
        self.store = store          # None, "cold" or "warm"
        self.time_limit = time_limit


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("hogs", HOGS, jobs=1, check=False, certify=False,
                 store=None, time_limit=120.0),
        Workload("sweep_cold_check", SWEEP_INPUTS, jobs=1, check=True,
                 certify=True, store="cold", time_limit=60.0),
        Workload("sweep_warm_j2", SWEEP_INPUTS, jobs=2, check=False,
                 certify=True, store="warm", time_limit=60.0),
    )
}


# ---------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------
def write_inputs(workload, seed, directory):
    """Write the workload's PLA files; returns their paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    rng = random.Random(seed)
    seeds = {name: rng.getrandbits(32) for name, _shape in GENERATED_SHAPES}
    shapes = dict(GENERATED_SHAPES)
    for name in workload.inputs:
        if name in shapes:
            data = structured_pla(seed=seeds[name], **shapes[name])
            mgr, specs = data.to_isfs()
        else:
            mgr, specs = registry.get(name).build()
        path = os.path.join(directory, name + ".pla")
        write_pla(specs, list(mgr.var_names), path=path)
        paths.append(path)
    return paths


class Prepared:
    """A set-up workload directory: PLAs, outputs, store and snapshot."""

    def __init__(self, workload, seed, directory):
        self.workload = workload
        self.directory = directory
        self.paths = write_inputs(workload, seed,
                                  os.path.join(directory, "pla"))
        self.out_dir = os.path.join(directory, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.store_path = None
        self.snapshot = None
        self.leftover_children = 0
        if workload.store is not None:
            self.store_path = os.path.join(directory, "cache",
                                           "sweep.cache.json")
        if workload.store == "warm":
            self._fill_store()

    def _fill_store(self):
        """Fill the store with one ``--jobs 2`` cold sweep, then rewrite it
        in key order: the sweep's entry order depends on which worker
        ran what, and the warm passes must start from identical bytes."""
        config = PipelineConfig(cache_path=self.store_path,
                                sweep_store=True, jobs=2,
                                time_limit=self.workload.time_limit,
                                budget_scope="batch")
        result = run_batch_parallel(self.sources(), config=config, jobs=2,
                                    events=EventBus(record=False))
        self.leftover_children = len(multiprocessing.active_children())
        if result.failures or result.merged_store is None:
            raise RuntimeError("filling the store failed: %s"
                               % [run.error for run in result.failures])
        entries, _skipped = load_store(self.store_path)
        entries.sort(key=lambda entry: entry.key())
        self.snapshot = os.path.join(self.directory, "store.snapshot.json")
        save_store(self.snapshot, make_store(entries, label="perfbench"))

    def sources(self):
        return [PipelineInput(path=path, emit_path=os.path.join(
            self.out_dir, os.path.basename(path)[:-4] + ".blif"))
            for path in self.paths]

    def reset_store(self):
        """Empty store for a cold pass; the set-up snapshot for a warm one."""
        if self.store_path is None:
            return
        directory = os.path.dirname(self.store_path)
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        if self.snapshot is not None:
            shutil.copyfile(self.snapshot, self.store_path)


# ---------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------
class BenchPipeline(Pipeline):
    """The standard pipeline, reporting the session's public counters.

    After each input it publishes a ``bench_input`` event carrying
    ``Session.stats_snapshot()`` (which includes ``BDD.cache_stats()``).
    The batch executor forwards worker events to the parent bus, so the
    counters arrive from forked workers too; under a traced pass a
    forked worker (which inherits *tracer*) also ships its per-input
    span totals home.
    """

    def __init__(self, tracer=None):
        super().__init__(Pipeline.standard().stages)
        self.tracer = tracer

    def run(self, session, source):
        tracer = self.tracer
        forked = tracer is not None and tracer.pid != os.getpid()
        if forked:
            # Stage spans in this worker come from its own session bus.
            tracer.stage_spans = True
            session.events.subscribe(tracer.on_event)
            base = tracer.totals()
        try:
            return super().run(session, source)
        finally:
            payload = {"label": source.label,
                       "snapshot": session.stats_snapshot()}
            if forked:
                payload["layers"] = counter_delta(tracer.totals(), base)
            session.events.publish("bench_input", **payload)


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PassResult:
    """What one pass measured and produced."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.certify_s = 0.0
        self.inputs = {}        # label -> per-input record
        self.stage_s = {}
        self.counters = {}      # label -> stats_snapshot()
        self.parallel = {}
        self.store = {}
        self.leftover_children = 0

    @property
    def failed(self):
        return sum(1 for record in self.inputs.values()
                   if record["failure"] is not None)


def run_pass(prepared, time_limit, tracer=None):
    """Run every input once under one *time_limit* budget; returns a
    :class:`PassResult`."""
    workload = prepared.workload
    prepared.reset_store()
    config = PipelineConfig(
        check_contracts=workload.check,
        emit_certificates=workload.certify,
        cache_path=prepared.store_path,
        sweep_store=prepared.store_path is not None,
        jobs=workload.jobs, time_limit=time_limit, budget_scope="batch")
    out = PassResult()
    marks = {"first_task": None, "last_input": None, "tasks": 0,
             "worker_failures": 0}

    def collect(event):
        name, payload = event.name, event.payload
        if name == "stage_finished":
            stage = payload["stage"]
            out.stage_s[stage] = (out.stage_s.get(stage, 0.0)
                                  + payload["elapsed"])
        elif name == "task_assigned":
            marks["tasks"] += 1
            if marks["first_task"] is None:
                marks["first_task"] = perf_counter()
        elif name == "worker_failed":
            marks["worker_failures"] += 1
        elif name == "bench_input":
            marks["last_input"] = perf_counter()
            out.counters[payload["label"]] = payload["snapshot"]
            if tracer is not None and "layers" in payload:
                tracer.merge(payload["layers"])

    events = EventBus(record=False)
    events.subscribe(collect)
    if tracer is not None:
        events.subscribe(tracer.on_event)
        tracer.install()
        tracer.open("pass")
    try:
        cpu0 = _rusage()
        started = perf_counter()
        result = run_batch_parallel(prepared.sources(), config=config,
                                    jobs=workload.jobs, events=events,
                                    pipeline=BenchPipeline(tracer))
        returned = perf_counter()
        certified = {}
        if workload.certify:
            for run in result:
                if run.error is None:
                    certified[run.label] = _certify(run)
        out.wall_s = perf_counter() - started
        out.cpu_s = _rusage() - cpu0
        out.certify_s = out.wall_s - (returned - started)
    finally:
        if tracer is not None:
            tracer.close()
            tracer.uninstall()
    out.leftover_children = len(multiprocessing.active_children())

    busy = sum(run.elapsed for run in result)
    span = returned - started
    out.parallel = {
        "spawn_s": ((marks["first_task"] or returned) - started),
        "busy_s": busy,
        "idle_frac": 1.0 - busy / (result.jobs * span) if span else 0.0,
        "tail_s": returned - (marks["last_input"] or returned),
        "tasks": marks["tasks"],
        "worker_failures": marks["worker_failures"],
        "jobs": result.jobs,
    }
    if prepared.store_path is not None:
        out.store = {"entries": result.merged_entries,
                     "bytes": (os.path.getsize(prepared.store_path)
                               if os.path.exists(prepared.store_path)
                               else 0)}
    for run in result:
        out.inputs[run.label] = _input_record(run, certified.get(run.label))
    return out


def _certify(run):
    """Offline certifier on one emitted artifact triple."""
    started = perf_counter()
    try:
        report = certify_module.certify_file(run.source.path,
                                             run.source.emit_path,
                                             run.certificate_path)
    except CertificateError as exc:
        return {"ok": False, "steps": 0, "error": str(exc),
                "seconds": perf_counter() - started}
    return {"ok": report.ok, "steps": report.steps_checked,
            "error": None if report.ok else report.format_text(),
            "seconds": perf_counter() - started}


def _digest(path):
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _input_record(run, certified):
    record = {"wall_s": run.elapsed, "failure": None,
              "blif": run.source.emit_path, "spec": run.source.path,
              "certificate": run.certificate_path,
              "blif_sha256": _digest(run.source.emit_path),
              "cert_sha256": _digest(run.certificate_path),
              "cert_bytes": (os.path.getsize(run.certificate_path)
                             if run.certificate_path else 0),
              "certify_steps": certified["steps"] if certified else 0,
              "blif_bytes": 0}
    decompose = run.stage_record("decompose") or {}
    emit = run.stage_record("emit") or {}
    record["blif_bytes"] = emit.get("bytes", 0)
    record["cert_steps"] = emit.get("certificate_steps", 0)
    record["contract_checks"] = (decompose.get("contracts") or {}).get(
        "total_checks", 0)
    if run.error is not None:
        record["failure"] = "%s: %s" % (run.error["type"],
                                        run.error["message"])
        return record
    stats = run.netlist_stats()
    record.update(gates=stats.gates, area=stats.area, delay=stats.delay)
    if certified is not None and not certified["ok"]:
        record["failure"] = "certificate rejected: %s" % certified["error"]
    elif run.certificate_path is None and certified is not None:
        record["failure"] = "no certificate emitted"
    return record


def verify_outputs(pass_result):
    """BDD-verify every emitted BLIF against a fresh load of its PLA.

    Marks mismatches as failures on the pass and returns how many
    outputs were verified.
    """
    verified = 0
    for record in pass_result.inputs.values():
        if record["failure"] is not None:
            continue
        _data, _mgr, specs = load_pla(record["spec"])
        try:
            netlist = parse_blif_netlist(read_text(record["blif"]))
            ok = verify_against_isfs(netlist, specs, raise_on_fail=False)
        except (BLIFError, VerificationError) as exc:
            ok = False
            record["failure"] = "verify error: %s" % exc
        if not ok:
            record["failure"] = record["failure"] or "verify mismatch"
            continue
        verified += len(specs)
    return verified
