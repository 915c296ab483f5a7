"""Composable pipeline of named stages over a :class:`Session`.

The paper's program is one fixed pipeline — read PLA, build ISF BDDs,
bi-decompose, write BLIF — and its reported CPU time spans exactly that.
:class:`Pipeline` reifies it as named stages

    parse -> build_isfs -> preprocess -> decompose -> verify -> map -> emit

each of which runs inside :meth:`Session.stage`, so every run gets
per-stage ``stage_started`` / ``stage_finished`` events (elapsed time,
BDD node counts, cache hit rates, gate counts) and obeys the session's
time / node budgets.  A stage whose inputs are already present (e.g.
``parse`` when the caller supplies ISFs directly) is skipped but still
emits its events with ``skipped=True``, keeping the event stream's
shape deterministic.

A session serves one input: :meth:`Pipeline.run` raises on a session
that already ran one.  Many inputs go through
:func:`repro.pipeline.run_batch_parallel`, which gives each its own
fresh session (in-process for ``jobs=1``, across worker processes
otherwise) and shares Theorem 6 components between them through the
persistent component store.
"""

import os
import time

from repro.io import (cert_path_for, parse_pla, read_text, save_cert,
                      write_blif)
from repro.network.stats import compute_stats


class PipelineInput:
    """One unit of work for a pipeline run.

    Exactly one source must be given: a *path* (``"-"`` for stdin), raw
    PLA *text*, a parsed *pla*, or prebuilt ``mgr`` + *specs*.
    """

    def __init__(self, path=None, text=None, pla=None, mgr=None,
                 specs=None, label=None, emit_path=None):
        if specs is None and pla is None and text is None and path is None:
            raise ValueError("PipelineInput needs path, text, pla or specs")
        self.path = path
        self.text = text
        self.pla = pla
        self.mgr = mgr
        self.specs = specs
        self.label = input_stem(path) if label is None else label
        self.emit_path = emit_path


class PipelineRun:
    """Mutable context threaded through the stages, and the run result."""

    def __init__(self, source):
        self.source = source
        self.label = source.label
        self.pla = source.pla
        self.mgr = source.mgr
        self.specs = source.specs
        self.result = None          # DecompositionResult / BaselineResult
        self.netlist = None
        self.mapping = None
        self.blif = None
        self.certificate_roots = {}  # output name -> tracer step id
        self.certificate_path = None
        self.stages = []            # stage_finished payloads, in order
        self.elapsed = 0.0

    # -- derived views --------------------------------------------------
    def netlist_stats(self):
        """Cost metrics of this run's netlist."""
        return compute_stats(self.netlist)

    def stage_record(self, stage):
        """The ``stage_finished`` payload of *stage* (or None)."""
        for payload in self.stages:
            if payload.get("stage") == stage:
                return payload
        return None

    def stats_json(self, config=None):
        """Structured run report (the ``--stats-json`` document)."""
        doc = {
            "input": self.source.path or self.label,
            "label": self.label,
            "elapsed": self.elapsed,
            "stages": list(self.stages),
        }
        if config is not None:
            doc["config"] = config.as_dict()
        if self.netlist is not None:
            doc["netlist"] = self.netlist_stats().as_dict()
        decomp = self.stage_record("decompose") or {}
        if "decomposition" in decomp:
            doc["decomposition"] = decomp["decomposition"]
        if "cache" in decomp:
            doc["cache"] = decomp["cache"]
            doc["cache_hit_rate"] = decomp.get("cache_hit_rate", 0.0)
            doc["rehydrated_hits"] = decomp["cache"].get(
                "rehydrated_hits", 0)
        # Manager-level counters: the last stage that ran with a BDD
        # manager carries the final unique/computed-table snapshot.
        for payload in reversed(self.stages):
            if "bdd_peak_nodes" in payload:
                doc["bdd_cache_hit_rate"] = payload.get(
                    "bdd_cache_hit_rate", 0.0)
                doc["bdd_peak_nodes"] = payload["bdd_peak_nodes"]
                doc["bdd_quantify_calls"] = payload.get(
                    "bdd_quantify_calls", 0)
                doc["bdd_and_exists_calls"] = payload.get(
                    "bdd_and_exists_calls", 0)
                doc["bdd_quantify_steps"] = payload.get(
                    "bdd_quantify_steps", 0)
                break
        if self.certificate_path:
            doc["certificate"] = self.certificate_path
        return doc


# ---------------------------------------------------------------------
# Stage bodies.  Each takes (session, run, record) and mutates the run;
# returning without touching the run marks nothing — stages decide
# themselves whether their work is already done (skip semantics).
# ---------------------------------------------------------------------
def stage_parse(session, run, record):
    """PLA text -> :class:`~repro.io.PLAData`."""
    if run.specs is not None or run.pla is not None:
        record["skipped"] = True
        return
    text = run.source.text
    if text is None:
        text = read_text(run.source.path)
    run.pla = parse_pla(text)
    record["inputs"] = run.pla.num_inputs
    record["outputs"] = run.pla.num_outputs
    record["cubes"] = len(run.pla.cubes)


def stage_build_isfs(session, run, record):
    """PLAData -> per-output ISFs on a fresh manager the session adopts."""
    if run.specs is not None:
        session.adopt_manager(run.mgr)
        record["skipped"] = True
        return
    mgr = session.adopt_manager(run.pla.make_manager())
    _mgr, run.specs = run.pla.to_isfs(mgr=mgr)
    run.mgr = mgr
    record["isf_nodes"] = sum(
        mgr.node_count(isf.on.node) + mgr.node_count(isf.off.node)
        for isf in run.specs.values())


def stage_preprocess(session, run, record):
    """Record per-output support sizes (hook point for reordering)."""
    mgr = run.mgr
    supports = {name: len(isf.structural_support())
                for name, isf in run.specs.items()}
    record["max_support"] = max(supports.values(), default=0)
    record["total_outputs"] = len(supports)
    record["bdd_vars"] = mgr.num_vars


def stage_decompose(session, run, record):
    """Dispatch to the configured synthesis flow."""
    flow = session.config.flow
    if flow == "bidecomp":
        run.result = session.decompose_specs(run.specs, record=record)
        run.netlist = run.result.netlist
        run.certificate_roots = dict(record.get("certificate_roots") or {})
    else:
        from repro.baselines import (bds_like_synthesize,
                                     sis_like_synthesize)
        if flow == "sis":
            run.result = sis_like_synthesize(run.specs, session=session)
        else:
            run.result = bds_like_synthesize(run.specs, session=session)
        run.netlist = run.result.netlist
    stats = run.netlist_stats()
    record["flow"] = flow
    record["gates"] = stats.gates
    record["exors"] = stats.exors
    record["area"] = stats.area


def stage_verify(session, run, record):
    """BDD-verify every output against its specification interval."""
    if not session.config.verify:
        record["skipped"] = True
        return
    from repro.network.verify import verify_against_isfs
    verify_against_isfs(run.netlist, run.specs)
    record["verified_outputs"] = len(run.specs)


def stage_map(session, run, record):
    """Standard-cell mapping (only when the pipeline enables it)."""
    from repro.network.mapper import map_netlist, verify_mapping
    run.mapping = map_netlist(run.netlist)
    verify_mapping(run.mapping, run.mgr)
    record["cells"] = sum(run.mapping.cell_counts.values())
    record["mapped_area"] = run.mapping.area
    record["mapped_delay"] = run.mapping.delay


def stage_emit(session, run, record):
    """Serialise this run's netlist as BLIF."""
    run.blif = write_blif(run.netlist, model=session.config.model,
                          path=run.source.emit_path)
    record["bytes"] = len(run.blif)
    if (session.config.emit_certificates
            and run.source.emit_path is not None
            and run.certificate_roots):
        doc = session.build_certificate(run)
        if doc is not None:
            run.certificate_path = save_cert(
                cert_path_for(run.source.emit_path), doc)
            record["certificate"] = run.certificate_path
            record["certificate_steps"] = len(doc["steps"])
            session.events.publish("certificate_emitted",
                                   path=run.certificate_path,
                                   steps=len(doc["steps"]),
                                   label=run.label)


class Pipeline:
    """An ordered list of named stages run inside a session."""

    def __init__(self, stages):
        self.stages = list(stages)

    @classmethod
    def standard(cls, emit=True, map_cells=False):
        """The paper's pipeline: parse -> ... -> verify [-> map] [-> emit]."""
        stages = [("parse", stage_parse),
                  ("build_isfs", stage_build_isfs),
                  ("preprocess", stage_preprocess),
                  ("decompose", stage_decompose),
                  ("verify", stage_verify)]
        if map_cells:
            stages.append(("map", stage_map))
        if emit:
            stages.append(("emit", stage_emit))
        return cls(stages)

    def stage_names(self):
        """Names of the composed stages, in execution order."""
        return [name for name, _fn in self.stages]

    def run(self, session, source):
        """Run one input through every stage; returns a PipelineRun.

        *session* must be fresh: a session serves one input, and a
        second run on it raises :class:`ValueError`.  The session's
        wall-clock budget starts here (or is the sweep-wide deadline it
        adopted) and every stage, and BDD growth inside it, is checked
        against it.
        """
        if not isinstance(source, PipelineInput):
            source = PipelineInput(**source) if isinstance(source, dict) \
                else PipelineInput(path=source)
        run = PipelineRun(source)
        session.start_clock()
        collect = session.events.subscribe(
            lambda event: run.stages.append(dict(event.payload))
            if event.name == "stage_finished" else None)
        started = time.perf_counter()
        try:
            for name, fn in self.stages:
                with session.stage(name, label=run.label) as record:
                    fn(session, run, record)
        finally:
            run.elapsed = time.perf_counter() - started
            session.events.unsubscribe(collect)
        return run


def input_stem(path):
    """File name of *path* without its extension; ``"input"`` for
    stdin (``-``) or no path.  It names the run, the BLIF and the
    certificate ``--output-dir`` writes, and the per-stem store."""
    if path in (None, "-"):
        return "input"
    name = os.path.basename(str(path))
    return name.rsplit(".", 1)[0] if "." in name else name
