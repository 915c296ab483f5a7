"""The pipeline session: one instrumented context from BDD manager to
BLIF out.

A :class:`Session` owns everything the hand-wired flows used to juggle
separately:

* the BDD manager (adopted or created lazily), with the node-budget /
  wall-clock growth hook installed on it;
* the validated :class:`~repro.pipeline.PipelineConfig`;
* the :class:`~repro.pipeline.EventBus` carrying structured
  ``stage_started`` / ``stage_finished`` / ``decompose_progress``
  events;
* one netlist, component cache and
  :class:`~repro.decomp.DecompositionEngine`, shared between the
  outputs of its one input the way the paper shares decomposed blocks
  (Section 6).  Sweeps give each input a fresh session
  (:func:`repro.pipeline.run_batch_parallel`) and share components
  through the persistent store: the run reads it once and seeds every
  session from the parsed entries (*stored*), and after each input
  :meth:`Session.component_entries` hands the live components back for
  the run's one merge (:mod:`repro.decomp.cache_store`).

The multi-output driver (``repro.decomp.bi_decompose``) is a thin
wrapper over :meth:`Session.decompose_specs`.
"""

import time
from contextlib import contextmanager

from repro.pipeline.config import PipelineConfig
from repro.pipeline.events import EventBus
from repro.pipeline.limits import (DEFAULT_RECURSION_LIMIT, Deadline,
                                   NodeLimitExceeded, recursion_guard)

#: Fresh-node allocations between growth-hook invocations on the
#: manager; small enough to catch runaway growth promptly, large enough
#: to keep the hot path unaffected.
GROWTH_CHECK_INTERVAL = 512

#: Engine calls between ``decompose_progress`` events.
PROGRESS_INTERVAL = 1024


class Session:
    """Instrumented execution context for synthesis pipelines.

    Parameters
    ----------
    config:
        :class:`PipelineConfig`, :class:`~repro.decomp.DecompositionConfig`
        or None (coerced).
    mgr:
        Optional BDD manager to adopt immediately; otherwise the first
        ``build_isfs`` stage (or :meth:`adopt_manager`) supplies one.
    events:
        Optional :class:`EventBus`; a recording bus is created when
        omitted.
    stored:
        :class:`~repro.decomp.cache_store.StoredComponent` list the
        component cache is seeded from (the run's one read of the
        store, :func:`repro.decomp.cache_store.open_store`), or None
        for a session without a store.  The session never opens or
        writes the store file itself.
    """

    def __init__(self, config=None, mgr=None, events=None, stored=None):
        self.config = PipelineConfig.coerce(config)
        self.events = events if events is not None else EventBus()
        self.mgr = None
        self.netlist = None
        self.engine = None
        self._stored = stored
        self._deadline = None
        self._clock_started = False
        self._stage = None
        self._progress_countdown = PROGRESS_INTERVAL
        if mgr is not None:
            self.adopt_manager(mgr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Uninstall manager hooks and emit ``session_closed``."""
        if self.mgr is not None:
            self.mgr.set_growth_hook(None)
        self.events.publish("session_closed")

    # ------------------------------------------------------------------
    # Component-cache persistence (Theorem 6, cross-run)
    # ------------------------------------------------------------------
    def _build_component_cache(self):
        """Persistent cache seeded from *stored*, or None (engine
        default) for a session without a store or with the cache off."""
        from repro.decomp.cache_store import PersistentComponentCache
        if self._stored is None or not self.config.decomposition.use_cache:
            return None
        return PersistentComponentCache(self._stored)

    def component_entries(self):
        """The engine's live components as store-format dicts.

        This is the session's contribution to the run's store merge
        (:func:`repro.decomp.cache_store.commit_store`); ``[]`` before
        any engine exists.  Detaches the budget hook first: serialising
        runs ISOP on the session's manager, and a run that tripped its
        budget still banks every component it finished.
        """
        from repro.decomp.cache_store import serialize_cache
        if self.engine is None:
            return []
        self.mgr.set_growth_hook(None)
        return serialize_cache(self.engine.cache, self.mgr,
                               self.netlist)["entries"]

    def adopt_manager(self, mgr):
        """Attach *mgr* to the session and install the limit hook.

        Re-adopting the session's own manager is a no-op; a session
        serves one input, so a second, different manager raises
        :class:`ValueError`.
        """
        if mgr is self.mgr:
            return mgr
        if self.mgr is not None:
            raise ValueError("session already owns a different BDD "
                             "manager; a Session serves one input")
        self.mgr = mgr
        mgr.set_growth_hook(self._on_manager_growth,
                            interval=GROWTH_CHECK_INTERVAL)
        return mgr

    # ------------------------------------------------------------------
    # Limits
    # ------------------------------------------------------------------
    def start_clock(self):
        """Start the wall-clock budget of the session's one pipeline run.

        Keeps a deadline adopted through :meth:`adopt_deadline`;
        otherwise arms a fresh :class:`Deadline` of ``time_limit``.  A
        session serves one input, so a second call raises
        :class:`ValueError`.
        """
        if self._clock_started:
            raise ValueError("session already ran an input; a Session "
                             "serves one input")
        self._clock_started = True
        if self._deadline is None and self.config.time_limit is not None:
            self._deadline = Deadline(self.config.time_limit)

    def adopt_deadline(self, deadline):
        """Share an externally owned :class:`Deadline` with this session.

        The parallel batch executor uses this to stretch one
        sweep-wide clock across every session of the batch: under
        ``budget_scope="batch"`` the parent arms a single Deadline
        when the sweep starts, every input's session adopts it (the
        Deadline survives fork/pickle — see its docstring), and
        :meth:`start_clock` keeps the adopted deadline instead of
        arming a fresh one.
        """
        self._deadline = deadline
        return deadline

    def check_limits(self):
        """Raise PipelineTimeout / NodeLimitExceeded when over budget."""
        if self._deadline is not None:
            self._deadline.check(stage=self._stage)
        limit = self.config.max_nodes
        if limit is not None and self.mgr is not None:
            live = self.mgr.live_count()
            if live > limit:
                raise NodeLimitExceeded(limit, live, stage=self._stage)

    def _on_manager_growth(self, mgr):
        """Growth hook installed on the BDD manager (hot path)."""
        self.check_limits()

    def _on_contract_violation(self, contract, message, detail=None):
        """Sanitizer callback: carry the violation on the event bus.

        The checked engine raises :class:`ContractViolation` right
        after this returns, so the event always precedes the failure.
        """
        self.events.publish("contract_violated", contract=contract,
                            message=message, detail=detail,
                            stage=self._stage)

    def _on_engine_call(self, kind, stats):
        """Engine observer: limit check + throttled progress events."""
        if self._deadline is not None and self._deadline.expired():
            self._deadline.check(stage=self._stage)
        self._progress_countdown -= 1
        if self._progress_countdown <= 0:
            self._progress_countdown = PROGRESS_INTERVAL
            self.events.publish("decompose_progress",
                               stage=self._stage,
                               calls=stats.calls,
                               bdd_nodes=self.mgr.live_count(),
                               last_step=kind)

    # ------------------------------------------------------------------
    # Stage instrumentation
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name, **info):
        """Run one named stage under timing, limits and events.

        Yields a mutable ``record`` dict; whatever the stage body puts
        there is merged into the ``stage_finished`` payload (cache hit
        rates, gate counts, ...).  ``stage_failed`` carries the same
        record and node count, so partial counters from a timed-out
        stage survive into the failure event.

        Stages nest: the previous stage name is restored on exit, so an
        outer stage keeps its attribution (limit violations,
        ``contract_violated`` / ``decompose_progress`` events) after an
        inner stage finishes.
        """
        previous_stage = self._stage
        self._stage = name
        self.check_limits()
        self.events.publish("stage_started", stage=name, **info)
        record = {}
        started = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            payload = {"stage": name,
                       "elapsed": time.perf_counter() - started,
                       "error": type(exc).__name__,
                       "bdd_nodes": (self.mgr.live_count()
                                     if self.mgr is not None else 0)}
            payload.update(record)
            self.events.publish("stage_failed", **payload)
            raise
        finally:
            self._stage = previous_stage
        payload = {"stage": name,
                   "elapsed": time.perf_counter() - started,
                   "bdd_nodes": (self.mgr.live_count()
                                 if self.mgr is not None else 0)}
        if self.mgr is not None:
            mgr_stats = self.mgr.cache_stats()
            payload["bdd_cache_hit_rate"] = mgr_stats["cache_hit_rate"]
            payload["bdd_peak_nodes"] = mgr_stats["peak_live_nodes"]
            payload["bdd_quantify_calls"] = mgr_stats["quantify_calls"]
            payload["bdd_and_exists_calls"] = mgr_stats["and_exists_calls"]
            payload["bdd_quantify_steps"] = mgr_stats["quantify_steps"]
        payload.update(record)
        self.events.publish("stage_finished", **payload)

    # ------------------------------------------------------------------
    # Decomposition (the engine runs in here)
    # ------------------------------------------------------------------
    def _ensure_engine(self):
        """Build the netlist/engine for self.mgr on first use."""
        from repro.decomp.bidecomp import DecompositionEngine
        from repro.network.netlist import Netlist
        if self.mgr is None:
            raise ValueError("session has no BDD manager; adopt one first")
        if self.engine is not None:
            return self.engine
        self.netlist = Netlist(self.mgr.var_names)
        var_nodes = {var: self.netlist.input_node(self.mgr.var_name(var))
                     for var in range(self.mgr.num_vars)}
        cache = self._build_component_cache()
        if self.config.check_contracts:
            from repro.analysis.contracts import CheckedDecompositionEngine
            self.engine = CheckedDecompositionEngine(
                self.mgr, self.netlist, var_nodes,
                config=self.config.decomposition, cache=cache,
                observer=self._on_engine_call,
                on_violation=self._on_contract_violation)
        else:
            self.engine = DecompositionEngine(
                self.mgr, self.netlist, var_nodes,
                config=self.config.decomposition, cache=cache,
                observer=self._on_engine_call)
        if cache is not None:
            cache.bind(self.mgr, self.netlist, self.engine.var_nodes)
        if self.config.emit_certificates:
            from repro.decomp.trace import CertificateTracer
            self.engine.tracer = CertificateTracer(self.mgr)
        return self.engine

    def decompose_specs(self, specs, record=None):
        """Bi-decompose ``{output_name: ISF}`` into the session's netlist.

        Returns a :class:`~repro.decomp.DecompositionResult` whose
        counters are the *delta* contributed by this call.  Raises
        :class:`ValueError` when the netlist already declares one of
        the output names.
        """
        from repro.decomp.bidecomp import DecompositionStats
        from repro.decomp.driver import DecompositionResult, validate_specs
        mgr, specs = validate_specs(specs)
        self.adopt_manager(mgr)  # no-op when the session already owns it
        engine = self._ensure_engine()
        clash = sorted(set(specs) & {n for n, _ in self.netlist.outputs})
        if clash:
            raise ValueError("the session's netlist already declares "
                             "output(s) %s" % ", ".join(clash))

        stats_before = engine.stats.as_dict()
        cache_before = engine.cache.stats()
        functions = {}
        started = time.perf_counter()
        roots = {}
        tracer = getattr(engine, "tracer", None)
        with recursion_guard(DEFAULT_RECURSION_LIMIT):
            for name, isf in specs.items():
                csf, node = engine.decompose(isf)
                self.netlist.set_output(name, node)
                functions[name] = csf
                if tracer is not None:
                    roots[name] = tracer.last_root
        elapsed = time.perf_counter() - started

        stats = DecompositionStats.from_dict(
            _diff_counters(stats_before, engine.stats.as_dict()))
        cache_stats = _diff_counters(cache_before, engine.cache.stats(),
                                     absolute=("size", "dormant"))
        result = DecompositionResult(self.netlist, functions, stats,
                                     cache_stats, elapsed,
                                     provenance=engine.provenance)
        if record is not None:
            record["decomposition"] = stats.as_dict()
            record["cache"] = dict(cache_stats)
            lookups = max(1, cache_stats.get("lookups", 0))
            record["cache_hit_rate"] = cache_stats.get("hits", 0) / lookups
            contract_stats = getattr(engine, "contract_stats", None)
            if contract_stats is not None:
                record["contracts"] = contract_stats.as_dict()
            if tracer is not None:
                record["certificate_roots"] = dict(roots)
        return result

    def build_certificate(self, run):
        """Assemble the certificate document for one pipeline run.

        Uses the proof roots the decompose stage recorded on *run*
        (``run.certificate_roots``: ``{output_name: tracer step id}``);
        returns the document, or None when the run was not traced
        (certificates disabled, or a non-bidecomp flow).
        """
        tracer = getattr(self.engine, "tracer", None)
        if tracer is None or not run.certificate_roots:
            return None
        return tracer.document(run.certificate_roots, label=run.label,
                               model=self.config.model)

    def stats_snapshot(self):
        """Session-level counters for reports."""
        snap = {"bdd_nodes": self.mgr.live_count() if self.mgr else 0}
        if self.mgr is not None:
            snap["bdd_cache"] = self.mgr.cache_stats()
        if self.engine is not None:
            snap["engine_totals"] = self.engine.stats.as_dict()
            snap["cache_totals"] = self.engine.cache.stats()
            contract_stats = getattr(self.engine, "contract_stats", None)
            if contract_stats is not None:
                snap["contract_totals"] = contract_stats.as_dict()
        return snap


def _diff_counters(before, after, absolute=()):
    """Per-key difference of two counter dicts.

    Keys listed in *absolute* are taken from *after* unchanged (e.g. a
    cache's current size, which is not a monotone counter).
    """
    out = {}
    for key, value in after.items():
        if key in absolute or not isinstance(value, (int, float)):
            out[key] = value
        else:
            out[key] = value - before.get(key, 0)
    return out
