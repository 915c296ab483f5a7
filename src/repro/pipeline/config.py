"""Validated configuration for a pipeline session.

:class:`PipelineConfig` merges the engine's
:class:`~repro.decomp.DecompositionConfig` with the run-level knobs the
driver used to hard-code: which synthesis flow to run, whether to
verify, the recursion-limit headroom, and the two resource budgets
(wall-clock seconds and live BDD nodes) enforced by the session.
"""

from repro.decomp.bidecomp import DecompositionConfig
from repro.pipeline.limits import DEFAULT_RECURSION_LIMIT

#: Synthesis flows the decompose stage can dispatch to.
FLOWS = ("bidecomp", "sis", "bds")

#: What the wall-clock budget (``time_limit``) spans.
BUDGET_SCOPES = ("run", "batch")

#: Registry of pipeline stage names.  Every stage composed into a
#: :class:`repro.pipeline.Pipeline` must use one of these names —
#: ``repro selfcheck`` enforces it statically (rule ``stage-registry``)
#: so event consumers can rely on a closed vocabulary.
STAGE_NAMES = (
    "parse",
    "build_isfs",
    "preprocess",
    "decompose",
    "verify",
    "map",
    "emit",
)


class PipelineConfig:
    """Validated run-level configuration.

    Parameters
    ----------
    decomposition:
        :class:`DecompositionConfig` for the engine (default-constructed
        when omitted).
    flow:
        ``"bidecomp"`` (the paper's program), ``"sis"`` or ``"bds"``
        (the comparison baselines).
    verify:
        Run the BDD verifier on every synthesised netlist.
    check_contracts:
        Opt-in checked mode: run the decomposition under the
        theorem-contract sanitizer
        (:class:`repro.analysis.CheckedDecompositionEngine`), which
        re-verifies the paper's Theorem 1/2/3/4/6 certificates at every
        recursion step and publishes ``contract_violated`` events.
        Slower; off by default (the CLI flag is ``--check``).
    time_limit:
        Wall-clock budget in seconds, or None.
        Exceeding it raises :class:`~repro.pipeline.PipelineTimeout`.
    budget_scope:
        What ``time_limit`` spans.  ``"run"`` (the default, and the
        historical behaviour) restarts the clock for every pipeline
        run, so a batch of N inputs may spend up to N x ``time_limit``.
        ``"batch"`` starts the clock once and lets it span every
        subsequent run of the session — the whole batch shares one
        budget.  In the parallel executor (``jobs > 1``) the parent
        arms a *single* sweep-wide :class:`~repro.pipeline.limits.Deadline`
        and every worker session adopts it, so the whole sweep — not
        each worker's share of it — finishes within one ``time_limit``
        of wall clock.
    jobs:
        Worker processes for batch execution
        (:meth:`~repro.pipeline.Pipeline.run_batch` /
        :func:`repro.pipeline.parallel.run_batch_parallel`).  ``1``
        (default) keeps the serial in-process path; ``0`` means
        auto-detect (``os.cpu_count()``).  Values above 1 partition
        batch inputs across that many processes, each with its own
        session and BDD manager.
    max_nodes:
        Budget of live BDD nodes in the session manager, or None.
        Exceeding it raises
        :class:`~repro.pipeline.NodeLimitExceeded`.
    recursion_limit:
        Interpreter recursion headroom installed around the engine
        (moved here from ``repro.decomp.driver``).
    model:
        BLIF ``.model`` name used by the emit stage.
    progress_interval:
        Engine calls between ``decompose_progress`` events.
    flow_options:
        Extra keyword arguments forwarded to the baseline synthesiser
        (e.g. ``{"factor": True, "minimizer": "espresso"}`` for the sis
        flow, ``{"use_xor": False}`` for bds).  Ignored by bidecomp.
    cache_path:
        Path of a component-cache store file
        (:mod:`repro.decomp.cache_store`), or None.  When set, the
        session seeds its Theorem 6 component cache from the file (if
        it exists) and :meth:`Session.flush_component_cache` writes the
        cache back (the CLI flag is ``--cache-dir``).
    cache_readonly:
        Load the store but never write it back (warm-start runs that
        must not perturb the cache on disk).
    sweep_store:
        Provenance flag: ``cache_path`` is a single *cross-benchmark
        sweep store* shared by every input (and every CLI invocation
        pointed at the same ``--cache-dir``), rather than a per-stem
        or per-batch file.  Store entries are keyed stem-agnostically
        by ``(sorted support names, canonical ISOP cover)`` and every
        rehydrated hit re-proves the Theorem 6 containment tests in
        the target manager, so cross-PLA key collisions are safe by
        construction — a component learned on one benchmark either
        proves compatible with the next or is skipped.  Requires
        ``cache_path``; recorded in reports so a ``--stats-json``
        document says which store discipline produced its hit rates
        (the CLI flag is ``--sweep-store``).
    emit_certificates:
        Record a proof trace of every decomposition step
        (:class:`repro.decomp.CertificateTracer`) and write a
        ``<stem>.cert.json`` certificate beside each emitted BLIF for
        the offline certifier (``repro certify``,
        :mod:`repro.analysis.certify`).  Only the bidecomp flow
        produces traces; off by default (the CLI flags are
        ``--certificates`` / ``--certify``).
    """

    def __init__(self, decomposition=None, flow="bidecomp", verify=True,
                 check_contracts=False, time_limit=None, max_nodes=None,
                 recursion_limit=DEFAULT_RECURSION_LIMIT,
                 model="bidecomp", progress_interval=1024,
                 flow_options=None, cache_path=None, cache_readonly=False,
                 sweep_store=False, budget_scope="run", jobs=1,
                 emit_certificates=False):
        if decomposition is None:
            decomposition = DecompositionConfig()
        if not isinstance(decomposition, DecompositionConfig):
            raise ValueError("decomposition must be a DecompositionConfig, "
                             "got %r" % (decomposition,))
        if flow not in FLOWS:
            raise ValueError("flow must be one of %s, got %r"
                             % ("/".join(FLOWS), flow))
        if time_limit is not None:
            time_limit = float(time_limit)
            if time_limit <= 0:
                raise ValueError("time_limit must be positive, got %r"
                                 % time_limit)
        if max_nodes is not None:
            max_nodes = int(max_nodes)
            if max_nodes <= 0:
                raise ValueError("max_nodes must be positive, got %r"
                                 % max_nodes)
        recursion_limit = int(recursion_limit)
        if recursion_limit < 1000:
            raise ValueError("recursion_limit must be >= 1000, got %r"
                             % recursion_limit)
        progress_interval = int(progress_interval)
        if progress_interval <= 0:
            raise ValueError("progress_interval must be positive, got %r"
                             % progress_interval)
        self.decomposition = decomposition
        self.flow = flow
        self.verify = bool(verify)
        self.check_contracts = bool(check_contracts)
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.recursion_limit = recursion_limit
        self.model = model
        self.progress_interval = progress_interval
        if flow_options is not None and not isinstance(flow_options, dict):
            raise ValueError("flow_options must be a dict, got %r"
                             % (flow_options,))
        self.flow_options = dict(flow_options or {})
        if cache_path is not None and not isinstance(cache_path, str):
            raise ValueError("cache_path must be a path string or None, "
                             "got %r" % (cache_path,))
        self.cache_path = cache_path
        self.cache_readonly = bool(cache_readonly)
        sweep_store = bool(sweep_store)
        if sweep_store and cache_path is None:
            raise ValueError("sweep_store needs a cache_path to point "
                             "the shared sweep store at")
        self.sweep_store = sweep_store
        if budget_scope not in BUDGET_SCOPES:
            raise ValueError("budget_scope must be one of %s, got %r"
                             % ("/".join(BUDGET_SCOPES), budget_scope))
        self.budget_scope = budget_scope
        jobs = int(jobs)
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = auto), got %r" % jobs)
        self.jobs = jobs
        self.emit_certificates = bool(emit_certificates)

    @classmethod
    def coerce(cls, value):
        """Accept None, a PipelineConfig, or a DecompositionConfig."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, DecompositionConfig):
            return cls(decomposition=value)
        raise ValueError("cannot build a PipelineConfig from %r" % (value,))

    def as_dict(self):
        """Flat dict view (for ``--stats-json`` dumps)."""
        return {
            "flow": self.flow,
            "verify": self.verify,
            "check_contracts": self.check_contracts,
            "time_limit": self.time_limit,
            "max_nodes": self.max_nodes,
            "recursion_limit": self.recursion_limit,
            "model": self.model,
            "cache_path": self.cache_path,
            "cache_readonly": self.cache_readonly,
            "sweep_store": self.sweep_store,
            "budget_scope": self.budget_scope,
            "jobs": self.jobs,
            "emit_certificates": self.emit_certificates,
        }

    def __repr__(self):
        return "PipelineConfig(%s)" % self.as_dict()
