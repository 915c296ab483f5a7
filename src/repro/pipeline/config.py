"""Validated configuration for a pipeline session.

:class:`PipelineConfig` merges the engine's
:class:`~repro.decomp.DecompositionConfig` with the run-level knobs the
driver used to hard-code: which synthesis flow to run, whether to
verify, and the two resource budgets (wall-clock seconds and live BDD
nodes) enforced by the session.
"""

import numbers

from repro.decomp.bidecomp import DecompositionConfig
from repro.pipeline.limits import budget_seconds

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


def _count(value, name):
    """*value* as an int; ``ValueError`` for a bool or a non-integral
    number, which ``int()`` would silently truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


def _jobs(value):
    """*value* as a worker count: an integer >= 0, where 0 means
    auto-detect."""
    jobs = _count(value, "jobs")
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto), got %r" % jobs)
    return jobs


class PipelineConfig:
    """Validated run-level configuration.

    Parameters
    ----------
    decomposition:
        :class:`DecompositionConfig` for the engine (default-constructed
        when omitted).
    flow:
        ``"bidecomp"`` (the paper's program), ``"sis"`` or ``"bds"``
        (the comparison baselines, each in the one configuration its
        table runs: ``"sis"`` maps an ISOP cover onto balanced AND/OR
        trees with no factoring (Table 2), ``"bds"`` takes structural
        BDD cuts with the XOR cut on (Table 3)).
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
        What ``time_limit`` spans in
        :func:`repro.pipeline.parallel.run_batch_parallel`.  ``"run"``
        (the default) gives every input's session its own clock, so a
        batch of N inputs may spend up to N x ``time_limit``.
        ``"batch"`` makes the parent arm a *single* sweep-wide
        :class:`~repro.pipeline.limits.Deadline` that every input's
        session adopts, so the whole sweep — for any ``jobs`` — finishes
        within one ``time_limit`` of wall clock.
    jobs:
        Worker processes for batch execution
        (:func:`repro.pipeline.parallel.run_batch_parallel`).  ``1``
        (default) runs the inputs one after another in-process; ``0``
        means auto-detect (``os.cpu_count()``).  Values above 1 spread
        the inputs across that many processes.  Either way each input
        gets its own session and BDD manager.
    max_nodes:
        Budget of live BDD nodes in the session manager, or None.
        Exceeding it raises
        :class:`~repro.pipeline.NodeLimitExceeded`.
    model:
        BLIF ``.model`` name used by the emit stage.
    cache_path:
        Path of a component-cache store file
        (:mod:`repro.decomp.cache_store`), or None.  When set, a run
        reads the file once before its sessions start, seeds every
        session's Theorem 6 component cache from it, and after the run
        merges each input's live components back into it with one
        write (the CLI flag is ``--cache-dir``).
    cache_readonly:
        Load the store but never write it back (warm-start runs that
        must not perturb the cache on disk).  Requires ``cache_path``.
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
                 model="bidecomp", cache_path=None,
                 cache_readonly=False,
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
            time_limit = budget_seconds(time_limit, "time_limit")
        if max_nodes is not None:
            max_nodes = _count(max_nodes, "max_nodes")
            if max_nodes <= 0:
                raise ValueError("max_nodes must be positive, got %r"
                                 % max_nodes)
        self.decomposition = decomposition
        self.flow = flow
        self.verify = bool(verify)
        self.check_contracts = bool(check_contracts)
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.model = model
        if cache_path is not None and not isinstance(cache_path, str):
            raise ValueError("cache_path must be a path string or None, "
                             "got %r" % (cache_path,))
        self.cache_path = cache_path
        cache_readonly = bool(cache_readonly)
        if cache_readonly and cache_path is None:
            raise ValueError("cache_readonly needs a cache_path to read "
                             "the store from")
        self.cache_readonly = cache_readonly
        sweep_store = bool(sweep_store)
        if sweep_store and cache_path is None:
            raise ValueError("sweep_store needs a cache_path to point "
                             "the shared sweep store at")
        self.sweep_store = sweep_store
        if budget_scope not in BUDGET_SCOPES:
            raise ValueError("budget_scope must be one of %s, got %r"
                             % ("/".join(BUDGET_SCOPES), budget_scope))
        self.budget_scope = budget_scope
        self.jobs = _jobs(jobs)
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
        """Dict view (for ``--stats-json`` dumps): the run-level knobs,
        plus the engine switches under ``decomposition``, so a report
        says which ablation produced it."""
        return {
            "decomposition": self.decomposition.as_dict(),
            "flow": self.flow,
            "verify": self.verify,
            "check_contracts": self.check_contracts,
            "time_limit": self.time_limit,
            "max_nodes": self.max_nodes,
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
