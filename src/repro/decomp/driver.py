"""Multi-output decomposition driver (the program BI-DECOMP).

Wraps the single-output engine with what the paper's outer program
does: one shared netlist, one shared component cache across all outputs
("the decomposed blocks are shared between outputs and internal
subfunctions"), timing, and verification hooks.

The real work lives in :meth:`repro.pipeline.Session.decompose_specs`;
:func:`bi_decompose` validates the specification and runs it inside a
fresh session, so every decomposition — hand-called or pipelined —
flows through the same instrumented context (events, recursion guard,
resource budgets).
"""

import copy

from repro.boolfn.isf import ISF
from repro.network.stats import compute_stats
from repro.network.verify import verify_against_isfs


class DecompositionResult:
    """Outcome of decomposing a multi-output specification.

    Attributes
    ----------
    netlist:
        The synthesised two-input-gate network.
    functions:
        ``{output_name: Function}`` — the completely specified function
        implemented for each output (compatible with its ISF).
    stats:
        :class:`DecompositionStats` counters for this call.
    cache_stats:
        Component-cache counters (Theorem 6 reuse).
    elapsed:
        Wall-clock seconds spent decomposing.
    """

    def __init__(self, netlist, functions, stats, cache_stats, elapsed,
                 provenance=None):
        self.netlist = netlist
        self.functions = functions
        self.stats = stats
        self.cache_stats = cache_stats
        self.elapsed = elapsed
        #: Per-node ISF provenance recorded by the engine; feeds the
        #: decomposition-integrated ATPG.
        self.provenance = provenance or {}

    def netlist_stats(self):
        """Cost metrics of the produced netlist (Table 2 columns)."""
        return compute_stats(self.netlist)

    def __repr__(self):
        return ("DecompositionResult(outputs=%d, %r, elapsed=%.3fs)"
                % (len(self.functions), self.netlist_stats(), self.elapsed))


def validate_specs(specs):
    """Normalise and validate a multi-output specification dict.

    Returns ``(mgr, {name: ISF})``.  Raises :class:`ValueError` naming
    the offending outputs on an empty dict or mixed-manager specs.
    """
    specs = {name: _as_isf(spec) for name, spec in specs.items()}
    if not specs:
        raise ValueError(
            "bi_decompose: empty specification dict — pass at least one "
            "output name mapped to an ISF or Function")
    by_manager = []
    for name, isf in specs.items():
        for mgr, names in by_manager:
            if mgr is isf.mgr:
                names.append(name)
                break
        else:
            by_manager.append((isf.mgr, [name]))
    if len(by_manager) != 1:
        groups = "; ".join(
            "[%s]" % ", ".join(names) for _mgr, names in by_manager)
        raise ValueError(
            "bi_decompose: all specifications must share one BDD manager, "
            "but the outputs split across %d managers: %s"
            % (len(by_manager), groups))
    (mgr, _names), = by_manager
    return mgr, specs


def bi_decompose(specs, config=None, verify=False, check=False):
    """Decompose a multi-output specification into one netlist.

    Parameters
    ----------
    specs:
        Mapping from output name to :class:`~repro.boolfn.ISF` (or to a
        :class:`~repro.bdd.Function`, treated as completely specified).
        All specifications must share one BDD manager.
    config:
        Optional :class:`DecompositionConfig`.
    verify:
        When True, run the BDD-based verifier on the result before
        returning (raises on any violation).
    check:
        When True, run under the
        theorem-contract sanitizer: every Theorem 1/2/3/4/6 certificate
        is re-verified at each recursion step, raising
        :class:`repro.analysis.ContractViolation` on the first break.

    Returns a :class:`DecompositionResult`.
    """
    # Imported here: repro.pipeline depends on repro.decomp.
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.session import Session
    mgr, specs = validate_specs(specs)
    pipeline_config = PipelineConfig.coerce(config)
    if check:
        # On a copy: the caller's config must not run checked later.
        pipeline_config = copy.copy(pipeline_config)
        pipeline_config.check_contracts = True
    result = Session(config=pipeline_config, mgr=mgr).decompose_specs(specs)
    if verify:
        verify_against_isfs(result.netlist, specs)
    return result


def bi_decompose_function(fn, name="f", config=None, verify=False,
                          check=False):
    """Convenience wrapper: decompose a single completely specified
    function (or ISF)."""
    return bi_decompose({name: fn}, config=config, verify=verify,
                        check=check)


def _as_isf(spec):
    if isinstance(spec, ISF):
        return spec
    return ISF.from_csf(spec)
