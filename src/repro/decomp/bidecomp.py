"""The recursive bi-decomposition engine (Section 7, Fig. 7).

:class:`DecompositionEngine` reproduces ``BiDecompose``:

1. remove inessential variables,
2. look the interval up in the component-reuse cache,
3. terminal case: support <= 2 emits one gate (``FindGate``),
4. try strong OR / AND / EXOR variable groupings and pick the best
   (most grouped variables, then best balance, then OR / AND / EXOR),
5. otherwise take the best weak OR/AND step (single XA variable
   maximising injected don't-cares),
6. as a guaranteed-progress fallback — the one deviation from the
   paper, which asserts a weak step always exists — a Shannon step
   ``F = (x & F1) | (~x & F0)``; counters show it virtually never
   fires,
7. recurse on component A, re-derive component B from the chosen
   completely specified f_A, recurse on B, emit the gate, cache the
   result.

The engine is deliberately single-output; the multi-output driver in
:mod:`repro.decomp.driver` shares one engine (hence one cache and one
netlist) across all outputs, which is how the paper shares decomposed
blocks between outputs.
"""

from repro.boolfn.isf import ISF
from repro.decomp import checks
from repro.decomp.cache import ComponentCache, NullCache
from repro.decomp.context import CheckContext
from repro.decomp.derive import (AND_GATE, EXOR_GATE, OR_GATE,
                                 derive_component_b,
                                 derive_or_component_a,
                                 derive_and_component_a,
                                 derive_weak_and_component_a,
                                 derive_weak_or_component_a)
from repro.decomp.exor import check_exor_bidecomp
from repro.decomp.grouping import (find_best_grouping, group_variables,
                                   improve_grouping)
from repro.decomp.inessential import remove_inessential
from repro.decomp.terminal import find_gate
from repro.decomp.weak import find_weak_grouping
from repro.network import gates as G


class DecompositionError(Exception):
    """Raised when an internal invariant of the decomposition breaks."""


class DecompositionConfig:
    """Feature switches for the engine (ablation benchmarks toggle these).

    Parameters mirror the paper's design choices:

    * ``use_or`` / ``use_and`` / ``use_exor`` — which strong gate types
      are attempted;
    * ``use_weak`` — allow weak OR/AND steps (off forces Shannon
      fallback, emulating a strong-only variant);
    * ``use_cache`` — component-reuse cache of Section 6;
    * ``exhaustive_grouping`` — Section 5's exclude-one/add-many
      grouping refinement (the paper measured <3 % area gain for 2x
      CPU; off by default, the ablation bench reproduces the claim);
    * ``weak_xa_size`` — how many variables the weak step's XA may
      hold (the paper settled on 1 after experimentation).

    The rest of Fig. 7 is fixed, as in the paper: inessential variables
    are always removed first, groupings are scored by coverage then
    balance (:func:`~repro.decomp.grouping.grouping_score`), and exact
    ties go to the cheaper gate (OR, then AND, then EXOR; see
    :meth:`enabled_gates`).

    Checking every synthesised component against its interval is the
    ``--check`` mode's job (``bi_decompose(..., check=True)``), not a
    config switch.
    """

    def __init__(self, use_or=True, use_and=True, use_exor=True,
                 use_weak=True, use_cache=True, exhaustive_grouping=False,
                 weak_xa_size=1):
        self.use_or = use_or
        self.use_and = use_and
        self.use_exor = use_exor
        self.use_weak = use_weak
        self.use_cache = use_cache
        self.exhaustive_grouping = exhaustive_grouping
        if weak_xa_size < 1:
            raise ValueError("weak_xa_size must be >= 1, got %r"
                             % (weak_xa_size,))
        self.weak_xa_size = weak_xa_size

    def enabled_gates(self):
        """Strong gate types to try, in Fig. 7's tie-break order: OR,
        then AND, then EXOR (cheaper gates first)."""
        return tuple(gate for gate, enabled in ((OR_GATE, self.use_or),
                                                (AND_GATE, self.use_and),
                                                (EXOR_GATE, self.use_exor))
                     if enabled)

    def as_dict(self):
        """The switches as a flat dict (the ``--stats-json`` report's
        ``config.decomposition`` block)."""
        return {
            "use_or": self.use_or,
            "use_and": self.use_and,
            "use_exor": self.use_exor,
            "use_weak": self.use_weak,
            "use_cache": self.use_cache,
            "exhaustive_grouping": self.exhaustive_grouping,
            "weak_xa_size": self.weak_xa_size,
        }


class DecompositionStats:
    """Counters the paper quotes in prose (Sections 6 and 7)."""

    def __init__(self):
        self.calls = 0
        self.cache_hits = 0
        self.terminal_gates = 0
        self.strong = {OR_GATE: 0, AND_GATE: 0, EXOR_GATE: 0}
        self.weak = {OR_GATE: 0, AND_GATE: 0}
        self.shannon = 0
        self.inessential_removed = 0
        # CheckContext counters, summed over every recursion step:
        # decomposability checks probed during grouping and
        # quantification probes answered from the context cache.
        self.grouping_check_calls = 0
        self.quantify_cache_hits = 0

    def strong_steps(self):
        """Total strong bi-decomposition steps."""
        return sum(self.strong.values())

    def weak_steps(self):
        """Total weak bi-decomposition steps."""
        return sum(self.weak.values())

    @classmethod
    def from_dict(cls, data):
        """Rebuild counters from an :meth:`as_dict` dump (or a delta of
        two dumps — how ``Session.decompose_specs`` reports per-call
        stats)."""
        stats = cls()
        stats.calls = data.get("calls", 0)
        stats.cache_hits = data.get("cache_hits", 0)
        stats.terminal_gates = data.get("terminal_gates", 0)
        stats.strong[OR_GATE] = data.get("strong_or", 0)
        stats.strong[AND_GATE] = data.get("strong_and", 0)
        stats.strong[EXOR_GATE] = data.get("strong_exor", 0)
        stats.weak[OR_GATE] = data.get("weak_or", 0)
        stats.weak[AND_GATE] = data.get("weak_and", 0)
        stats.shannon = data.get("shannon", 0)
        stats.inessential_removed = data.get("inessential_removed", 0)
        stats.grouping_check_calls = data.get("grouping_check_calls", 0)
        stats.quantify_cache_hits = data.get("quantify_cache_hits", 0)
        return stats

    def as_dict(self):
        """Counters as a flat dict for reporting."""
        return {
            "calls": self.calls,
            "cache_hits": self.cache_hits,
            "terminal_gates": self.terminal_gates,
            "strong_or": self.strong[OR_GATE],
            "strong_and": self.strong[AND_GATE],
            "strong_exor": self.strong[EXOR_GATE],
            "weak_or": self.weak[OR_GATE],
            "weak_and": self.weak[AND_GATE],
            "shannon": self.shannon,
            "inessential_removed": self.inessential_removed,
            "grouping_check_calls": self.grouping_check_calls,
            "quantify_cache_hits": self.quantify_cache_hits,
        }

    def __repr__(self):
        return "DecompositionStats(%s)" % self.as_dict()


_GATE_TO_NETLIST = {OR_GATE: G.OR, AND_GATE: G.AND, EXOR_GATE: G.XOR}


class DecompositionEngine:
    """Recursive bi-decomposition of ISFs into a shared netlist.

    Parameters
    ----------
    mgr:
        BDD manager carrying the specifications.
    netlist:
        Target :class:`repro.network.Netlist`; must already contain the
        primary inputs.
    var_nodes:
        Mapping from manager variable index to netlist input node.
    """

    def __init__(self, mgr, netlist, var_nodes, config=None, cache=None,
                 observer=None):
        self.mgr = mgr
        self.netlist = netlist
        self.var_nodes = dict(var_nodes)
        self.config = config or DecompositionConfig()
        if cache is None:
            cache = (ComponentCache() if self.config.use_cache
                     else NullCache())
        self.cache = cache
        self.stats = DecompositionStats()
        #: Optional progress sink ``observer(kind, stats)`` — the
        #: pipeline session subscribes here so the engine reports its
        #: steps through structured events instead of bare counters
        #: (kinds: call, cache_hit, terminal, strong, weak, shannon).
        self.observer = observer
        #: Per-netlist-node provenance: the ISF interval the node was
        #: synthesised for (first synthesis wins).  Consumed by the
        #: decomposition-integrated ATPG
        #: (:mod:`repro.testability.integrated`), reproducing the
        #: paper's claim that test generation can ride along with the
        #: decomposition at negligible cost.
        self.provenance = {}
        #: Optional :class:`repro.decomp.trace.CertificateTracer`.  When
        #: set (the session does this under
        #: ``PipelineConfig(emit_certificates=True)``), every recursion
        #: step records a proof-trace frame — theorem tag, gate,
        #: variable-group names and exact ISOP covers — that the
        #: offline certifier can replay without this engine.
        self.tracer = None

    # -- public entry ---------------------------------------------------
    def decompose(self, isf):
        """Decompose *isf*; returns ``(csf, netlist_node)``.

        The returned completely specified function is compatible with
        the interval and is implemented by *netlist_node*.
        """
        self.stats.calls += 1
        self._report("call")
        self._pre_decompose(isf)
        isf, removed = remove_inessential(isf)
        self.stats.inessential_removed += len(removed)
        support = isf.structural_support()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin()
        try:
            csf, node = self._decompose_step(isf, support)
        except BaseException:
            if tracer is not None:
                tracer.abort()
            raise
        if tracer is not None:
            tracer.end(isf, csf)
        self.provenance.setdefault(node, isf)
        return csf, node

    def _decompose_step(self, isf, support):
        """One step of the Fig. 7 recursion (cache / terminal / strong /
        weak / Shannon), inside the tracer frame :meth:`decompose` opens."""
        cached = self.cache.lookup(isf, support)
        if cached is not None:
            csf, node, complemented = cached
            self.stats.cache_hits += 1
            self._report("cache_hit")
            if self.tracer is not None:
                self.tracer.annotate_cache(complemented)
            if complemented:
                # The inverter's output (not the stored node) is what
                # satisfies the queried interval.
                node = self.netlist.add_not(node)
            return csf, node

        if len(support) <= 2:
            csf, node = find_gate(isf, support, self.netlist,
                                  self.var_nodes,
                                  allow_exor=self.config.use_exor)
            self.stats.terminal_gates += 1
            self._report("terminal")
            if self.tracer is not None:
                self.tracer.annotate_terminal()
            self.cache.insert(csf, node)
            return csf, node

        ctx = CheckContext(self.mgr)
        step = self._find_strong_step(isf, support, ctx)
        if step is None and self.config.use_weak:
            step = self._find_weak_step(isf, support, ctx)
        stats = self.stats
        stats.grouping_check_calls += ctx.check_calls
        stats.quantify_cache_hits += ctx.cache_hits
        if step is None:
            return self._shannon_step(isf, support)
        gate, xa, isf_a = step
        return self._emit(isf, gate, xa, isf_a)

    # -- step selection ---------------------------------------------------
    def _find_strong_step(self, isf, support, ctx):
        """Try all enabled strong gates; return (gate, xa, isf_a) or None."""
        candidates = {}
        for gate in self.config.enabled_gates():
            grouping = group_variables(isf, support, gate, ctx)
            if grouping is not None and self.config.exhaustive_grouping:
                grouping = improve_grouping(isf, support, gate,
                                            *grouping, ctx=ctx)
            candidates[gate] = grouping
        best = find_best_grouping(candidates)
        if best is None:
            return None
        gate, xa, xb = best
        self.stats.strong[gate] += 1
        self._report("strong")
        if self.tracer is not None:
            self.tracer.annotate_strong(gate, xa, xb, support)
        if gate == OR_GATE:
            isf_a = derive_or_component_a(isf, xa, xb)
        elif gate == AND_GATE:
            isf_a = derive_and_component_a(isf, xa, xb)
        else:
            intervals = check_exor_bidecomp(isf, xa, xb, ctx)
            if intervals is None:  # cannot happen if grouping succeeded
                raise DecompositionError("EXOR grouping vanished on rerun")
            isf_a = intervals[0]
        self._on_step(isf, support, gate, xa, xb, isf_a)
        return gate, xa, isf_a

    def _find_weak_step(self, isf, support, ctx):
        """Best weak OR/AND step, or None when nothing makes progress."""
        weak = find_weak_grouping(isf, support,
                                  max_vars=self.config.weak_xa_size,
                                  ctx=ctx)
        if weak is None:
            return None
        gate, xa = weak
        self.stats.weak[gate] += 1
        self._report("weak")
        if self.tracer is not None:
            self.tracer.annotate_weak(gate, xa, support)
        if gate == OR_GATE:
            isf_a = derive_weak_or_component_a(isf, xa)
        else:
            isf_a = derive_weak_and_component_a(isf, xa)
        self._on_step(isf, support, gate, xa, None, isf_a)
        return gate, xa, isf_a

    # -- emission -------------------------------------------------------
    def _emit(self, isf, gate, xa, isf_a):
        """Recurse on A, re-derive B from f_A, recurse on B, emit gate."""
        f_a, node_a = self.decompose(isf_a)
        isf_b = derive_component_b(isf, gate, f_a, xa)
        if isf_b is None:
            raise DecompositionError(
                "component B inconsistent after choosing f_A (gate %s)"
                % gate)
        self._on_derived_b(isf, gate, xa, f_a, isf_b)
        f_b, node_b = self.decompose(isf_b)
        node = self.netlist.add_gate(_GATE_TO_NETLIST[gate], node_a, node_b)
        if gate == OR_GATE:
            csf = f_a | f_b
        elif gate == AND_GATE:
            csf = f_a & f_b
        else:
            csf = f_a ^ f_b
        self._check(isf, csf, gate)
        self.cache.insert(csf, node)
        return csf, node

    def _shannon_step(self, isf, support):
        """Guaranteed-progress fallback: F = (x & F1) | (~x & F0)."""
        self.stats.shannon += 1
        self._report("shannon")
        var = support[0]
        if self.tracer is not None:
            self.tracer.annotate_shannon(var)
        f1, node1 = self.decompose(isf.cofactor(var, 1))
        f0, node0 = self.decompose(isf.cofactor(var, 0))
        literal = self.var_nodes[var]
        node = self.netlist.add_mux(literal, node1, node0)
        selector = self.mgr.fn(self.mgr.var(var))
        csf = selector.ite(f1, f0)
        self._check(isf, csf, "SHANNON")
        self.cache.insert(csf, node)
        return csf, node

    def _report(self, kind):
        if self.observer is not None:
            self.observer(kind, self.stats)

    # -- sanitizer hooks --------------------------------------------------
    # No-ops here; repro.analysis.CheckedDecompositionEngine overrides
    # them to assert the paper's certificates at each recursion step.
    def _pre_decompose(self, isf):
        """Called on every engine entry, before any BDD work."""

    def _on_step(self, isf, support, gate, xa, xb, isf_a):
        """Called once a strong (*xb* set) or weak (*xb* None) step is
        chosen and component A's interval is derived."""

    def _on_derived_b(self, isf, gate, xa, f_a, isf_b):
        """Called once component B's interval is derived from f_A."""

    def _check(self, isf, csf, gate):
        """Called with every recombined result *csf* of a *gate* step."""
