"""Theorem-contract checker: a sanitizer for the decomposition engine.

The BDD verifier (`repro.network.verify`) only certifies the *final*
netlist; nothing in the seed checked the paper's intermediate
certificates.  This module does, in an opt-in checked mode (CLI
``--check``, ``PipelineConfig(check_contracts=True)``):

* **same-manager** — every ISF entering ``decompose`` lives on the
  engine's manager (no cross-manager BDD ops);
* **disjoint-sets** — the chosen XA/XB are disjoint, non-empty and
  inside the support (XC is the remainder by construction);
* **or-residue / and-residue / exor-check** — the decomposability
  certificate of the chosen step re-verified from first principles
  (Theorem 1, its AND dual, Theorem 2 / Fig. 4);
* **weak-usefulness** — a weak step strictly enlarged component A's
  don't-care set (Table 1's termination argument);
* **component-a-support / component-b-support** — the derived
  component intervals do not depend on the partner's variable set
  (Theorems 3/4: XB is quantified out of A, XA out of B);
* **result-interval** — every synthesised CSF lies inside the interval
  ``(Q, ~R)`` it was derived for (Theorems 3/4 recombination);
* **cache-compatible / cache-node-function** — a Theorem 6 cache hit
  is genuinely interval-compatible *and* the stored netlist node
  really implements the stored CSF (catches cache corruption; applies
  equally to hits rehydrated from a persistent store, see
  :mod:`repro.decomp.cache_store`).

The four theorem contracts re-prove through the offline certifier's
closed forms (:func:`repro.analysis.certify.theorem_residue`) and, for
EXOR, the bare Fig. 4 propagation — never through the engine's own
checks, so a fault in those cannot vouch for itself.

Violations raise :class:`ContractViolation` (a
:class:`~repro.decomp.DecompositionError`) and are reported through the
``on_violation`` callback first, which the pipeline session uses to
publish ``contract_violated`` events on its bus.
"""

from repro.analysis.certify import theorem_residue
from repro.decomp.bidecomp import DecompositionEngine, DecompositionError
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import propagate_exor


class ContractViolation(DecompositionError):
    """An internal certificate of the decomposition failed to re-verify.

    Attributes
    ----------
    contract:
        The contract name (one of :data:`CONTRACTS`).
    detail:
        Optional JSON-able payload describing the violation.
    """

    def __init__(self, contract, message, detail=None):
        super().__init__("[%s] %s" % (contract, message))
        self.contract = contract
        self.detail = detail


#: All contract names, in the order they can fire during one step.
CONTRACTS = (
    "same-manager",
    "disjoint-sets",
    "or-residue",
    "and-residue",
    "exor-check",
    "weak-usefulness",
    "component-a-support",
    "component-b-support",
    "result-interval",
    "cache-compatible",
    "cache-node-function",
)


class ContractStats:
    """Counters: how many times each contract was checked / violated."""

    def __init__(self):
        self.checks = {name: 0 for name in CONTRACTS}
        self.violations = {name: 0 for name in CONTRACTS}

    def checked(self, contract):
        self.checks[contract] += 1

    def violated(self, contract):
        self.violations[contract] += 1

    def total_checks(self):
        """Total number of contract evaluations."""
        return sum(self.checks.values())

    def total_violations(self):
        """Total number of violations recorded."""
        return sum(self.violations.values())

    def as_dict(self):
        """Flat JSON-able view (zero-count contracts omitted)."""
        return {
            "checks": {k: v for k, v in self.checks.items() if v},
            "violations": {k: v for k, v in self.violations.items() if v},
            "total_checks": self.total_checks(),
            "total_violations": self.total_violations(),
        }

    def __repr__(self):
        return "ContractStats(checks=%d, violations=%d)" % (
            self.total_checks(), self.total_violations())


class CheckedDecompositionEngine(DecompositionEngine):
    """Drop-in engine that asserts the paper's certificates while it
    runs.

    Parameters are those of :class:`DecompositionEngine` plus
    ``on_violation(contract, message, detail)``, called right before a
    :class:`ContractViolation` is raised (the session publishes the
    event there).
    """

    def __init__(self, mgr, netlist, var_nodes, config=None, cache=None,
                 observer=None, on_violation=None):
        super().__init__(mgr, netlist, var_nodes, config=config,
                         cache=cache, observer=observer)
        self.contract_stats = ContractStats()
        self.on_violation = on_violation
        # Sanitize Theorem 6 reuse through the cache's hit seam.
        self.cache.on_hit = self._validate_cache_hit

    # -- violation plumbing ---------------------------------------------
    def _contract(self, contract, holds, message, detail=None):
        """Record one check; raise on failure."""
        self.contract_stats.checked(contract)
        if holds:
            return
        self.contract_stats.violated(contract)
        if self.on_violation is not None:
            self.on_violation(contract, message, detail)
        raise ContractViolation(contract, message, detail=detail)

    @staticmethod
    def _holds(isf, theorem, xa, xb=None):
        """Re-prove *theorem* on *isf* through the certifier's formula."""
        return theorem_residue(isf.mgr, theorem, isf.on.node,
                               isf.off.node, xa, xb)[1]

    def _exor_holds(self, isf, xa, xb):
        """Per-pair Theorem 2 on a genuine interval, then the Fig. 4
        propagation itself (no filter)."""
        if not isf.is_completely_specified():
            for a in xa:
                for b in xb:
                    if not self._holds(isf, "thm2-exor", [a], [b]):
                        return False
        return propagate_exor(isf, xa, xb) is not None

    # -- engine hooks -----------------------------------------------------
    def _pre_decompose(self, isf):
        self._contract(
            "same-manager", isf.mgr is self.mgr,
            "ISF entered the engine on a foreign BDD manager "
            "(cross-manager BDD operations are undefined)")

    def _on_step(self, isf, support, gate, xa, xb, isf_a):
        xa_set, support_set = set(xa), set(support)
        if xb is None:  # weak step
            self._contract(
                "disjoint-sets",
                bool(xa_set) and xa_set <= support_set,
                "weak %s step chose XA=%s outside the support %s"
                % (gate, sorted(xa_set), sorted(support_set)))
            theorem = ("table1-weak-or" if gate == OR_GATE
                       else "table1-weak-and")
            self._contract(
                "weak-usefulness", self._holds(isf, theorem, xa),
                "weak %s step with XA=%s injects no don't-cares "
                "(Table 1 termination argument broken)"
                % (gate, sorted(xa_set)))
            return
        xb_set = set(xb)
        self._contract(
            "disjoint-sets",
            bool(xa_set) and bool(xb_set)
            and not (xa_set & xb_set)
            and (xa_set | xb_set) <= support_set,
            "%s step chose overlapping or out-of-support sets "
            "XA=%s XB=%s (support %s)"
            % (gate, sorted(xa_set), sorted(xb_set),
               sorted(support_set)))
        if gate == OR_GATE:
            self._contract(
                "or-residue", self._holds(isf, "thm1-or", xa, xb),
                "Theorem 1 residue Q & exists(XA,R) & exists(XB,R) "
                "is non-empty for XA=%s XB=%s"
                % (sorted(xa_set), sorted(xb_set)))
        elif gate == AND_GATE:
            self._contract(
                "and-residue", self._holds(isf, "thm1-and-dual", xa, xb),
                "AND-dual of Theorem 1 fails for XA=%s XB=%s"
                % (sorted(xa_set), sorted(xb_set)))
        elif gate == EXOR_GATE:
            self._contract(
                "exor-check", self._exor_holds(isf, xa, xb),
                "Fig. 4 EXOR check fails on re-run for XA=%s XB=%s"
                % (sorted(xa_set), sorted(xb_set)))
        self._contract(
            "component-a-support",
            not (set(isf_a.structural_support()) & xb_set),
            "component A's interval depends on XB=%s although "
            "Theorem 3 quantifies XB out" % sorted(xb_set))

    def _on_derived_b(self, isf, gate, xa, f_a, isf_b):
        self._contract(
            "component-b-support",
            not (set(isf_b.structural_support()) & set(xa)),
            "component B's interval depends on XA=%s although "
            "Theorem 4 quantifies XA out" % sorted(set(xa)))

    def _check(self, isf, csf, gate):
        self._contract(
            "result-interval", isf.is_compatible(csf),
            "synthesised %s component leaves its interval (Q, ~R)"
            % gate)

    # -- Theorem 6 cache sanitation ---------------------------------------
    def _validate_cache_hit(self, isf, csf, node, complemented):
        """Re-verify every cache hit before the engine reuses it.

        Installed as the cache's ``on_hit`` seam, so it covers in-run
        hits *and* rehydrated hits from a persistent store
        (:mod:`repro.decomp.cache_store`): a rehydrated component's
        cover is rebuilt from disk, its cone re-emitted, and both are
        re-checked here against Theorem 6 exactly like a live hit —
        a corrupt store entry trips ``cache-compatible`` or
        ``cache-node-function`` instead of reaching the netlist.
        """
        self._contract(
            "cache-compatible",
            csf.mgr is isf.mgr and isf.is_compatible(csf),
            "cache hit returned a CSF outside the queried interval "
            "(Theorem 6 containment tests violated)")
        from repro.network.extract import node_functions
        stored = (~csf) if complemented else csf
        bdds = node_functions(self.netlist, self.mgr,
                              restrict_to={node})
        self._contract(
            "cache-node-function", bdds[node] == stored.node,
            "cache hit reused netlist node %d, which does not "
            "implement the cached CSF%s"
            % (node, " (complemented hit)" if complemented else ""),
            detail={"node": node, "complemented": complemented})
