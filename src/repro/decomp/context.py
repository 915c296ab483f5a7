"""Shared decomposability-check context for variable grouping.

Variable grouping (Section 5, Figs. 5-6) is the algorithm's inner
loop: every pair seed and every greedy-growth probe runs a Theorem 1/2
check, and the full Fig. 4 propagation of the *winning* grouping is
re-run once more when the engine derives the component intervals.
Every check in :mod:`repro.decomp` runs through a :class:`CheckContext`
(a public entry point called without one builds a fresh one), which
makes the probes share work at two levels:

1. **Quantification cache.**  ``exists(V, node)`` results are memoised
   keyed on ``(packed edge, frozenset of variable indices)``, so the
   per-variable families ``exists(x, R)`` / ``exists(x, Q)`` that
   Fig. 5's O(n^2) pair scan keeps re-using are each computed once —
   the whole scan issues O(n) kernel quantifications, lazily (an early
   exit never pays for variables it did not probe).  The universal
   dual shares the same cache through complement edges.

2. **Check-result caches.**  The checks themselves are pure functions
   of ``(Q, R, XA, XB)`` packed edges and variable sets, so their
   outcomes memoise exactly where a probe repeats: the Theorem 2
   singleton verdicts, which :func:`repro.decomp.exor.exor_decomposable`'s
   pairwise filter keeps re-testing during the growth (Fig. 5's scan
   probes each pair once), and — the big one on EXOR-heavy
   benchmarks — the entire Fig. 4 propagation result, which the
   greedy growth loop probes and
   :meth:`DecompositionEngine._find_strong_step` then re-runs verbatim
   on the chosen grouping.  Theorem 1 verdicts are not memoised: with
   the default config no OR or AND probe ever repeats (DESIGN.md
   section 9).

All cached values are exact canonical BDD edges or booleans derived
from them (quantifier commutativity plus unique-table canonicity), so
the caches cannot change any decomposition decision.  The ``--check``
contracts therefore never read them: they re-prove each step through
:func:`repro.analysis.certify.theorem_residue` and
:func:`repro.decomp.exor.propagate_exor`, the Python loop of the
propagation that the check runs as one C kernel call where the kernel
is compiled.  Its projections use the kernel's exists memo; only its
final step goes through :meth:`CheckContext.exists`.  The caches live
on the manager as ``_cache_ctx_*`` dicts, which
:meth:`repro.bdd.manager.BDD.clear_caches` drops wholesale on reorder
or GC exactly like the kernel's own computed tables — a cached edge is
only ever replayed while it is still canonical.  The context instance
itself only carries counters (``check_calls``, ``cache_hits``,
``exists_calls``); the engine folds the first two into
:class:`repro.decomp.bidecomp.DecompositionStats` per recursion step so
the win is measurable by deterministic operation counts.

The AND dual needs no special handling: ``and_decomposable`` checks the
complemented ISF, whose on/off nodes are the same edges with roles
swapped, so OR and AND probes share quantification entries
automatically.

On a manager that runs the C inner loops,
:func:`repro.decomp.grouping.group_variables` runs its checks in one C
kernel call that reads and fills these same dicts (:meth:`memo`) in the
same order and adds its probes to the same three counters.
"""

from repro.bdd import exists as _exists
from repro.bdd.types import Edge


class CheckContext:
    """Memoised quantification + check results shared across probes.

    Parameters
    ----------
    mgr:
        The BDD manager all probed ISFs live on.

    The result caches are manager-hosted (``mgr._cache_ctx_*``) and
    therefore shared between context instances on the same manager and
    invalidated by ``clear_caches()``; the counters are per-instance,
    which is how the engine reports per-recursion-step numbers.
    """

    __slots__ = ("mgr", "check_calls", "cache_hits", "exists_calls")

    def __init__(self, mgr):
        self.mgr = mgr
        #: Decomposability checks routed through this context.
        self.check_calls = 0
        #: Probes answered from any of the context caches.
        self.cache_hits = 0
        #: Kernel exists() walks actually issued (cache misses).
        self.exists_calls = 0

    # -- plumbing -------------------------------------------------------
    def _dict(self, name):
        cache = getattr(self.mgr, name, None)
        if cache is None:
            cache = {}
            setattr(self.mgr, name, cache)
        return cache

    def memo(self, kind):
        """The manager-hosted cache ``_cache_ctx_<kind>``: ``varset``
        (normalised variable sets), ``exists`` (quantifications) or the
        verdict memo of a check kind (``exor1`` for Theorem 2, ``exor``
        for Fig. 4), created on first use."""
        return self._dict("_cache_ctx_" + kind)

    def _varset(self, variables):
        """Frozenset of the variable indices in *variables*.

        Memoised per distinct argument tuple, as
        :func:`repro.bdd.quantify._levels_token` is: every probe
        normalises the same few variable sets.
        """
        key = tuple(variables)
        cache = self.memo("varset")
        varset = cache.get(key)
        if varset is None:
            mgr = self.mgr
            varset = frozenset(mgr.var_index(v) for v in key)
            cache[key] = varset
        return varset

    # -- quantification -------------------------------------------------
    def exists(self, node: Edge, variables) -> Edge:
        """Cached ``exists(variables, node)``."""
        vs = self._varset(variables)
        if not vs:
            return node
        cache = self.memo("exists")
        key = (node, vs)
        result = cache.get(key)
        if result is not None:
            self.cache_hits += 1
            return result
        self.exists_calls += 1
        result = _exists(self.mgr, sorted(vs), node)
        cache[key] = result
        return result

    def forall(self, node: Edge, variables) -> Edge:
        """Cached universal dual: ``forall(V, f) = ~exists(V, ~f)``."""
        mgr = self.mgr
        return mgr.not_(self.exists(mgr.not_(node), variables))

    # -- check-result memo ----------------------------------------------
    def check_memo(self, kind, q: Edge, r: Edge, xa, xb):
        """Cache slot for a check verdict on ``(Q, R, XA, XB)``.

        Returns ``(cached_value, store)`` where *cached_value* is the
        previously memoised result (``None`` when absent — checks never
        legitimately memoise ``None``, failures are stored as
        ``False``) and *store* is a callable that records a fresh
        verdict and returns it.
        """
        key = (q, r, self._varset(xa), self._varset(xb))
        cache = self.memo(kind)
        value = cache.get(key)
        if value is not None:
            self.cache_hits += 1
            return value, None

        def store(result):
            cache[key] = result
            return result

        return None, store
