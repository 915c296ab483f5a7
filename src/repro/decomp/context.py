"""Shared decomposability-check context for variable grouping.

Variable grouping (Section 5, Figs. 5-6) is the algorithm's inner
loop: every pair seed and every greedy-growth probe runs a Theorem 1/2
check, and the full Fig. 4 propagation of the *winning* grouping is
re-run once more when the engine derives the component intervals.
Every check in :mod:`repro.decomp` runs through a :class:`CheckContext`
(a public entry point called without one builds a fresh one), which
holds the probes' counters and the two EXOR verdict memos.

The checks' projections go straight to :func:`repro.bdd.exists` /
:func:`repro.bdd.forall`.  The kernel's exists memo answers a repeated
``exists(V, f)`` at the root in one step, so the per-variable families
``exists(x, R)`` / ``exists(x, Q)`` that Fig. 5's O(n^2) pair scan keeps
re-using are each walked once — lazily (an early exit never pays for
variables it did not probe) — and the universal dual shares that memo
through complement edges (DESIGN.md section 9).

The checks are pure functions of ``(Q, R, XA, XB)`` packed edges and
variable sets, so their outcomes memoise exactly where a probe
repeats: the Theorem 2 singleton verdicts (``exor1``), which
:func:`repro.decomp.exor.exor_decomposable`'s pairwise filter keeps
re-testing during the growth (Fig. 5's scan probes each pair once),
and — the big one on EXOR-heavy benchmarks — the entire Fig. 4
propagation result (``exor``), which the greedy growth loop probes and
:meth:`DecompositionEngine._find_strong_step` then re-runs verbatim on
the chosen grouping.  Theorem 1 verdicts are not memoised: with the
default config no OR or AND probe ever repeats.  A variable set's key
is its :func:`repro.bdd.quantify.levels_token`, the interned level
tuple the quantifier itself uses.

Every memoised value is an exact canonical BDD edge or a boolean
derived from them (unique-table canonicity), so the memos cannot change
any decomposition decision.  The ``--check`` contracts therefore never
read them: they re-prove each step through
:func:`repro.analysis.certify.theorem_residue` and
:func:`repro.decomp.exor.propagate_exor`.  The memos live on the
manager as ``_cache_ctx_exor1`` / ``_cache_ctx_exor`` dicts, which
:meth:`repro.bdd.manager.BDD.clear_caches` drops wholesale on reorder
or GC exactly like the kernel's own computed tables — a memoised edge
is only ever replayed while it is still canonical.  The context
instance itself only carries the counters ``check_calls`` and
``cache_hits`` (verdict-memo hits); the engine folds them into
:class:`repro.decomp.bidecomp.DecompositionStats` per recursion step.

On a manager that runs the C inner loops,
:func:`repro.decomp.grouping.group_variables` runs its checks in one C
kernel call that reads and fills these same dicts (:meth:`memo`) in the
same order and adds its probes to the same two counters.
"""

from repro.bdd.quantify import levels_token
from repro.bdd.types import Edge


class CheckContext:
    """Check counters and EXOR verdict memos shared across probes.

    Parameters
    ----------
    mgr:
        The BDD manager all probed ISFs live on.

    The verdict memos are manager-hosted (``mgr._cache_ctx_*``) and
    therefore shared between context instances on the same manager and
    invalidated by ``clear_caches()``; the counters are per-instance,
    which is how the engine reports per-recursion-step numbers.
    """

    __slots__ = ("mgr", "check_calls", "cache_hits")

    def __init__(self, mgr):
        self.mgr = mgr
        #: Decomposability checks routed through this context.
        self.check_calls = 0
        #: Probes answered from a verdict memo.
        self.cache_hits = 0

    def memo(self, kind):
        """The manager-hosted verdict memo ``_cache_ctx_<kind>`` of a
        check kind (``exor1`` for Theorem 2, ``exor`` for Fig. 4),
        created on first use."""
        name = "_cache_ctx_" + kind
        cache = getattr(self.mgr, name, None)
        if cache is None:
            cache = {}
            setattr(self.mgr, name, cache)
        return cache

    def check_memo(self, kind, q: Edge, r: Edge, xa, xb):
        """Cache slot for a check verdict on ``(Q, R, XA, XB)``.

        Returns ``(cached_value, store)`` where *cached_value* is the
        previously memoised result (``None`` when absent — checks never
        legitimately memoise ``None``, failures are stored as
        ``False``) and *store* is a callable that records a fresh
        verdict and returns it.
        """
        mgr = self.mgr
        key = (q, r, levels_token(mgr, xa), levels_token(mgr, xb))
        cache = self.memo(kind)
        value = cache.get(key)
        if value is not None:
            self.cache_hits += 1
            return value, None

        def store(result):
            cache[key] = result
            return result

        return None, store
