"""Component-reuse cache (Section 6, Theorem 6).

Every completely specified function synthesised during the
decomposition is recorded together with its netlist node, hashed by its
support.  Before decomposing an ISF, the engine scans the cached
functions with the matching support: if one (or its complement) lies in
the interval (Q, ~R) — Theorem 6's two containment tests — the existing
netlist node is reused and the entire recursive decomposition of that
component is skipped.

The paper reports up to ~20 % component reuse from this "lossless hash
table"; the ablation benchmark measures the same effect here.
"""

from repro.bdd.node import FALSE


def theorem6_match(mgr, q, r, f):
    """Theorem 6's two containment tests of the CSF *f* against the
    interval (Q, ~R), all edges of *mgr*.

    Returns False when *f* lies in the interval, True when its
    complement does, and None when neither is compatible.
    """
    # f compatible iff Q & ~f == 0 and R & f == 0 ...
    if mgr.diff(q, f) == FALSE and mgr.and_(r, f) == FALSE:
        return False
    # ... and ~f compatible iff R & ~f == 0 and Q & f == 0.
    if mgr.and_(q, f) == FALSE and mgr.diff(r, f) == FALSE:
        return True
    return None


class ComponentCache:
    """Support-hashed store of completely specified components.

    ``on_hit(isf, csf, node, complemented)`` is an optional sanitizer
    seam invoked with every hit before it is returned; the checked
    pipeline mode (``repro.analysis.contracts``) installs a Theorem 6
    re-verifier there.  The returned *csf* is the usable one (already
    complemented for complement hits).
    """

    def __init__(self, on_hit=None):
        self._by_support = {}
        self.lookups = 0
        self.hits = 0
        self.complement_hits = 0
        self.insertions = 0
        self.on_hit = on_hit

    def lookup(self, isf, support):
        """Search for a reusable component for *isf*.

        *support* is an iterable of variable indices (the essential
        support of the ISF, computed after inessential-variable
        removal).  Returns ``(csf, netlist_node, complemented)`` or
        ``None``.  When ``complemented`` is True the caller must invert
        *netlist_node*; *csf* is already the usable (inverted) function.
        """
        self.lookups += 1
        bucket = self._by_support.get(frozenset(support))
        if not bucket:
            return None
        mgr, q, r = isf.mgr, isf.on.node, isf.off.node
        for csf, node in bucket:
            complemented = theorem6_match(mgr, q, r, csf.node)
            if complemented is not None:
                return self._hit(isf, csf, node, complemented)
        return None

    def _hit(self, isf, csf, node, complemented):
        """Count a hit, run the ``on_hit`` seam, return the hit triple.

        *csf* is the stored function; a complement hit returns ``~csf``.
        """
        self.hits += 1
        if complemented:
            self.complement_hits += 1
            csf = ~csf
        if self.on_hit is not None:
            self.on_hit(isf, csf, node, complemented)
        return csf, node, complemented

    def insert(self, csf, node):
        """Record a synthesised CSF and its netlist node."""
        support = frozenset(csf.support())
        bucket = self._by_support.setdefault(support, [])
        bucket.append((csf, node))
        self.insertions += 1

    def size(self):
        """Number of cached components."""
        return sum(len(bucket) for bucket in self._by_support.values())

    def entries(self):
        """Iterate ``(csf, node)`` over every cached component.

        Deterministic (insertion order per support bucket); used by the
        persistence layer (``repro.decomp.cache_store``) to serialise
        the session's live components for the store.
        """
        for bucket in self._by_support.values():
            for csf, node in bucket:
                yield csf, node

    def stats(self):
        """Counters as a dict (used by the ablation benchmarks)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "complement_hits": self.complement_hits,
            "insertions": self.insertions,
            "size": self.size(),
        }


class NullCache(ComponentCache):
    """Cache stand-in that never hits (for the cache-off ablation)."""

    def lookup(self, isf, support):
        self.lookups += 1
        return None

    def insert(self, csf, node):
        pass
