"""Weak bi-decomposition (Section 7's GroupVariablesWeak).

When no strong grouping exists, the algorithm performs a weak OR or
weak AND step: XB stays empty, component A keeps the full support but
gains don't-cares, and component B loses the XA variables.  Following
the paper's experimentation, XA is a *single* variable — the one that
injects the most don't-cares into component A (measured by how many
on-set/off-set minterms become free).  Under that criterion no larger
XA does better: quantifying more variables can only enlarge
``exists(XA, R)``, so component A keeps at least the care minterms it
keeps with any one variable of XA.
"""

from repro.bdd import exists, sat_count
from repro.decomp.derive import AND_GATE, OR_GATE


def find_weak_grouping(isf, support):
    """Choose the best weak step.

    Returns ``(gate, frozenset((x,)))`` where *gate* is OR or AND and
    the variable x maximises the number of care minterms converted to
    don't-cares, or ``None`` when no weak step makes progress (the
    caller then falls back to a Shannon step; the paper states one
    "always exists" for its benchmark population, and our counters
    confirm the fallback virtually never fires).  Exact gain ties go to
    the earlier variable of *support*, and OR before AND.
    """
    mgr = isf.mgr
    best = None
    best_gain = 0
    q, r = isf.on.node, isf.off.node
    for x in support:
        # Weak OR: Q_A = Q & exists(x, R); gain = |Q| - |Q_A|.
        r_no_x = exists(mgr, [x], r)
        q_a = mgr.and_(q, r_no_x)
        gain_or = sat_count(mgr, q) - sat_count(mgr, q_a)
        if gain_or > best_gain:
            best_gain = gain_or
            best = (OR_GATE, frozenset((x,)))
        # Weak AND (dual): R_A = R & exists(x, Q); gain = |R| - |R_A|.
        q_no_x = exists(mgr, [x], q)
        r_a = mgr.and_(r, q_no_x)
        gain_and = sat_count(mgr, r) - sat_count(mgr, r_a)
        if gain_and > best_gain:
            best_gain = gain_and
            best = (AND_GATE, frozenset((x,)))
    return best
