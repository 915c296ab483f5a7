"""Weak bi-decomposition (Section 7's GroupVariablesWeak).

When no strong grouping exists, the algorithm performs a weak OR or
weak AND step: XB stays empty, component A keeps the full support but
gains don't-cares, and component B loses the XA variables.  Following
the paper's experimentation, XA is a *single* variable — the one that
injects the most don't-cares into component A (measured by how many
on-set/off-set minterms become free).
"""

from repro.bdd import sat_count
from repro.decomp.context import CheckContext
from repro.decomp.derive import AND_GATE, OR_GATE


def find_weak_grouping(isf, support, max_vars=1, ctx=None):
    """Choose the best weak step.

    Returns ``(gate, frozenset(XA))`` where *gate* is OR or AND and XA
    maximises the number of care minterms converted to don't-cares, or
    ``None`` when no weak step makes progress (the caller then falls
    back to a Shannon step; the paper states one "always exists" for
    its benchmark population, and our counters confirm the fallback
    virtually never fires).

    ``max_vars`` controls the size of XA.  The paper experimented and
    settled on a *single* variable ("the best results are achieved when
    X_A includes only one variable" — it keeps the netlist balanced);
    larger values grow XA greedily by don't-care gain and exist for the
    ablation benchmark that reproduces that finding.
    """
    ctx = ctx or CheckContext(isf.mgr)
    best = _best_single(isf, support, ctx)
    if best is None or max_vars <= 1:
        return best
    gate, xa = best
    return gate, _grow_weak_set(isf, support, gate, set(xa), max_vars, ctx)


def _best_single(isf, support, ctx):
    mgr = isf.mgr
    best = None
    best_gain = 0
    q, r = isf.on.node, isf.off.node
    for x in support:
        # Weak OR: Q_A = Q & exists(x, R); gain = |Q| - |Q_A|.
        r_no_x = ctx.exists(r, [x])
        q_a = mgr.and_(q, r_no_x)
        gain_or = sat_count(mgr, q) - sat_count(mgr, q_a)
        if gain_or > best_gain:
            best_gain = gain_or
            best = (OR_GATE, frozenset((x,)))
        # Weak AND (dual): R_A = R & exists(x, Q); gain = |R| - |R_A|.
        q_no_x = ctx.exists(q, [x])
        r_a = mgr.and_(r, q_no_x)
        gain_and = sat_count(mgr, r) - sat_count(mgr, r_a)
        if gain_and > best_gain:
            best_gain = gain_and
            best = (AND_GATE, frozenset((x,)))
    return best


def _grow_weak_set(isf, support, gate, xa, max_vars, ctx):
    """Greedily extend XA while the injected don't-care count rises.

    The context caches every ``exists(XA | {z}, other)`` probe, so a
    candidate set revisited in a later round costs nothing.
    """
    mgr = isf.mgr
    if gate == OR_GATE:
        target, other = isf.on.node, isf.off.node
    else:
        target, other = isf.off.node, isf.on.node
    current = sat_count(mgr, mgr.and_(target, ctx.exists(other, xa)))
    while len(xa) < max_vars:
        best_var = None
        best_count = current
        for z in support:
            if z in xa:
                continue
            count = sat_count(mgr, mgr.and_(
                target, ctx.exists(other, xa | {z})))
            if count < best_count:
                best_count = count
                best_var = z
        if best_var is None:
            break
        xa.add(best_var)
        current = best_count
    return frozenset(xa)
