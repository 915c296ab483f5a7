"""Variable grouping (Section 5, Figs. 5 and 6).

Finds the variable sets (XA, XB) that make a given gate type's strong
bi-decomposition feasible:

1. :func:`find_initial_grouping` seeds XA and XB with one variable each
   (Fig. 5) by scanning variable pairs;
2. :func:`group_variables` greedily adds the remaining support
   variables, always trying the smaller set first so the final sets are
   as balanced as possible (Fig. 6) — the paper's lever for producing
   short-delay netlists;
3. :func:`find_best_grouping` scores the OR / AND / EXOR candidates:
   more variables in ``XA | XB`` is better, balance breaks ties, and
   gate preference order breaks exact ties (Fig. 7's
   FindBestVariableGrouping).
"""

from repro.decomp import checks
from repro.decomp.context import CheckContext
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import exor_decomposable


def _set_checker(isf, gate, ctx):
    """Decomposability predicate over (xa, xb) variable *sets*."""
    if gate == OR_GATE:
        return lambda xa, xb: checks.or_decomposable(isf, xa, xb, ctx)
    if gate == AND_GATE:
        return lambda xa, xb: checks.and_decomposable(isf, xa, xb, ctx)
    if gate == EXOR_GATE:
        return lambda xa, xb: exor_decomposable(isf, xa, xb, ctx)
    raise ValueError("unknown gate %r" % gate)


def _pair_checker(isf, gate, ctx):
    """Decomposability predicate over single-variable pairs.

    For EXOR the cheap derivative test of Theorem 2 replaces the full
    Fig. 4 propagation.
    """
    if gate == EXOR_GATE:
        return lambda x, y: checks.exor_decomposable_single(isf, x, y, ctx)
    set_check = _set_checker(isf, gate, ctx)
    return lambda x, y: set_check([x], [y])


def find_initial_grouping(isf, support, gate, ctx=None):
    """Fig. 5: find singleton sets (XA, XB) enabling a strong step.

    Returns ``(frozenset, frozenset)`` or ``None`` when the function is
    not strongly bi-decomposable with this gate under any pair.

    The :class:`~repro.decomp.context.CheckContext` (a fresh one when
    omitted) caches the per-variable quantification family across
    probes, so the O(n^2) pair scan issues only O(n) kernel
    quantifications — lazily, which keeps an early exit from paying for
    variables it never probed.
    """
    ctx = ctx or CheckContext(isf.mgr)
    check = _pair_checker(isf, gate, ctx)
    symmetric = gate in (OR_GATE, AND_GATE)
    if not isinstance(support, (tuple, list)):
        support = tuple(support)
    for i, x in enumerate(support):
        start = i + 1 if symmetric else 0
        for y in support[start:]:
            if y == x:
                continue
            if check(x, y):
                return frozenset((x,)), frozenset((y,))
    return None


def group_variables(isf, support, gate, ctx=None):
    """Fig. 6: greedily grow the initial grouping over the support.

    Returns ``(xa, xb)`` frozensets or ``None``.  Each remaining
    variable is offered to the currently smaller set first, keeping the
    sets balanced; a variable that fits neither set is dropped into the
    common set XC (implicitly, by not being added).
    """
    ctx = ctx or CheckContext(isf.mgr)
    initial = find_initial_grouping(isf, support, gate, ctx)
    if initial is None:
        return None
    xa, xb = (set(initial[0]), set(initial[1]))
    check = _set_checker(isf, gate, ctx)
    for z in support:
        if z in xa or z in xb:
            continue
        if len(xa) <= len(xb):
            first, second = xa, xb
        else:
            first, second = xb, xa
        if check(first | {z}, second):
            first.add(z)
        elif check(first, second | {z}):
            second.add(z)
    return frozenset(xa), frozenset(xb)


def improve_grouping(isf, support, gate, xa, xb, ctx=None):
    """Section 5's experimental refinement: exclude-one, add-many.

    The paper reports trying "excluding one variable at a time while
    trying to add others, and accepting the change only if excluding
    one variable led to the addition of two or more"; it improved area
    by under 3 % at twice the CPU time.  This is that refinement,
    available behind ``DecompositionConfig(exhaustive_grouping=True)``
    so the ablation benchmark can reproduce the trade-off.
    """
    ctx = ctx or CheckContext(isf.mgr)
    check = _set_checker(isf, gate, ctx)
    xa, xb = set(xa), set(xb)
    improved = True
    while improved:
        improved = False
        for victim in sorted(xa | xb):
            cand_a = set(xa) - {victim}
            cand_b = set(xb) - {victim}
            if not cand_a or not cand_b:
                continue  # both sets must stay non-empty (strong step)
            for z in support:
                if z == victim or z in cand_a or z in cand_b:
                    continue
                if len(cand_a) <= len(cand_b):
                    first, second = cand_a, cand_b
                else:
                    first, second = cand_b, cand_a
                if check(first | {z}, second):
                    first.add(z)
                elif check(first, second | {z}):
                    second.add(z)
            # Accept only a net gain: one exclusion bought >= two adds.
            if len(cand_a) + len(cand_b) >= len(xa) + len(xb) + 1:
                xa, xb = cand_a, cand_b
                improved = True
                break
    return frozenset(xa), frozenset(xb)


def grouping_score(xa, xb, objective="area"):
    """Fig. 7's cost function.

    * ``"area"`` (the paper's): prefer more grouped variables, then
      balance;
    * ``"delay"``: balance dominates — equal-depth components first,
      coverage second (the paper explains balance is what shortens the
      critical path).
    """
    total = len(xa) + len(xb)
    imbalance = abs(len(xa) - len(xb))
    if objective == "delay":
        return (-imbalance, total)
    return (total, -imbalance)


def find_best_grouping(candidates, preference=(OR_GATE, AND_GATE,
                                               EXOR_GATE),
                       objective="area"):
    """Pick the best grouping among per-gate candidates.

    *candidates* maps gate type -> ``(xa, xb)`` or ``None``.  Returns
    ``(gate, xa, xb)`` or ``None`` when no strong grouping exists.
    Exact score ties are resolved by *preference* order (cheaper gates
    first by default).
    """
    best = None
    best_score = None
    for gate in preference:
        grouping = candidates.get(gate)
        if grouping is None:
            continue
        xa, xb = grouping
        score = grouping_score(xa, xb, objective)
        if best_score is None or score > best_score:
            best = (gate, xa, xb)
            best_score = score
    return best
