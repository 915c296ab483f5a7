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
   the fixed gate order OR, AND, EXOR breaks exact ties (Fig. 7's
   FindBestVariableGrouping).

On a manager that runs the C inner loops, :func:`group_variables`
hands the pair scan and the growth of one gate to a single C kernel
call (:func:`repro.bdd.variable_grouping`), which repeats the Python
loops below call for call and adds its probes to the same context
counter.
The Python loops stay the fallback, the differential tests' reference
and the path of a support given by variable names;
:func:`improve_grouping` always runs them.  Fig. 6's growth is one
loop, which :func:`group_variables` runs from the pair seed and
:func:`improve_grouping` from each set with one variable excluded.
"""

from repro.bdd import variable_grouping
from repro.decomp import checks
from repro.decomp.context import CheckContext
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import exor_decomposable, propagate_exor


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
    omitted) counts the probes.  The kernel's exists memo answers every
    repeat of the per-variable quantification family at the root, so
    the O(n^2) pair scan walks only O(n) quantifications — lazily, which
    keeps an early exit from paying for variables it never probed.
    """
    ctx = ctx or CheckContext()
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
    common set XC (implicitly, by not being added).  A support of
    variable indices on a C manager runs as one kernel call
    (:func:`_group_variables_native`).
    """
    ctx = ctx or CheckContext()
    support = tuple(support)  # scanned by the pair seed, then grown over
    mgr = isf.mgr
    if mgr.native and all(type(v) is int and 0 <= v < mgr.num_vars
                          for v in support):
        return _group_variables_native(isf, support, gate, ctx)
    initial = find_initial_grouping(isf, support, gate, ctx)
    if initial is None:
        return None
    xa, xb = (set(initial[0]), set(initial[1]))
    _grow(_set_checker(isf, gate, ctx), support, xa, xb)
    return frozenset(xa), frozenset(xb)


def _grow(check, support, xa, xb, skip=None):
    """Fig. 6's growth of the sets *xa* and *xb*, in place: each support
    variable in neither set (and not *skip*) is offered to the smaller
    set first, then to the other, and joins the first whose *check*
    passes."""
    for z in support:
        if z == skip or z in xa or z in xb:
            continue
        if len(xa) <= len(xb):
            first, second = xa, xb
        else:
            first, second = xb, xa
        if check(first | {z}, second):
            first.add(z)
        elif check(first, second | {z}):
            second.add(z)


def _group_variables_native(isf, support, gate, ctx):
    """:func:`group_variables` as one C kernel call.

    :func:`repro.bdd.variable_grouping` repeats the pair scan and the
    growth call for call, counting them on *ctx*, the EXOR growth's
    :func:`exor_decomposable` included; it calls back into
    :func:`propagate_exor` only where :func:`check_exor_bidecomp` would
    not hand Fig. 4's loop to the kernel.
    """
    propagate = None
    if gate == EXOR_GATE:
        def propagate(xa, xb):
            result = propagate_exor(isf, xa, xb)
            if result is None:
                return None
            isf_a, isf_b = result
            return (isf_a.on.node, isf_a.off.node,
                    isf_b.on.node, isf_b.off.node)
    elif gate in (OR_GATE, AND_GATE):
        if gate == AND_GATE and len(set(support)) > 1:
            # and_decomposable's first probe builds the complement.
            isf = isf.complement()
    else:
        raise ValueError("unknown gate %r" % gate)
    return variable_grouping(isf.mgr, isf.on.node, isf.off.node, support,
                             ctx, propagate)


def improve_grouping(isf, support, gate, xa, xb, ctx=None):
    """Section 5's experimental refinement: exclude-one, add-many.

    The paper reports trying "excluding one variable at a time while
    trying to add others, and accepting the change only if excluding
    one variable led to the addition of two or more"; it improved area
    by under 3 % at twice the CPU time.  This is that refinement,
    available behind ``DecompositionConfig(exhaustive_grouping=True)``
    so the ablation benchmark can reproduce the trade-off.
    """
    ctx = ctx or CheckContext()
    support = tuple(support)  # re-scanned for every excluded variable
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
            _grow(check, support, cand_a, cand_b, skip=victim)
            # Accept only a net gain: one exclusion bought >= two adds.
            if len(cand_a) + len(cand_b) >= len(xa) + len(xb) + 1:
                xa, xb = cand_a, cand_b
                improved = True
                break
    return frozenset(xa), frozenset(xb)


def grouping_score(xa, xb):
    """Fig. 7's cost function: prefer more grouped variables, then
    balance."""
    return (len(xa) + len(xb), -abs(len(xa) - len(xb)))


def find_best_grouping(candidates):
    """Pick the best grouping among per-gate candidates.

    *candidates* maps gate type -> ``(xa, xb)`` or ``None``.  Returns
    ``(gate, xa, xb)`` or ``None`` when no strong grouping exists.
    Exact score ties go to the earlier candidate; the engine inserts
    them in :meth:`~repro.decomp.bidecomp.DecompositionConfig.enabled_gates`
    order (OR, AND, EXOR: cheaper gates first).
    """
    best = None
    best_score = None
    for gate, grouping in candidates.items():
        if grouping is None:
            continue
        xa, xb = grouping
        score = grouping_score(xa, xb)
        if best_score is None or score > best_score:
            best = (gate, xa, xb)
            best_score = score
    return best
