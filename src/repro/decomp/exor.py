"""EXOR bi-decomposition check for arbitrary variable sets (Fig. 4).

``check_exor_bidecomp`` reconstructs the constraint-propagation
algorithm of the paper's Fig. 4 (CheckExorBiDecomp): seed component A
with one cube of the remaining on-set projected away from XB, then
alternately propagate forced values between the components,

    q_B = exists(XA, Q & r_A  |  R & q_A)     (where A=0 and F=1, or
    r_B = exists(XA, Q & q_A  |  R & r_A)      A=1 and F=0, B must ...)

until a fixpoint; any overlap of a component's must-1 and must-0 sets
refutes decomposability.  On success it returns the component ISF
*constraints* ``(A_isf, B_isf)``; on failure ``None``.
:func:`propagate_exor` is the propagation itself; the check wraps it in
the context's verdict memo and a necessary Theorem 2 filter.  On a
manager that runs the C inner loops, the check hands the propagation's
loop to one C kernel call (:func:`repro.bdd.exor_propagation`), which
repeats it call for call, so edges, nodes and counters do not depend on
which one ran; :func:`propagate_exor` stays the fallback, the
differential tests' reference and the path of the ``--check`` contract.
Variable grouping's growth on such a manager repeats
:func:`exor_decomposable` and :func:`check_exor_bidecomp` in its own
kernel call (:func:`repro.bdd.variable_grouping`) and calls back into
:func:`propagate_exor` only where the check would not hand the loop to
the kernel.

The propagation is exact for the check; the recursive decomposition
re-derives component B from the chosen CSF f_A afterwards (see
:mod:`repro.decomp.derive`), mirroring what Theorem 4 does for OR.
"""

from repro.bdd import (cube_to_bdd, exists, exor_propagation, forall,
                       pick_cube)
from repro.bdd.function import Function
from repro.boolfn.isf import ISF, InconsistentISF
from repro.decomp.checks import exor_decomposable_single
from repro.decomp.context import CheckContext


def check_exor_bidecomp(isf, xa, xb, ctx=None):
    """Run Fig. 4's CheckExorBiDecomp through a check context.

    Parameters
    ----------
    isf:
        The function to decompose.
    xa, xb:
        Disjoint variable sets (iterables of names/indices).
    ctx:
        The :class:`~repro.decomp.context.CheckContext` to run in (a
        fresh one when omitted).  The whole propagation outcome
        memoises on its ``(Q, R, XA, XB)`` key (the engine re-runs the
        winning grouping verbatim to derive the components), and the
        set-lifted Theorem 2 filter of :func:`_set_derivative_filter`
        prunes infeasible groupings before any propagation runs.

    Returns ``(isf_a, isf_b)`` — the accumulated must-sets of the two
    components as ISFs — or ``None`` when no EXOR bi-decomposition with
    these sets exists; :func:`propagate_exor` computes it.
    """
    ctx = ctx or CheckContext(isf.mgr)
    # The propagation is a pure function of (Q, R, XA, XB) packed
    # edges, so its outcome memoises exactly.  This is the single
    # biggest repeat in the whole algorithm: the greedy growth loop
    # probes a grouping via exor_decomposable, and the engine then
    # re-runs the winning grouping verbatim to derive the components.
    ctx.check_calls += 1
    mgr = isf.mgr
    cached, store = ctx.check_memo("exor", isf.on.node, isf.off.node,
                                   xa, xb)
    if store is None:
        if cached is False:
            return None
        q_a, r_a, q_b, r_b = cached
        return (ISF(Function(mgr, q_a), Function(mgr, r_a)),
                ISF(Function(mgr, q_b), Function(mgr, r_b)))
    if not isf.is_completely_specified() and not _set_derivative_filter(
            isf, xa, xb):
        store(False)
        return None
    result = _propagate(isf, xa, xb)
    if result is None:
        store(False)
        return None
    isf_a, isf_b = result
    store((isf_a.on.node, isf_a.off.node, isf_b.on.node, isf_b.off.node))
    return result


def _set_derivative_filter(isf, xa, xb):
    """Theorem 2 lifted to variable *sets*, as a necessary condition.

    If ``F = A(XA, XC) ^ B(XB, XC)`` for some compatible extension f,
    then for fixed (xb, xc) the function f is non-constant along an
    XA-cofactor class iff A is — B contributes a constant offset, and
    XOR with a constant preserves (non-)constancy.  The indicator of
    that non-constancy is therefore independent of XB.  The derivative
    ISF bounds it: ``Q_D = exists(XA,Q) & exists(XA,R)`` marks classes
    where it is forced to 1 and ``R_D = forall(XA,Q) | forall(XA,R)``
    classes where it is forced to 0, hence

        Q_D & exists(XB, R_D) == 0

    must hold (and symmetrically with XA and XB swapped).  For
    singleton sets this is exactly Theorem 2 and also sufficient; for
    larger sets it is only necessary — but the kernel's exists memo has
    most of its quantifications already, so the filter prunes failing
    Fig. 4 propagations (the expensive part of the growth scan) for
    almost free.  Returns False only when no EXOR bi-decomposition with these
    sets can exist, so filtered verdicts are exact.
    """
    mgr = isf.mgr
    q, r = isf.on.node, isf.off.node
    for va, vb in ((xa, xb), (xb, xa)):
        q_d = mgr.and_(exists(mgr, va, q), exists(mgr, va, r))
        r_d = mgr.or_(forall(mgr, va, q), forall(mgr, va, r))
        if mgr.and_(q_d, exists(mgr, vb, r_d)) != mgr.false:
            return False
    return True


def propagate_exor(isf, xa, xb):
    """Fig. 4's propagation itself, with no verdict memo and no filter.

    Returns ``(isf_a, isf_b)`` or ``None`` like
    :func:`check_exor_bidecomp`, computed afresh on every call.  The
    ``--check`` contracts re-prove EXOR steps here, so they never read
    back a verdict the engine memoised.

    For completely specified intervals the exact cofactor ("rank-1")
    test replaces the cube propagation: F decomposes iff

        F(xa,xb,xc) = F(xa,b0,xc) ^ F(a0,xb,xc) ^ F(a0,b0,xc)

    for an arbitrary anchor point (a0, b0), and then the right-hand
    cofactors *are* the components.  This is orders of magnitude faster
    and bitwise-equivalent in outcome.
    """
    mgr = isf.mgr
    if isf.is_completely_specified():
        return _csf_exor_components(isf, xa, xb)
    xa = [mgr.var_index(v) for v in xa]
    xb = [mgr.var_index(v) for v in xb]
    def _forced(vars_, u, pu, v, pv):
        return exists(mgr, vars_, mgr.or_(mgr.and_(u, pu),
                                          mgr.and_(v, pv)))

    false = mgr.false
    q = isf.on.node
    r = isf.off.node
    acc_qa = acc_ra = acc_qb = acc_rb = false

    while q != false:
        # Seed: pick one on-set cube, project it away from XB, and force
        # component A to 1 there (the choice A=1 vs B=1 is free; the
        # paper seeds A).
        cube = pick_cube(mgr, q)
        cube_a = {var: val for var, val in cube.items() if var not in xb}
        q_a = cube_to_bdd(mgr, cube_a)
        r_a = false
        while q_a != false or r_a != false:
            # Forced values of B given the new forced values of A.
            q_b = _forced(xa, q, r_a, r, q_a)
            r_b = _forced(xa, q, q_a, r, r_a)
            if mgr.and_(q_b, r_b) != false:
                return None
            covered = mgr.or_(q_a, r_a)
            q = mgr.diff(q, covered)
            r = mgr.diff(r, covered)
            acc_qa = mgr.or_(acc_qa, q_a)
            acc_ra = mgr.or_(acc_ra, r_a)
            # Keep only the new B constraints (not yet accumulated).
            q_b_new = mgr.diff(q_b, acc_qb)
            r_b_new = mgr.diff(r_b, acc_rb)
            acc_qb = mgr.or_(acc_qb, q_b)
            acc_rb = mgr.or_(acc_rb, r_b)
            if mgr.and_(acc_qb, acc_rb) != false:
                return None
            # Forced values of A given the new forced values of B.
            q_a = _forced(xb, q, r_b_new, r, q_b_new)
            r_a = _forced(xb, q, q_b_new, r, r_b_new)
            if mgr.and_(q_a, r_a) != false:
                return None
            covered = mgr.or_(q_b_new, r_b_new)
            q = mgr.diff(q, covered)
            r = mgr.diff(r, covered)
            q_a = mgr.diff(q_a, acc_qa)
            r_a = mgr.diff(r_a, acc_ra)
            if mgr.and_(mgr.or_(acc_qa, q_a), mgr.or_(acc_ra, r_a)) != false:
                return None
    return _components(mgr, xa, xb, r, acc_qa, acc_ra, acc_qb, acc_rb)


def _propagate(isf, xa, xb):
    """:func:`propagate_exor`, with its loop as one C kernel call.

    On a manager that runs the C inner loops, an incompletely specified
    interval with a non-empty on-set hands the ``while q`` loop to
    :func:`repro.bdd.exor_propagation`, which repeats it call for call;
    the final step stays here.  Every other case runs
    :func:`propagate_exor` itself.
    """
    mgr = isf.mgr
    q = isf.on.node
    if not mgr.native or q == mgr.false or isf.is_completely_specified():
        return propagate_exor(isf, xa, xb)
    xa = [mgr.var_index(v) for v in xa]
    xb = [mgr.var_index(v) for v in xb]
    loop = exor_propagation(mgr, q, isf.off.node, xa, xb)
    if loop is None:
        return None
    return _components(mgr, xa, xb, *loop)


def _components(mgr, xa, xb, r, acc_qa, acc_ra, acc_qb, acc_rb):
    """The propagation's final step: the component ISFs, or ``None``."""
    false = mgr.false
    # Untouched off-set points: force both components to 0 there
    # (0 EXOR 0 = 0), per the paper's final step.
    if r != false:
        acc_ra = mgr.or_(acc_ra, exists(mgr, xb, r))
        acc_rb = mgr.or_(acc_rb, exists(mgr, xa, r))
        if mgr.and_(acc_qa, acc_ra) != false:
            return None
        if mgr.and_(acc_qb, acc_rb) != false:
            return None

    try:
        isf_a = ISF(Function(mgr, acc_qa), Function(mgr, acc_ra))
        isf_b = ISF(Function(mgr, acc_qb), Function(mgr, acc_rb))
    except InconsistentISF:
        return None
    return isf_a, isf_b


def _csf_exor_components(isf, xa, xb):
    """Exact EXOR check + components for a completely specified F."""
    mgr = isf.mgr
    f = isf.on.node
    zero_a = {mgr.var_index(v): 0 for v in xa}
    zero_b = {mgr.var_index(v): 0 for v in xb}
    f_b0 = mgr.restrict(f, zero_b)          # candidate A(xa, xc)
    f_a0 = mgr.restrict(f, zero_a)
    f_ab0 = mgr.restrict(f_a0, zero_b)
    candidate_b = mgr.xor(f_a0, f_ab0)      # candidate B(xb, xc)
    if mgr.xor(f, mgr.xor(f_b0, candidate_b)) != mgr.false:
        return None
    isf_a = ISF.from_csf(Function(mgr, f_b0))
    isf_b = ISF.from_csf(Function(mgr, candidate_b))
    return isf_a, isf_b


def exor_decomposable(isf, xa, xb, ctx=None):
    """Boolean wrapper around :func:`check_exor_bidecomp`.

    For genuinely incompletely specified intervals, a necessary
    pairwise filter runs first: if ``F = A(XA,XC) ^ B(XB,XC)`` then for
    every a in XA, b in XB the singleton grouping ({a}, {b}) must also
    decompose (push all the other variables into XC), which Theorem 2
    checks in a handful of quantifications.  Only survivors pay for the
    full Fig. 4 propagation.
    """
    ctx = ctx or CheckContext(isf.mgr)
    if not isf.is_completely_specified():
        for a in xa:
            for b in xb:
                if not exor_decomposable_single(isf, a, b, ctx):
                    return False
    return check_exor_bidecomp(isf, xa, xb, ctx) is not None
