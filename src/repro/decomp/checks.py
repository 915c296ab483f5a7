"""Decomposability checks (Section 3 of the paper).

All checks take an :class:`~repro.boolfn.ISF` and two disjoint variable
sets ``xa`` and ``xb`` (iterables of variable names/indices).  The
common set XC is implicit: it is whatever remains of the support.

* **OR** (Theorem 1):  F is OR-bi-decomposable with (XA, XB) iff
  ``Q & exists(XA, R) & exists(XB, R) == 0``.
* **AND**: dual of OR — swap the on-set and off-set.
* **EXOR with singleton sets** (Theorem 2): build the derivative ISF of
  F w.r.t. the variable in XA,

      Q_D = exists(xa, Q) & exists(xa, R)
      R_D = forall(xa, Q) | forall(xa, R)

  then F is EXOR-bi-decomposable iff ``Q_D & exists(xb, R_D) == 0``.
* **EXOR with arbitrary sets**: the constraint-propagation algorithm of
  Fig. 4, implemented in :mod:`repro.decomp.exor`.

Weak decomposability (Table 1, second row) is checked by
:func:`weak_or_useful` / :func:`weak_and_useful`: a weak step is only
worth taking when it strictly enlarges the don't-care set of component
A, which is the paper's termination argument.

Every check runs through a :class:`~repro.decomp.context.CheckContext`
(a caller that passes none gets a fresh one), which counts it.  No check
keeps a verdict memo: each recomputes from the kernel's tables.  Every
quantification is a plain :func:`repro.bdd.exists` /
:func:`repro.bdd.forall` call, whose kernel memo answers a repeated
projection at the root, and every AND goes through the computed table,
so a repeated probe costs a handful of root hits (DESIGN.md section 9
counts them).  The checks deliberately keep the plain apply forms below
rather than fusing the conjunction into the quantification walk: the
manager's global computed tables already share every materialised
intermediate across the diff/or/and ecosystem, and DESIGN.md section 9
records the measurement where the fused ``and_exists`` walks lost to
them.  The closed forms are restated independently in
:func:`repro.analysis.certify.theorem_residue`, which the ``--check``
contracts and the offline certifier re-prove through.

:func:`or_decomposable`, :func:`and_decomposable` and
:func:`exor_decomposable_single` are also restated in C: on a manager
that runs the C inner loops, variable grouping makes these same calls,
on the same counter and in the same order, inside one kernel call
(:func:`repro.bdd.variable_grouping`), so during grouping the functions
here run only on the Python loops.
"""

from repro.bdd import exists, forall
from repro.bdd.function import Function
from repro.decomp.context import CheckContext


def or_decomposable(isf, xa, xb, ctx=None):
    """Theorem 1: OR-bi-decomposability with variable sets (XA, XB)."""
    ctx = ctx or CheckContext()
    mgr = isf.mgr
    ctx.check_calls += 1
    q, r = isf.on.node, isf.off.node
    # Q & (exists XA R) & (exists XB R) == 0; across a pair scan each
    # exists(x, R) is walked once and then answered by the kernel memo.
    qa = mgr.and_(q, exists(mgr, xa, r))
    return mgr.and_(qa, exists(mgr, xb, r)) == mgr.false


def and_decomposable(isf, xa, xb, ctx=None):
    """AND-bi-decomposability: the dual of Theorem 1 (swap Q and R)."""
    return or_decomposable(isf.complement(), xa, xb, ctx)


def derivative_isf(isf, variables):
    """The ISF of the Boolean derivative of F w.r.t. *variables*.

    For a compatible CSF f, the derivative ``df/dXA`` must be 1 exactly
    where two XA-cofactor points are forced to opposite values, and 0
    where two are forced to equal values (Theorem 2's Q_D / R_D).
    Returns ``(q_d, r_d)`` as Functions.  The Fig. 5 EXOR pair scan
    re-derives these per-x building blocks for every partner variable;
    the kernel's exists memo (which the forall dual shares through
    complement edges) answers each repeat at the root.
    """
    mgr = isf.mgr
    q, r = isf.on.node, isf.off.node
    q_d = mgr.and_(exists(mgr, variables, q), exists(mgr, variables, r))
    r_d = mgr.or_(forall(mgr, variables, q), forall(mgr, variables, r))
    return Function(mgr, q_d), Function(mgr, r_d)


def exor_decomposable_single(isf, xa_var, xb_var, ctx=None):
    """Theorem 2: EXOR-bi-decomposability with singleton (XA, XB).

    The check is ``Q_D & exists(xb, R_D) == 0`` on the derivative ISF
    of F with respect to the XA variable.
    """
    ctx = ctx or CheckContext()
    mgr = isf.mgr
    ctx.check_calls += 1
    q_d, r_d = derivative_isf(isf, [xa_var])
    return mgr.and_(q_d.node, exists(mgr, [xb_var], r_d.node)) == mgr.false


def weak_or_useful(isf, xa, ctx=None):
    """Weak OR is worth taking iff it strictly shrinks the on-set of A.

    Table 1: component A of a weak OR step has ``Q_A = Q & exists(XA, R)``;
    the step injects don't-cares iff ``Q - exists(XA, R) != 0``.
    """
    ctx = ctx or CheckContext()
    mgr = isf.mgr
    ctx.check_calls += 1
    return mgr.diff(isf.on.node, exists(mgr, xa, isf.off.node)) != mgr.false


def weak_and_useful(isf, xa, ctx=None):
    """Weak AND usefulness: dual of :func:`weak_or_useful`."""
    return weak_or_useful(isf.complement(), xa, ctx)
