"""Shared decomposability-check counter for variable grouping.

Variable grouping (Section 5, Figs. 5-6) is the algorithm's inner
loop: every pair seed and every greedy-growth probe runs a Theorem 1/2
check, and the full Fig. 4 propagation of the *winning* grouping is
re-run once more when the engine derives the component intervals.
Every check in :mod:`repro.decomp` runs through a :class:`CheckContext`
(a public entry point called without one builds a fresh one), which
counts the probes.

The checks are pure functions of ``(Q, R, XA, XB)`` and keep no memo
of their own: every check recomputes from the kernel's tables.  Their
projections go straight to :func:`repro.bdd.exists` /
:func:`repro.bdd.forall`, whose exists memo answers a repeated
``exists(V, f)`` at the root in one step (the universal dual shares it
through complement edges), and their ANDs go through the computed
table.  So the per-variable families ``exists(x, R)`` / ``exists(x, Q)``
that Fig. 5's O(n^2) pair scan keeps re-using are each walked once —
lazily (an early exit never pays for variables it did not probe) — and
a repeated Theorem 2 pair test or a re-run of the winning Fig. 4
propagation replays from those tables (DESIGN.md section 9).

The engine folds the context's ``check_calls`` into
:class:`repro.decomp.bidecomp.DecompositionStats` per recursion step.
On a manager that runs the C inner loops,
:func:`repro.decomp.grouping.group_variables` runs its checks in one C
kernel call that adds its probes to the same counter.
"""


class CheckContext:
    """The check counter shared across the probes of one recursion step.

    The counter is per-instance, which is how the engine reports
    per-recursion-step numbers.
    """

    __slots__ = ("check_calls",)

    def __init__(self):
        #: Decomposability checks routed through this context.
        self.check_calls = 0
