"""Incompletely specified functions (ISFs).

The paper manipulates ISFs as on-set/off-set BDD pairs ``(Q, R)``: the
interval of completely specified functions (CSFs) ``f`` with
``Q <= f <= ~R``.  This module is the data type every stage of the
bi-decomposition algorithm passes around.
"""

from repro.bdd.function import Function
from repro.bdd.isop import isop as _isop


class InconsistentISF(Exception):
    """Raised when an on-set and off-set overlap (no compatible CSF)."""


class ISF:
    """An incompletely specified Boolean function, as an interval (Q, ~R).

    Parameters
    ----------
    on:
        :class:`Function` — the on-set Q (inputs where the function must
        be 1).
    off:
        :class:`Function` — the off-set R (inputs where the function
        must be 0).

    ``on & off`` must be empty; everything outside ``on | off`` is a
    don't-care.
    """

    __slots__ = ("on", "off", "_complement")

    def __init__(self, on, off):
        if not isinstance(on, Function) or not isinstance(off, Function):
            raise TypeError("ISF expects Function handles for on/off sets")
        if on.mgr is not off.mgr:
            raise ValueError("on-set and off-set live on different managers")
        if not (on & off).is_false():
            raise InconsistentISF("on-set and off-set overlap")
        self.on = on
        self.off = off
        self._complement = None

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_csf(cls, f):
        """ISF with no don't-cares, equal to the CSF *f*."""
        return cls(f, ~f)

    @classmethod
    def from_on_dc(cls, on, dc):
        """ISF from an on-set and an explicit don't-care set."""
        return cls(on - dc, ~(on | dc))

    @classmethod
    def from_interval(cls, lower, upper):
        """ISF of all CSFs f with ``lower <= f <= upper``."""
        return cls(lower, ~upper)

    # -- derived sets -----------------------------------------------------
    @property
    def mgr(self):
        """The BDD manager this ISF lives on."""
        return self.on.mgr

    @property
    def dc(self):
        """The don't-care set: inputs where any value is permitted."""
        return ~(self.on | self.off)

    @property
    def care(self):
        """The care set ``on | off``."""
        return self.on | self.off

    @property
    def upper(self):
        """The largest compatible CSF, ``~off``."""
        return ~self.off

    # -- predicates --------------------------------------------------------
    def is_compatible(self, f):
        """True iff CSF *f* belongs to the interval: ``on <= f <= ~off``.

        This is Theorem 6's test: ``Q & ~f == 0`` and ``R & f == 0``.
        """
        return (self.on - f).is_false() and (self.off & f).is_false()

    def is_completely_specified(self):
        """True iff the don't-care set is empty."""
        return (self.on | self.off).is_true()

    def is_constant_compatible(self):
        """Return 0/1 if a constant CSF is compatible, else None."""
        if self.on.is_false():
            return 0
        if self.off.is_false():
            return 1
        return None

    # -- structure -----------------------------------------------------------
    def structural_support(self):
        """Variables appearing in the BDDs of Q or R.

        Note this may include *inessential* variables (removable without
        leaving the interval); see
        :mod:`repro.decomp.inessential`.
        """
        return tuple(sorted(set(self.on.support()) | set(self.off.support())))

    def node_count(self):
        """Total BDD nodes of the (Q, R) pair."""
        seen_on = self.on.node_count()
        seen_off = self.off.node_count()
        return seen_on + seen_off

    # -- transformations -------------------------------------------------------
    def complement(self):
        """The ISF of complements (swap on-set and off-set).

        Memoised per instance: the AND-dual checks
        (:func:`repro.decomp.checks.and_decomposable`,
        :func:`~repro.decomp.checks.weak_and_useful`) complement the
        same ISF on every probe, and returning the *same* sibling keeps
        its on/off edges stable as cache keys.  The sibling points back
        at us, so ``isf.complement().complement() is isf``; with
        complement edges both directions are O(1) and no BDD work is
        repeated.  The memo is per-instance (never cross-manager by
        construction — the sibling wraps this instance's own Function
        handles).
        """
        comp = self._complement
        if comp is None:
            comp = ISF(self.off, self.on)
            comp._complement = self
            self._complement = comp
        return comp

    def cofactor(self, var, value):
        """Restrict one input variable to a constant in both sets."""
        return ISF(self.on.cofactor(var, value), self.off.cofactor(var, value))

    def restrict(self, assignment):
        """Restrict several input variables at once."""
        return ISF(self.on.restrict(assignment), self.off.restrict(assignment))

    def cover(self):
        """Pick one compatible CSF: the Minato-Morreale irredundant SOP
        of the interval, small in literal count."""
        return self.cover_cubes()[0]

    def cover_cubes(self):
        """Irredundant SOP cover of the interval as ``(csf, cubes)``."""
        cover_node, cubes = _isop(self.mgr, self.on.node, self.upper.node)
        return Function(self.mgr, cover_node), cubes

    # -- dunder ---------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ISF):
            return NotImplemented
        return self.on == other.on and self.off == other.off

    def __hash__(self):
        return hash((self.on, self.off))

    def __repr__(self):
        if self.is_completely_specified():
            kind = "CSF"
        else:
            kind = "ISF"
        return "%s(support=%s)" % (
            kind, ",".join(map(str, self.structural_support())))
