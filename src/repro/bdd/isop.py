"""Irredundant sum-of-products via the Minato-Morreale ISOP algorithm.

Given an interval ``(L, U)`` with ``L <= U`` (i.e. an incompletely
specified function with on-set L and don't-care set U & ~L), ``isop``
computes a completely specified cover ``f`` with ``L <= f <= U`` as an
irredundant list of cubes.  This is the SOP engine behind the SIS-like
baseline, the PLA writer, and the name-keyed covers of certificates and
the component store (:func:`named_cubes`).

The walk is an explicit-stack iteration (no python recursion); the cube
list is assembled in exactly the order of the classical recursion —
negative-literal cubes, then positive-literal, then variable-free — so
covers are reproducible term for term.  It runs in C when
:mod:`repro.bdd.native` could build its extension: the C walk makes the
same AND calls, ``var`` nodes and ITE merges in the same order (a
merge that takes ITE's EXOR route goes back to :meth:`BDD.ite`), so
node indices, computed tables and counters do not depend on which one
ran.
The Python walk below stays as the fallback and the differential tests'
reference.

:func:`named_cubes` memoises exact covers per manager and edge in
``_cache_named_isop``, which :meth:`BDD.clear_caches` drops with the
other ``_cache_*`` tables; every cover it computes still enters through
:func:`isop`.
"""

from repro.bdd import manager as _manager
from repro.bdd.node import FALSE, TRUE


class Cube:
    """A product term: mapping of variable index -> 0/1 literal polarity."""

    __slots__ = ("literals",)

    def __init__(self, literals=None):
        self.literals = dict(literals) if literals else {}

    def with_literal(self, var, value):
        """Return a copy of this cube extended with one literal."""
        extended = Cube(self.literals)
        extended.literals[var] = value
        return extended

    def to_bdd(self, mgr):
        """Build the BDD for this cube on *mgr*."""
        result = TRUE
        for var, value in sorted(self.literals.items(),
                                 key=lambda item: -mgr.level_of_var(item[0])):
            literal = mgr.var(var) if value else mgr.nvar(var)
            result = mgr.and_(literal, result)
        return result

    def num_literals(self):
        """Number of literals in the cube."""
        return len(self.literals)

    def __repr__(self):
        parts = []
        for var in sorted(self.literals):
            polarity = "" if self.literals[var] else "~"
            parts.append("%sx%d" % (polarity, var))
        return "Cube(%s)" % " & ".join(parts) if parts else "Cube(1)"

    def __eq__(self, other):
        return isinstance(other, Cube) and self.literals == other.literals

    def __hash__(self):
        return hash(frozenset(self.literals.items()))


def isop(mgr, lower, upper):
    """Minato-Morreale irredundant SOP for the interval ``(lower, upper)``.

    Returns ``(cover_bdd, cubes)`` where ``lower <= cover_bdd <= upper``
    and ``cubes`` is a list of :class:`Cube` whose disjunction equals
    ``cover_bdd``.

    Raises ``ValueError`` when the interval is empty (lower not below
    upper).
    """
    if mgr.diff(lower, upper) != FALSE:
        raise ValueError("isop requires lower <= upper")
    if mgr._kernel is not None:
        return mgr._kernel.isop(mgr, lower, upper, Cube, _manager._CT_MAX)
    cache = {}
    # Explicit-stack Minato-Morreale: frame tags mark the three resume
    # points of the classical recursion (expand, after both literal
    # branches, after the variable-free remainder).
    results = []
    tasks = [(0, lower, upper)]
    while tasks:
        frame = tasks.pop()
        tag = frame[0]
        if tag == 0:
            _, lo_f, up_f = frame
            if lo_f == FALSE:
                results.append((FALSE, []))
                continue
            if up_f == TRUE:
                results.append((TRUE, [Cube()]))
                continue
            key = (lo_f, up_f)
            cached = cache.get(key)
            if cached is not None:
                results.append(cached)
                continue
            level = min(mgr.level(lo_f), mgr.level(up_f))
            var = mgr.var_at_level(level)
            l0, l1 = _cofactors_at(mgr, lo_f, level)
            u0, u1 = _cofactors_at(mgr, up_f, level)

            # On-set minterms coverable only by cubes containing the
            # negative (resp. positive) literal of the split variable.
            l0_only = mgr.diff(l0, u1)
            l1_only = mgr.diff(l1, u0)
            tasks.append((1, key, var, l0, l1, u0, u1))
            tasks.append((0, l1_only, u1))
            tasks.append((0, l0_only, u0))
        elif tag == 1:
            _, key, var, l0, l1, u0, u1 = frame
            f1, cubes1 = results.pop()
            f0, cubes0 = results.pop()
            # What remains must be covered by variable-free cubes.
            remainder = mgr.or_(mgr.diff(l0, f0), mgr.diff(l1, f1))
            tasks.append((2, key, var, f0, cubes0, f1, cubes1))
            tasks.append((0, remainder, mgr.and_(u0, u1)))
        else:
            _, key, var, f0, cubes0, f1, cubes1 = frame
            fd, cubes_d = results.pop()
            cover = mgr.or_(fd, mgr.ite(mgr.var(var), f1, f0))
            cubes = ([cube.with_literal(var, 0) for cube in cubes0]
                     + [cube.with_literal(var, 1) for cube in cubes1]
                     + cubes_d)
            cache[key] = (cover, cubes)
            results.append((cover, cubes))
    return results[0]


def named_cubes(mgr, edge):
    """Exact ISOP cover of *edge* with the literals keyed by name.

    Returns a tuple of cubes, each a tuple of ``(variable_name, 0/1)``
    pairs in variable-index order; ``()`` is constant false and
    ``((),)`` constant true.  On a given variable order the ISOP is
    canonical, so the result is memoised per manager and edge: the
    proof tracer and the component store ask for the same covers over
    and over.  The tuples are immutable, so no caller can change what a
    later call returns.
    """
    memo = mgr._cache_named_isop
    cubes = memo.get(edge)
    if cubes is None:
        names = mgr._var_names
        cubes = tuple(tuple((names[var], value)
                            for var, value in sorted(cube.literals.items()))
                      for cube in isop(mgr, edge, edge)[1])
        memo[edge] = cubes
    return cubes


def _cofactors_at(mgr, node, level):
    if mgr.level(node) == level:
        return mgr.low(node), mgr.high(node)
    return node, node


def cover_to_bdd(mgr, cubes):
    """Disjunction of a list of :class:`Cube` objects."""
    result = FALSE
    for cube in cubes:
        result = mgr.or_(result, cube.to_bdd(mgr))
    return result


def cover_literal_count(cubes):
    """Total number of literals in a cover (classic SOP cost measure)."""
    return sum(cube.num_literals() for cube in cubes)
