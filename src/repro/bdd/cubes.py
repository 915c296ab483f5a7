"""Cube and minterm utilities.

The EXOR bi-decomposition check (Fig. 4 of the paper) needs
``SelectOneCube``; the verifier and the tests need satisfy-counting and
cube enumeration.  A *cube* is represented as a dict mapping variable
index -> 0/1; variables absent from the dict are unbound.
"""

from repro.bdd.node import FALSE, TRUE, TERMINAL_LEVEL


def sat_count(mgr, f, num_vars=None):
    """Number of satisfying assignments of *f* over *num_vars* variables.

    Defaults to the full variable count of the manager.
    """
    if num_vars is None:
        num_vars = mgr.num_vars
    if num_vars < mgr.num_vars:
        raise ValueError("num_vars must cover all manager variables")
    if f == FALSE:
        return 0
    if f == TRUE:
        return 1 << num_vars
    cache = getattr(mgr, "_cache_satcount", None)
    if cache is None:
        cache = {}
        mgr._cache_satcount = cache
    count = _sat_count_walk(mgr, f, num_vars, cache)
    # _sat_count_walk counts over the levels at and below the root; the
    # levels above the root are unconstrained.
    return count << mgr.level(f)


def _sat_count_walk(mgr, f, num_vars, cache):
    """Count assignments over the variables at levels >= level(f).

    An explicit-stack walk over the regular edges below *f* (not
    constant), so deep BDDs cannot hit the recursion limit.  *cache*
    maps ``(regular edge, num_vars)`` to its count.  A complemented
    edge ~e holds exactly where e does not, over the
    ``2 ** (num_vars - level)`` assignments of the variables at and
    below its root.
    """
    _lev = mgr._level
    _lo = mgr._lo
    _hi = mgr._hi
    stack = [f & -2]
    while stack:
        e = stack[-1]
        key = (e, num_vars)
        if key in cache:
            stack.pop()
            continue
        idx = e >> 1
        lo = _lo[idx]           # stored low edges are regular
        hi = _hi[idx]
        lo_count = 0
        if lo:
            lo_count = cache.get((lo, num_vars))
            if lo_count is None:
                stack.append(lo)
        if hi < 2:
            hi_count = hi
        else:
            hi_count = cache.get((hi & -2, num_vars))
            if hi_count is None:
                stack.append(hi & -2)
                continue
            if hi & 1:
                hi_count = (1 << (num_vars - _lev[hi >> 1])) - hi_count
        if lo_count is None:
            continue
        stack.pop()
        level = _lev[idx]
        cache[key] = ((lo_count << (min(_lev[lo >> 1], num_vars) - level - 1))
                      + (hi_count
                         << (min(_lev[hi >> 1], num_vars) - level - 1)))
    count = cache[(f & -2, num_vars)]
    if f & 1:
        count = (1 << (num_vars - _lev[f >> 1])) - count
    return count


def pick_cube(mgr, f):
    """Return one cube (path to TRUE) of *f* as ``{var_index: 0/1}``.

    Deterministic: always follows the lexicographically first satisfying
    path, preferring the 1-branch (the paper's ``SelectOneCube`` picks a
    random cube; determinism keeps our results reproducible).

    Returns ``None`` when *f* is unsatisfiable.
    """
    if f == FALSE:
        return None
    cube = {}
    node = f
    while node != TRUE:
        var = mgr.top_var(node)
        if mgr.high(node) != FALSE:
            cube[var] = 1
            node = mgr.high(node)
        else:
            cube[var] = 0
            node = mgr.low(node)
    return cube


def pick_minterm(mgr, f, variables=None):
    """Return one full minterm of *f* over *variables* (default: all).

    Unbound cube variables are filled with 0.  Returns ``None`` when *f*
    is unsatisfiable.
    """
    cube = pick_cube(mgr, f)
    if cube is None:
        return None
    if variables is None:
        variables = range(mgr.num_vars)
    minterm = {mgr.var_index(v): 0 for v in variables}
    minterm.update(cube)
    return minterm


def cube_to_bdd(mgr, cube):
    """Build the BDD of a cube ``{var: 0/1}`` (empty cube -> TRUE)."""
    result = TRUE
    # Build bottom-up (deepest level first) so each _mk call is O(1).
    for var, value in sorted(cube.items(),
                             key=lambda item: -mgr.level_of_var(item[0])):
        literal = mgr.var(var) if value else mgr.nvar(var)
        result = mgr.and_(literal, result)
    return result


def iter_cubes(mgr, f):
    """Yield all cubes (paths to TRUE) of *f* as ``{var_index: 0/1}`` dicts.

    The cubes are disjoint and their union is exactly *f*.
    """
    if f == FALSE:
        return
    stack = [(f, {})]
    while stack:
        node, partial = stack.pop()
        if node == TRUE:
            yield dict(partial)
            continue
        var = mgr.top_var(node)
        lo, hi = mgr.low(node), mgr.high(node)
        if lo != FALSE:
            cube = dict(partial)
            cube[var] = 0
            stack.append((lo, cube))
        if hi != FALSE:
            cube = dict(partial)
            cube[var] = 1
            stack.append((hi, cube))


def iter_minterms(mgr, f, variables=None):
    """Yield all minterms of *f* over *variables* (default: all manager vars).

    Exponential in the number of unbound variables; intended for test
    support on small functions.
    """
    if variables is None:
        variables = list(range(mgr.num_vars))
    variables = [mgr.var_index(v) for v in variables]
    for cube in iter_cubes(mgr, f):
        free = [v for v in variables if v not in cube]
        for mask in range(1 << len(free)):
            minterm = dict(cube)
            for i, var in enumerate(free):
                minterm[var] = (mask >> i) & 1
            yield minterm
