"""Existential / universal quantification over variable sets.

These are the workhorse operators of the paper: every decomposability
check (Theorems 1 and 2) and every component derivation (Theorems 3
and 4) is a quantified Boolean formula evaluated on BDDs.

Quantification walks by level with an explicit stack (no python
recursion, so arbitrarily deep cones are safe); the set of quantified
variables is normalised to a sorted tuple of *levels*, and results are
memoised on the manager so that the repeated checks performed during
variable grouping stay cheap.  With complement edges the universal
quantifier is the dual of the existential one (``forall(V, f) =
~exists(V, ~f)``), so both share one memo table.

Hot-path notes: decomposition calls ``exists`` hundreds of thousands
of times with a handful of distinct variable sets, so the
name/index -> sorted-level-tuple normalisation and the per-call level
suffix tuples are interned on the manager (``_cache_var_token``,
``_cache_suffixes``).  Each level suffix also gets a small integer id
(``_cache_suffix_id``) so memo keys pack as ints — ``(edge << 20) |
suffix_id`` — instead of allocating and hashing nested tuples on every
probe.  All of these live in ``_cache_*`` attributes, which
:meth:`repro.bdd.manager.BDD.clear_caches` drops wholesale on reorder
or GC, keeping ids and level tokens consistent with the current order.

The fused :func:`and_exists` / :func:`or_forall` walks have no caller in
the decomposition engine (its checks keep the apply forms, DESIGN.md
§9); ``perfbench``'s tracer still wraps them by name.

The exists walk runs in C when :mod:`repro.bdd.native` could build its
extension (the fused ``and_exists`` walk stays in Python); the Python
loop in :func:`_exists_iter` is the fallback and the differential
tests' reference, and both leave the same memo entries and counters.
:func:`exor_propagation` hands the whole loop of Fig. 4's EXOR
propagation, its exists calls included, to the C kernel in one call,
and :func:`variable_grouping` does the same for the variable grouping
of Figs. 5 and 6.
Its memo ``_cache_exists`` is a :data:`repro.bdd.native.Table` (int
keys, edge values), which the C walk probes without boxing; the fused
walk's memo keeps a dict, because its keys outgrow 64 bits.
"""

from repro.bdd import manager as _manager
from repro.bdd import native
from repro.bdd.node import FALSE, TRUE
from repro.bdd.types import Edge, SuffixId

#: Bits reserved for the suffix id in packed memo keys.  2**20 distinct
#: (tail of a quantified level set) values is far beyond any real run;
#: _suffix_id raises before the packing could ever overflow.
_SUFFIX_BITS = 20
_SUFFIX_MAX = 1 << _SUFFIX_BITS


def _levels_token(mgr, variables):
    """Normalise *variables* (names/indices) to a sorted tuple of levels.

    Memoised per distinct argument tuple: grouping code calls this with
    the same few variable sets over and over.
    """
    key = tuple(variables)
    cache = _cache(mgr, "_cache_var_token")
    token = cache.get(key)
    if token is None:
        token = tuple(sorted(mgr.level_of_var(v) for v in set(key)))
        cache[key] = token
    return token


def _cache(mgr, name, factory=dict):
    cache = getattr(mgr, name, None)
    if cache is None:
        cache = factory()
        setattr(mgr, name, cache)
    return cache


def _suffixes(mgr, levels):
    """Interned ``levels[i:]`` slices plus their packed-key ids.

    Returns ``(suffixes, ids)`` where ``ids[i]`` is a small integer
    unique to the tuple ``levels[i:]`` for the lifetime of the caches.
    """
    cache = _cache(mgr, "_cache_suffixes")
    entry = cache.get(levels)
    if entry is None:
        ids = _cache(mgr, "_cache_suffix_id")
        suffixes = [levels[i:] for i in range(len(levels) + 1)]
        entry_ids = []
        for suffix in suffixes:
            sid: SuffixId = ids.get(suffix)
            if sid is None:
                sid = len(ids)
                if sid >= _SUFFIX_MAX:
                    raise OverflowError("too many distinct level sets")
                ids[suffix] = sid
            entry_ids.append(sid)
        entry = (suffixes, entry_ids)
        cache[levels] = entry
    return entry


def exists(mgr, variables, f: Edge) -> Edge:
    """Existential quantification: OR of all cofactors over *variables*."""
    levels = _levels_token(mgr, variables)
    if not levels:
        return f
    mgr._q_exists_calls += 1
    return _exists_iter(mgr, f, levels,
                        _cache(mgr, "_cache_exists", native.Table))


def _exists_iter(mgr, f: Edge, levels, cache) -> Edge:
    _suffix_tuples, sids = _suffixes(mgr, levels)
    if mgr._kernel is not None:
        return mgr._kernel.exists(mgr, f, levels, sids, cache,
                                  _manager._CT_MAX)
    n = len(levels)
    _lev = mgr._level
    _lo = mgr._lo
    _hi = mgr._hi
    or_ = mgr.or_
    results = []
    rpush = results.append
    rpop = results.pop
    tasks = [(0, f, 0)]
    tpush = tasks.append
    tpop = tasks.pop
    steps = 0
    while tasks:
        steps += 1
        tag, payload, i = tpop()
        if tag == 0:
            e = payload
            if e < 2:
                rpush(e)
                continue
            idx = e >> 1
            lvl = _lev[idx]
            # Drop quantified levels that can no longer appear below.
            while i < n and levels[i] < lvl:
                i += 1
            if i == n:
                rpush(e)
                continue
            key = (e << _SUFFIX_BITS) | sids[i]
            cached = cache.get(key)
            if cached is not None:
                rpush(cached)
                continue
            c = e & 1
            tpush((1, (key, lvl, levels[i] == lvl), 0))
            tpush((0, _hi[idx] ^ c, i))
            tpush((0, _lo[idx] ^ c, i))
        else:
            key, lvl, quantified = payload
            hi = rpop()
            lo = rpop()
            if quantified:
                result = or_(lo, hi)
            else:
                # Quantification only removes variables, so lo/hi top
                # levels stay strictly below lvl: _mk is safe here.
                result = mgr._mk(lvl, lo, hi)
            cache[key] = result
            rpush(result)
    mgr._q_steps += steps
    return results[0]


def exor_propagation(mgr, q: Edge, r: Edge, xa, xb):
    """The loop of Fig. 4's EXOR propagation as one C kernel call.

    Runs the ``while q`` loop of
    :func:`repro.decomp.exor.propagate_exor` for on-set *q* (not FALSE)
    and off-set *r*, with *xa* / *xb* the variable-index lists that
    function passes to :func:`exists`.  Returns ``(r, acc_qa, acc_ra,
    acc_qb, acc_rb)`` -- the off-set points the propagation left
    untouched and the four accumulated must-sets -- or ``None`` when an
    overlap refutes the decomposition.  The C loop repeats the Python
    one call for call and interns each variable set at its first
    projection, so edges, arena, counters and suffix ids come out the
    same.  Only for a manager with :attr:`BDD.native` set.
    """
    return mgr._kernel.propagate_exor(
        mgr, q, r, xa, xb, [mgr.level_of_var(v) for v in xb],
        _interner(mgr), _cache(mgr, "_cache_exists", native.Table),
        _manager._CT_MAX)


def variable_grouping(mgr, q: Edge, r: Edge, support, memos, counters,
                      propagate=None):
    """Figs. 5 and 6's variable grouping as one C kernel call.

    Runs :func:`repro.decomp.grouping.group_variables` on the ISF with
    on-set *q* and off-set *r* (the complemented ISF's for the AND
    gate): the pair scan, then the greedy growth.  *support* is a tuple
    of variable indices.  *memos* holds the
    :class:`~repro.decomp.context.CheckContext` dicts the checks read
    and fill, in the order variable sets, quantifications, Theorem 1
    (OR, AND) or Theorem 2 (EXOR) verdicts, and for EXOR Fig. 4
    verdicts (else ``None``); the kernel probes and fills them as the
    Python checks do.  For EXOR, *propagate(xa, xb)* runs
    :func:`repro.decomp.exor.propagate_exor` where the kernel's loop
    does not apply (an empty on-set or no don't-cares), returning
    ``None`` or the four component edges.  Returns ``(xa, xb)``
    frozensets or ``None`` and adds the probes' ``check_calls``,
    ``cache_hits`` and ``exists_calls`` to *counters*, also when a
    growth hook raises.  The C loop repeats the Python one call for
    call, so edges, arena, counters, suffix ids and memo entries come
    out the same.  Only for a manager with :attr:`BDD.native` set.
    """
    return mgr._kernel.group_variables(
        mgr, q, r, support, _interner(mgr),
        _cache(mgr, "_cache_exists", native.Table), memos, propagate,
        counters, _manager._CT_MAX)


def _interner(mgr):
    """``intern(variables) -> (levels, suffix ids)`` for the C entries,
    interning a set as :func:`exists` does on its first call."""
    def intern(variables):
        levels = _levels_token(mgr, variables)
        return levels, (_suffixes(mgr, levels)[1] if levels else ())
    return intern


def forall(mgr, variables, f: Edge) -> Edge:
    """Universal quantification: AND of all cofactors over *variables*.

    The dual of :func:`exists` under complement edges; shares its memo.
    """
    levels = _levels_token(mgr, variables)
    if not levels:
        return f
    mgr._q_exists_calls += 1
    return _exists_iter(mgr, f ^ 1, levels,
                        _cache(mgr, "_cache_exists", native.Table)) ^ 1


def and_exists(mgr, variables, f: Edge, g: Edge) -> Edge:
    """Compute ``exists(variables, f & g)`` without building ``f & g``.

    The fused form ("relational product") short-circuits as soon as one
    branch evaluates to constant 0, which matters for the repeated
    emptiness checks ``Q & exists(XA, R) & exists(XB, R) == 0`` used by
    variable grouping.
    """
    levels = _levels_token(mgr, variables)
    mgr._q_and_exists_calls += 1
    return _and_exists_iter(mgr, f, g, levels,
                            _cache(mgr, "_cache_and_exists"))


def or_forall(mgr, variables, f: Edge, g: Edge) -> Edge:
    """Compute ``forall(variables, f | g)`` without building ``f | g``.

    The universal dual of :func:`and_exists` under complement edges:
    ``forall(V, f | g) = ~exists(V, ~f & ~g)``, so the same fused walk
    (and the same memo table) serves both.  This is the shape of
    Theorem 2's ``R_D = forall(V, Q) | forall(V, R)`` once rewritten as
    ``forall(V, forall(V, Q) | R)``.
    """
    levels = _levels_token(mgr, variables)
    mgr._q_and_exists_calls += 1
    return _and_exists_iter(mgr, f ^ 1, g ^ 1, levels,
                            _cache(mgr, "_cache_and_exists")) ^ 1


def _and_exists_iter(mgr, f: Edge, g: Edge, levels, cache) -> Edge:
    _suffix_tuples, sids = _suffixes(mgr, levels)
    n = len(levels)
    _lev = mgr._level
    _lo = mgr._lo
    _hi = mgr._hi
    results = []
    rpush = results.append
    rpop = results.pop
    tasks = [(0, (f, g), 0)]
    tpush = tasks.append
    tpop = tasks.pop
    steps = 0
    while tasks:
        steps += 1
        tag, payload, i = tpop()
        if tag == 0:
            f, g = payload
            if f == FALSE or g == FALSE or f == g ^ 1:
                rpush(FALSE)
                continue
            lf = _lev[f >> 1]
            lg = _lev[g >> 1]
            lvl = lf if lf < lg else lg
            while i < n and levels[i] < lvl:
                i += 1
            if i == n:
                rpush(mgr.and_(f, g))
                continue
            if f > g:
                f, g = g, f
            key = (((f << 32) | g) << _SUFFIX_BITS) | sids[i]
            cached = cache.get(key)
            if cached is not None:
                rpush(cached)
                continue
            if _lev[f >> 1] == lvl:
                cf = f & 1
                f0 = _lo[f >> 1] ^ cf
                f1 = _hi[f >> 1] ^ cf
            else:
                f0 = f1 = f
            if _lev[g >> 1] == lvl:
                cg = g & 1
                g0 = _lo[g >> 1] ^ cg
                g1 = _hi[g >> 1] ^ cg
            else:
                g0 = g1 = g
            tpush((1, (f1, g1, key, lvl, levels[i] == lvl), i))
            tpush((0, (f0, g0), i))
        elif tag == 1:
            f1, g1, key, lvl, quantified = payload
            lo = rpop()
            if quantified and lo == TRUE:
                cache[key] = TRUE
                rpush(TRUE)
                continue
            rpush(lo)
            tpush((2, (key, lvl, quantified), 0))
            tpush((0, (f1, g1), i))
        else:
            key, lvl, quantified = payload
            hi = rpop()
            lo = rpop()
            if quantified:
                result = mgr.or_(lo, hi)
            else:
                result = mgr._mk(lvl, lo, hi)
            cache[key] = result
            rpush(result)
    mgr._q_steps += steps
    return results[0]
