"""Reduced ordered BDD manager with complement edges (BuDDy stand-in).

Implements a classic unique-table / computed-table ROBDD package *with*
complement edges: functions are denoted by packed integer edges
``(node_index << 1) | complement_bit`` (see :mod:`repro.bdd.node`), so
negation is O(1) and a function shares one physical node with its
complement.  Canonicity rule: the stored low (else) edge of a node is
never complemented; ``_mk`` renormalises and the unique table guarantees
that two edges are equal iff the functions are equal, keeping
equivalence checking O(1).

Storage layout:

* parallel lists ``_level`` / ``_lo`` / ``_hi`` indexed by node index
  (slot 0 is the single terminal, the constant-0 function);
* a per-level unique table keyed on the packed int
  ``(lo << 32) | hi`` — per-level tables make adjacent-level swaps
  (sifting) local operations;
* one computed table per operator (AND / XOR / ITE), keyed on the
  packed operand edges and capped in size.  Invalidation (reorder/GC)
  drops them wholesale.

The unique tables and the AND / XOR computed tables are
:data:`repro.bdd.native.Table` objects: with the C extension loaded,
exact insertion-ordered maps with inline ``uint64`` keys and values
that the C walks probe without boxing a key, and plain dicts on the
Python fallback.  Both iterate in the same order, so node indices and
counters do not depend on which one a manager holds.  The ITE table
stays a dict: its keys pack three edges, more than 64 bits.  When the
tables were probed from Python bytecode, hand-rolled probe tables lost
to the dict (DESIGN.md §8 records the numbers); probed from C, the
inline table wins (DESIGN.md §8, "Native inner loops").

The operator walks are explicit-stack iterative loops, so deep cones
pay no python recursion overhead and cannot hit the recursion limit.
The hottest of them, the miss path of :meth:`BDD.and_` (which OR, DIFF,
IMPLIES, NAND and NOR reach through De Morgan), runs in C when
:mod:`repro.bdd.native` could build its extension: the C loop works on
these same lists and tables and repeats the Python loop below step for
step, so node indices and counters do not depend on which one ran.  The
Python loop stays as the fallback and as the differential tests'
reference; it runs on either kind of table.

The manager offers:

* variable creation and ordering maps (variable index <-> level),
* the ``ite`` operator plus dedicated AND / XOR fast paths (OR and the
  other binary connectives derive from them through complement edges),
* cofactors, literal restriction, composition,
* support computation,
* unique/computed-table hit-rate and peak-live-node counters
  (:meth:`cache_stats`),
* hooks used by the quantification / cube / ISOP / reordering modules.

The public, handle-based API lives in :mod:`repro.bdd.function`; this
module is deliberately edge-based for speed.
"""

from repro.bdd import native
from repro.bdd.node import FALSE, TRUE, TERMINAL_LEVEL
from repro.bdd.types import Edge, Level, VarId

#: Memory backstop on entries per operator computed table.  A table
#: that exceeds the cap after a top-level operation is dropped
#: wholesale.  The cap is deliberately generous: hog decompositions
#: legitimately accumulate a few million live subproblems, and an
#: eager cap (2**21 was tried) forces wholesale recomputation — on
#: 16sym8 it turned ~0.5M distinct AND subproblems into 2.5M cache
#: misses, costing more wall-clock than the dropped memory was worth.
_CT_MAX = 1 << 24


class BDDError(Exception):
    """Raised on misuse of the BDD manager (bad variable, wrong manager...)."""


class BDD:
    """A reduced ordered binary decision diagram manager.

    Parameters
    ----------
    var_names:
        Optional iterable of variable names created up front, in order.
        More variables can be added later with :meth:`add_var`.
    """

    def __init__(self, var_names=()):
        # Physical node arena; slot 0 is the terminal (constant 0).
        self._level = [TERMINAL_LEVEL]
        self._lo = [FALSE]
        self._hi = [FALSE]
        # Unique table: one native.Table per level, keyed (lo << 32) | hi.
        self._unique = []
        # Computed tables: one exact table per operator, keyed on the
        # packed operand edges.  AND and XOR keys fit 64 bits, so they
        # are native.Tables the C walks probe inline; ITE keys do not.
        self._ct_and = native.Table()
        self._ct_xor = native.Table()
        self._ct_ite = {}
        # Hit-rate / peak-size counters (see cache_stats()).
        self._ct_lookups = 0
        self._ct_hits = 0
        self._uniq_lookups = 0
        self._uniq_hits = 0
        self._peak_live = 1
        # Quantification kernel counters (incremented by repro.bdd.quantify):
        # top-level exists/forall calls, fused and_exists/or_forall calls,
        # and total explicit-stack walk iterations.  Deterministic operation
        # counts — the honest perf metric on machines with noisy clocks.
        self._q_exists_calls = 0
        self._q_and_exists_calls = 0
        self._q_steps = 0
        # Support cache (a real dict: results survive until the next
        # clear_caches, which must clear it explicitly — its keys are
        # packed edges whose *levels* go stale on reordering).
        self._cache_support = {}
        # Name-keyed exact ISOP covers by edge (repro.bdd.isop.named_cubes).
        self._cache_named_isop = {}
        # Variable bookkeeping.
        self._var_names = []
        self._name_to_var = {}
        self._var_to_level = []
        self._level_to_var = []
        # Garbage collection: external reference counts (keyed by node
        # index) and the freelist of recycled node slots.
        self._refs = {}
        self._free = []
        # Growth hook: called every `_growth_interval` fresh node
        # allocations (resource-budget enforcement by the pipeline
        # session; None keeps the hot path branch-predictable).
        self._growth_hook = None
        self._growth_interval = 1024
        self._growth_countdown = 1024
        # C inner loops (repro.bdd.native), or None for the Python loops.
        self._kernel = native.KERNEL
        for name in var_names:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_var(self, name=None) -> VarId:
        """Create a new variable at the bottom of the order; return its index."""
        var = len(self._var_names)
        if name is None:
            name = "x%d" % var
        if name in self._name_to_var:
            raise BDDError("duplicate variable name: %r" % name)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._var_to_level.append(len(self._level_to_var))
        self._level_to_var.append(var)
        self._unique.append(native.Table())
        return var

    @property
    def native(self):
        """True when this manager runs the C inner loops of
        :mod:`repro.bdd.native`, False on the Python loops."""
        return self._kernel is not None

    @property
    def num_vars(self):
        """Number of variables managed."""
        return len(self._var_names)

    @property
    def var_names(self):
        """Tuple of variable names, in creation (index) order."""
        return tuple(self._var_names)

    def var_index(self, var) -> VarId:
        """Normalise *var* (name or index) to a variable index."""
        if isinstance(var, str):
            try:
                return self._name_to_var[var]
            except KeyError:
                raise BDDError("unknown variable name: %r" % var)
        var = int(var)
        if not 0 <= var < len(self._var_names):
            raise BDDError("variable index out of range: %d" % var)
        return var

    def var_name(self, var) -> str:
        """Name of variable index *var*."""
        return self._var_names[self.var_index(var)]

    def level_of_var(self, var) -> Level:
        """Current level (position in the order) of variable *var*."""
        return self._var_to_level[self.var_index(var)]

    def var_at_level(self, level: Level) -> VarId:
        """Variable index currently sitting at *level*."""
        return self._level_to_var[level]

    def order(self):
        """Current variable order as a tuple of variable indices, top first."""
        return tuple(self._level_to_var)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _mk(self, level: Level, lo: Edge, hi: Edge) -> Edge:
        """Find-or-create the edge for ``(level, lo, hi)`` (normalised).

        *lo* / *hi* are edges; reduction (``lo == hi``) and the
        complement canonicity rule (stored low edge is regular) are
        applied here, so every caller gets the canonical edge.
        """
        if lo == hi:
            return lo
        out = lo & 1
        if out:
            lo ^= 1
            hi ^= 1
        table = self._unique[level]
        key = (lo << 32) | hi
        self._uniq_lookups += 1
        node = table.get(key)
        if node is None:
            free = self._free
            if free:
                node = free.pop()
                self._level[node] = level
                self._lo[node] = lo
                self._hi[node] = hi
            else:
                node = len(self._level)
                self._level.append(level)
                self._lo.append(lo)
                self._hi.append(hi)
            table[key] = node
            live = len(self._level) - len(free)
            if live > self._peak_live:
                self._peak_live = live
            if self._growth_hook is not None:
                self._growth_countdown -= 1
                if self._growth_countdown <= 0:
                    self._growth_countdown = self._growth_interval
                    self._growth_hook(self)
        else:
            self._uniq_hits += 1
        return (node << 1) | out

    def set_growth_hook(self, hook, interval=1024):
        """Install ``hook(manager)`` fired every *interval* fresh nodes.

        The pipeline session uses this to enforce node and wall-clock
        budgets: the hook may raise to abort the in-flight operation
        (the node under construction stays allocated and is reclaimed
        by the next :meth:`collect`).  Pass ``hook=None`` to uninstall.
        """
        if hook is not None and interval <= 0:
            raise BDDError("growth-hook interval must be positive")
        self._growth_hook = hook
        self._growth_interval = interval
        self._growth_countdown = interval

    def var(self, var) -> Edge:
        """Return the edge for the positive literal of *var*."""
        level = self._var_to_level[self.var_index(var)]
        return self._mk(level, FALSE, TRUE)

    def nvar(self, var) -> Edge:
        """Return the edge for the negative literal of *var*."""
        level = self._var_to_level[self.var_index(var)]
        return self._mk(level, TRUE, FALSE)

    @property
    def true(self) -> Edge:
        """The constant-1 edge."""
        return TRUE

    @property
    def false(self) -> Edge:
        """The constant-0 edge."""
        return FALSE

    def level(self, edge: Edge) -> Level:
        """Level of *edge* (``TERMINAL_LEVEL`` for constants)."""
        return self._level[edge >> 1]

    def low(self, edge: Edge) -> Edge:
        """Else-branch (variable = 0) of *edge*, complement resolved."""
        return self._lo[edge >> 1] ^ (edge & 1)

    def high(self, edge: Edge) -> Edge:
        """Then-branch (variable = 1) of *edge*, complement resolved."""
        return self._hi[edge >> 1] ^ (edge & 1)

    def top_var(self, edge: Edge) -> VarId:
        """Variable index decided at the root of *edge*."""
        level = self._level[edge >> 1]
        if level == TERMINAL_LEVEL:
            raise BDDError("terminal node has no top variable")
        return self._level_to_var[level]

    def size(self):
        """Number of physical node slots allocated (incl. the terminal).

        With complement edges one slot serves a function and its
        complement, so this is not comparable to :meth:`node_count`,
        which counts distinct functions (edges).
        """
        return len(self._level)

    # ------------------------------------------------------------------
    # Core operators
    # ------------------------------------------------------------------
    def not_(self, f: Edge) -> Edge:
        """Complement of *f* — one XOR on the edge's complement bit."""
        return f ^ 1

    def and_(self, f: Edge, g: Edge) -> Edge:
        """Conjunction ``f & g`` (iterative, explicit stack)."""
        # Top-level fast paths: trivial and cached calls — the vast
        # majority on decomposition workloads — skip the loop setup.
        if f == g or g == 1:
            return f
        if f == 1:
            return g
        if f == 0 or g == 0 or f == g ^ 1:
            return 0
        if f > g:
            f, g = g, f
        ct = self._ct_and
        res = ct.get((f << 32) | g)
        if res is not None:
            # A miss is not counted here: the loop's first frame probes
            # the same key and counts it exactly once.
            self._ct_lookups += 1
            self._ct_hits += 1
            return res
        if self._kernel is not None:
            return self._kernel.and_(self, f, g, _CT_MAX)
        # Local aliases: these loops are the package's hot path.
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        unique = self._unique
        free = self._free
        lookups = hits = 0
        uniq_lookups = uniq_hits = 0
        results = []
        rpush = results.append
        rpop = results.pop
        # Frames: (0, a, b) expand a non-trivial, normalised (a < b)
        # pair; (1, lvl, key) reduce the top two results; (2, val, 0)
        # push a literal result.  Children are classified eagerly at
        # push time — trivial and cache-hit children never round-trip
        # through the stack — and an unresolved low child is descended
        # into directly (the inner while below), so the left spine of
        # every expansion pays no frame traffic at all.
        tasks = [(0, f, g)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, a, b = tpop()
            if tag == 2:
                rpush(a)
                continue
            if tag == 1:
                hi_e = rpop()
                lo_e = rpop()
                lvl = a
                key = b
            else:
                # Re-probe: the sibling subtree may have filled this
                # key since the frame was pushed.
                key = (a << 32) | b
                lookups += 1
                res = ct.get(key)
                if res is not None:
                    hits += 1
                    rpush(res)
                    continue
                while True:
                    ia = a >> 1
                    ib = b >> 1
                    la = _lev[ia]
                    lb = _lev[ib]
                    if la < lb:
                        lvl = la
                        ca = a & 1
                        a0 = _lo[ia] ^ ca
                        a1 = _hi[ia] ^ ca
                        b0 = b1 = b
                    elif lb < la:
                        lvl = lb
                        cb = b & 1
                        a0 = a1 = a
                        b0 = _lo[ib] ^ cb
                        b1 = _hi[ib] ^ cb
                    else:
                        lvl = la
                        ca = a & 1
                        cb = b & 1
                        a0 = _lo[ia] ^ ca
                        a1 = _hi[ia] ^ ca
                        b0 = _lo[ib] ^ cb
                        b1 = _hi[ib] ^ cb
                    # Eager resolution of the low child.
                    if a0 == b0 or b0 == 1:
                        lo_e = a0
                    elif a0 == 1:
                        lo_e = b0
                    elif a0 == 0 or b0 == 0 or a0 == b0 ^ 1:
                        lo_e = 0
                    else:
                        if a0 > b0:
                            a0, b0 = b0, a0
                        lookups += 1
                        lo_e = ct.get((a0 << 32) | b0)
                        if lo_e is not None:
                            hits += 1
                    # Eager resolution of the high child.
                    if a1 == b1 or b1 == 1:
                        hi_e = a1
                    elif a1 == 1:
                        hi_e = b1
                    elif a1 == 0 or b1 == 0 or a1 == b1 ^ 1:
                        hi_e = 0
                    else:
                        if a1 > b1:
                            a1, b1 = b1, a1
                        hi_e = ct.get((a1 << 32) | b1)
                        if hi_e is not None:
                            lookups += 1
                            hits += 1
                    if lo_e is None:
                        tpush((1, lvl, key))
                        if hi_e is None:
                            tpush((0, a1, b1))
                        else:
                            tpush((2, hi_e, 0))
                        # Descend the low spine without a frame: the
                        # eager probe above just missed and nothing
                        # has run since, so no re-probe is needed.
                        a = a0
                        b = b0
                        key = (a0 << 32) | b0
                        continue
                    if hi_e is not None:
                        break
                    # Low child resolved, high child pending.
                    rpush(lo_e)
                    tpush((1, lvl, key))
                    tpush((0, a1, b1))
                    lo_e = None
                    break
                if lo_e is None:
                    continue
            # Make the node for (lvl, lo_e, hi_e), memoise under key.
            if lo_e == hi_e:
                res = lo_e
            else:
                out = lo_e & 1
                if out:
                    lo_e ^= 1
                    hi_e ^= 1
                table = unique[lvl]
                ukey = (lo_e << 32) | hi_e
                uniq_lookups += 1
                node = table.get(ukey)
                if node is None:
                    if free:
                        node = free.pop()
                        _lev[node] = lvl
                        _lo[node] = lo_e
                        _hi[node] = hi_e
                    else:
                        node = len(_lev)
                        _lev.append(lvl)
                        _lo.append(lo_e)
                        _hi.append(hi_e)
                    table[ukey] = node
                    live = len(_lev) - len(free)
                    if live > self._peak_live:
                        self._peak_live = live
                    if self._growth_hook is not None:
                        self._growth_countdown -= 1
                        if self._growth_countdown <= 0:
                            self._growth_countdown = \
                                self._growth_interval
                            self._growth_hook(self)
                else:
                    uniq_hits += 1
                res = (node << 1) | out
            ct[key] = res
            rpush(res)
        self._ct_lookups += lookups
        self._ct_hits += hits
        self._uniq_lookups += uniq_lookups
        self._uniq_hits += uniq_hits
        if len(ct) > _CT_MAX:
            ct.clear()
        return results[0]

    def xor(self, f: Edge, g: Edge) -> Edge:
        """Exclusive-or ``f ^ g`` (iterative, explicit stack)."""
        # Top-level fast paths (xor ignores polarity up to an output
        # complement, so operands normalise to regular edges).
        if f < 2:
            return g ^ f
        if g < 2:
            return f ^ g
        pol = (f ^ g) & 1
        f &= -2
        g &= -2
        if f == g:
            return pol
        if f > g:
            f, g = g, f
        ct = self._ct_xor
        res = ct.get((f << 32) | g)
        if res is not None:
            self._ct_lookups += 1
            self._ct_hits += 1
            return res ^ pol
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        unique = self._unique
        free = self._free
        lookups = hits = 0
        uniq_lookups = uniq_hits = 0
        results = []
        rpush = results.append
        rpop = results.pop
        tasks = [(0, f ^ pol, g)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, a, b = tpop()
            if tag == 0:
                if a < 2:
                    rpush(b ^ a)
                    continue
                if b < 2:
                    rpush(a ^ b)
                    continue
                # xor ignores polarity up to an output complement:
                # normalise both operands to regular edges.
                out = (a ^ b) & 1
                a &= -2
                b &= -2
                if a == b:
                    rpush(out)
                    continue
                if a > b:
                    a, b = b, a
                key = (a << 32) | b
                lookups += 1
                res = ct.get(key)
                if res is not None:
                    hits += 1
                    rpush(res ^ out)
                    continue
                ia = a >> 1
                ib = b >> 1
                la = _lev[ia]
                lb = _lev[ib]
                if la < lb:
                    lvl = la
                    a0 = _lo[ia]
                    a1 = _hi[ia]
                    b0 = b1 = b
                elif lb < la:
                    lvl = lb
                    a0 = a1 = a
                    b0 = _lo[ib]
                    b1 = _hi[ib]
                else:
                    lvl = la
                    a0 = _lo[ia]
                    a1 = _hi[ia]
                    b0 = _lo[ib]
                    b1 = _hi[ib]
                if out:
                    tpush((2, 0, 0))
                tpush((1, lvl, key))
                tpush((0, a1, b1))
                tpush((0, a0, b0))
            elif tag == 1:
                hi_e = rpop()
                lo_e = rpop()
                if lo_e == hi_e:
                    res = lo_e
                else:
                    out = lo_e & 1
                    if out:
                        lo_e ^= 1
                        hi_e ^= 1
                    table = unique[a]
                    ukey = (lo_e << 32) | hi_e
                    uniq_lookups += 1
                    node = table.get(ukey)
                    if node is None:
                        if free:
                            node = free.pop()
                            _lev[node] = a
                            _lo[node] = lo_e
                            _hi[node] = hi_e
                        else:
                            node = len(_lev)
                            _lev.append(a)
                            _lo.append(lo_e)
                            _hi.append(hi_e)
                        table[ukey] = node
                        live = len(_lev) - len(free)
                        if live > self._peak_live:
                            self._peak_live = live
                        if self._growth_hook is not None:
                            self._growth_countdown -= 1
                            if self._growth_countdown <= 0:
                                self._growth_countdown = \
                                    self._growth_interval
                                self._growth_hook(self)
                    else:
                        uniq_hits += 1
                    res = (node << 1) | out
                ct[b] = res
                rpush(res)
            else:
                # Output-complement marker pushed by the normalisation.
                results[-1] ^= 1
        self._ct_lookups += lookups
        self._ct_hits += hits
        self._uniq_lookups += uniq_lookups
        self._uniq_hits += uniq_hits
        if len(ct) > _CT_MAX:
            ct.clear()
        return results[0]

    def or_(self, f: Edge, g: Edge) -> Edge:
        """Disjunction ``f | g`` (De Morgan over the AND fast path)."""
        return self.and_(f ^ 1, g ^ 1) ^ 1

    def xnor(self, f: Edge, g: Edge) -> Edge:
        """Equivalence ``~(f ^ g)``."""
        return self.xor(f, g) ^ 1

    def nand(self, f: Edge, g: Edge) -> Edge:
        """``~(f & g)``."""
        return self.and_(f, g) ^ 1

    def nor(self, f: Edge, g: Edge) -> Edge:
        """``~(f | g)``."""
        return self.and_(f ^ 1, g ^ 1)

    def diff(self, f: Edge, g: Edge) -> Edge:
        """Boolean difference (SHARP): ``f & ~g``."""
        return self.and_(f, g ^ 1)

    def implies(self, f: Edge, g: Edge) -> Edge:
        """Implication ``~f | g``."""
        return self.and_(f, g ^ 1) ^ 1

    def ite(self, f: Edge, g: Edge, h: Edge) -> Edge:
        """If-then-else operator: ``(f & g) | (~f & h)``."""
        if f < 2:
            return g if f else h
        if g == h:
            return g
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        unique = self._unique
        free = self._free
        ct = self._ct_ite
        lookups = hits = 0
        uniq_lookups = uniq_hits = 0
        results = []
        rpush = results.append
        rpop = results.pop
        tasks = [(0, f, g, h)]
        tpush = tasks.append
        tpop = tasks.pop
        while tasks:
            tag, a, b, c = tpop()
            if tag == 0:
                if a < 2:
                    rpush(b if a else c)
                    continue
                if b == c:
                    rpush(b)
                    continue
                # Fold selector-equal branches to constants.
                if b == a:
                    b = 1
                elif b == a ^ 1:
                    b = 0
                if c == a:
                    c = 0
                elif c == a ^ 1:
                    c = 1
                if b == 1 and c == 0:
                    rpush(a)
                    continue
                if b == 0 and c == 1:
                    rpush(a ^ 1)
                    continue
                # Route two-operand shapes through the binary caches.
                if c == 0:
                    rpush(self.and_(a, b))
                elif c == 1:
                    rpush(self.and_(a, b ^ 1) ^ 1)
                elif b == 0:
                    rpush(self.and_(a ^ 1, c))
                elif b == 1:
                    rpush(self.and_(a ^ 1, c ^ 1) ^ 1)
                elif b == c ^ 1:
                    rpush(self.xor(a, c))
                else:
                    # First-operand and output-complement normalisation.
                    if a & 1:
                        a ^= 1
                        b, c = c, b
                    out = b & 1
                    if out:
                        b ^= 1
                        c ^= 1
                    key = ((a << 32 | b) << 32) | c
                    lookups += 1
                    res = ct.get(key)
                    if res is not None:
                        hits += 1
                        rpush(res ^ out)
                        continue
                    ia = a >> 1
                    ib = b >> 1
                    ic = c >> 1
                    la = _lev[ia]
                    lvl = _lev[ib]
                    if la < lvl:
                        lvl = la
                    lc = _lev[ic]
                    if lc < lvl:
                        lvl = lc
                    if la == lvl:
                        ca = a & 1
                        a0 = _lo[ia] ^ ca
                        a1 = _hi[ia] ^ ca
                    else:
                        a0 = a1 = a
                    if _lev[ib] == lvl:
                        a2 = _lo[ib]
                        a3 = _hi[ib]
                    else:
                        a2 = a3 = b
                    if lc == lvl:
                        cc = c & 1
                        c0 = _lo[ic] ^ cc
                        c1 = _hi[ic] ^ cc
                    else:
                        c0 = c1 = c
                    if out:
                        tpush((2, 0, 0, 0))
                    tpush((1, lvl, key, 0))
                    tpush((0, a1, a3, c1))
                    tpush((0, a0, a2, c0))
            elif tag == 1:
                hi_e = rpop()
                lo_e = rpop()
                if lo_e == hi_e:
                    res = lo_e
                else:
                    out = lo_e & 1
                    if out:
                        lo_e ^= 1
                        hi_e ^= 1
                    table = unique[a]
                    ukey = (lo_e << 32) | hi_e
                    uniq_lookups += 1
                    node = table.get(ukey)
                    if node is None:
                        if free:
                            node = free.pop()
                            _lev[node] = a
                            _lo[node] = lo_e
                            _hi[node] = hi_e
                        else:
                            node = len(_lev)
                            _lev.append(a)
                            _lo.append(lo_e)
                            _hi.append(hi_e)
                        table[ukey] = node
                        live = len(_lev) - len(free)
                        if live > self._peak_live:
                            self._peak_live = live
                        if self._growth_hook is not None:
                            self._growth_countdown -= 1
                            if self._growth_countdown <= 0:
                                self._growth_countdown = \
                                    self._growth_interval
                                self._growth_hook(self)
                    else:
                        uniq_hits += 1
                    res = (node << 1) | out
                ct[b] = res
                rpush(res)
            else:
                results[-1] ^= 1
        self._ct_lookups += lookups
        self._ct_hits += hits
        self._uniq_lookups += uniq_lookups
        self._uniq_hits += uniq_hits
        if len(ct) > _CT_MAX:
            ct.clear()
        return results[0]

    def _cofactors_at(self, edge: Edge, level: Level):
        """Cofactors of *edge* with respect to the variable at *level*."""
        if self._level[edge >> 1] == level:
            c = edge & 1
            return self._lo[edge >> 1] ^ c, self._hi[edge >> 1] ^ c
        return edge, edge

    def cache_stats(self):
        """Unique/computed-table hit-rate and peak-live-node counters."""
        return {
            "unique_lookups": self._uniq_lookups,
            "unique_hits": self._uniq_hits,
            "computed_lookups": self._ct_lookups,
            "computed_hits": self._ct_hits,
            "cache_hit_rate": (self._ct_hits / self._ct_lookups
                               if self._ct_lookups else 0.0),
            "unique_hit_rate": (self._uniq_hits / self._uniq_lookups
                                if self._uniq_lookups else 0.0),
            "computed_slots": (len(self._ct_and) + len(self._ct_xor)
                               + len(self._ct_ite)),
            "peak_live_nodes": self._peak_live,
            "quantify_calls": self._q_exists_calls,
            "and_exists_calls": self._q_and_exists_calls,
            "quantify_steps": self._q_steps,
        }

    # ------------------------------------------------------------------
    # Cofactors, restriction, composition
    # ------------------------------------------------------------------
    def cofactor(self, f: Edge, var, value) -> Edge:
        """Restrict variable *var* to the constant *value* (0 or 1) in *f*."""
        level = self._var_to_level[self.var_index(var)]
        return self._restrict_level(f, level, 1 if value else 0)

    def _restrict_level(self, f: Edge, level: Level, value) -> Edge:
        """Iterative one-level restriction with a per-call memo."""
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        memo = {}
        results = []
        tasks = [(0, f)]
        while tasks:
            tag, e = tasks.pop()
            if tag == 0:
                out = e & 1
                reg = e ^ out
                idx = reg >> 1
                node_level = _lev[idx]
                if node_level > level:
                    results.append(e)
                    continue
                cached = memo.get(reg)
                if cached is not None:
                    results.append(cached ^ out)
                    continue
                if node_level == level:
                    res = _hi[idx] if value else _lo[idx]
                    memo[reg] = res
                    results.append(res ^ out)
                    continue
                if out:
                    tasks.append((2, 0))
                tasks.append((1, reg))
                tasks.append((0, _hi[idx]))
                tasks.append((0, _lo[idx]))
            elif tag == 1:
                hi_e = results.pop()
                lo_e = results.pop()
                res = self._mk(_lev[e >> 1], lo_e, hi_e)
                memo[e] = res
                results.append(res)
            else:
                results[-1] ^= 1
        return results[0]

    def restrict(self, f: Edge, assignment) -> Edge:
        """Restrict several variables at once.

        *assignment* maps variable names/indices to 0/1 values.
        """
        for var, value in assignment.items():
            f = self.cofactor(f, var, value)
        return f

    def compose(self, f: Edge, var, g: Edge) -> Edge:
        """Substitute function *g* for variable *var* in *f*."""
        level = self._var_to_level[self.var_index(var)]
        return self._compose_rec(f, level, g, {})

    def _compose_rec(self, f: Edge, level: Level, g: Edge, memo) -> Edge:
        node_level = self._level[f >> 1]
        if node_level > level:
            return f
        out = f & 1
        f ^= out
        cached = memo.get(f)
        if cached is not None:
            return cached ^ out
        if node_level == level:
            result = self.ite(g, self._hi[f >> 1], self._lo[f >> 1])
        else:
            lo = self._compose_rec(self._lo[f >> 1], level, g, memo)
            hi = self._compose_rec(self._hi[f >> 1], level, g, memo)
            var = self._level_to_var[node_level]
            # The substituted g may depend on variables ordered above
            # this node, so the recombination must go through ite.
            result = self.ite(self.var(var), hi, lo)
        memo[f] = result
        return result ^ out

    def rename(self, f: Edge, mapping) -> Edge:
        """Rename variables of *f* according to ``{old: new}`` *mapping*.

        The substituted variables must not overlap in a way that makes the
        result order-dependent; composition is applied bottom-up one
        variable at a time, which is safe when old and new variable sets
        are disjoint (the only use in this package).
        """
        pairs = [(self.var_index(old), self.var_index(new))
                 for old, new in mapping.items()]
        old_vars = {old for old, _ in pairs}
        new_vars = {new for _, new in pairs}
        if old_vars & new_vars:
            raise BDDError("rename requires disjoint old/new variable sets")
        for old, new in pairs:
            f = self.compose(f, old, self.var(new))
        return f

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def support_levels(self, f: Edge):
        """Frozenset of levels on which *f* structurally depends."""
        f &= -2
        if not f:
            return frozenset()
        cache = self._cache_support
        cached = cache.get(f)
        if cached is not None:
            return cached
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        empty = frozenset()
        stack = [f]
        while stack:
            e = stack[-1]
            if e in cache:
                stack.pop()
                continue
            idx = e >> 1
            lo = _lo[idx] & -2
            hi = _hi[idx] & -2
            ready = True
            if lo and lo not in cache:
                stack.append(lo)
                ready = False
            if hi and hi not in cache:
                stack.append(hi)
                ready = False
            if not ready:
                continue
            stack.pop()
            cache[e] = (cache.get(lo, empty) | cache.get(hi, empty)
                        | frozenset((_lev[idx],)))
        return cache[f]

    def support(self, f: Edge):
        """Sorted tuple of variable *indices* in the support of *f*."""
        return tuple(sorted(self._level_to_var[level]
                            for level in self.support_levels(f)))

    def support_names(self, f: Edge):
        """Sorted tuple of variable *names* in the support of *f*."""
        return tuple(self._var_names[v] for v in self.support(f))

    def node_count(self, f: Edge) -> int:
        """Number of distinct functions (edges) in the DAG rooted at *f*.

        Counts complement-resolved edges, i.e. distinct subfunctions
        including the reachable constants — exactly the node count the
        pre-complement core reported, so size-based reports are
        unchanged by the edge encoding.
        """
        _lev = self._level
        _lo = self._lo
        _hi = self._hi
        seen = {f}
        add = seen.add
        stack = [f]
        push = stack.append
        while stack:
            e = stack.pop()
            idx = e >> 1
            if _lev[idx] != TERMINAL_LEVEL:
                c = e & 1
                lo = _lo[idx] ^ c
                if lo not in seen:
                    add(lo)
                    push(lo)
                hi = _hi[idx] ^ c
                if hi not in seen:
                    add(hi)
                    push(hi)
        return len(seen)

    def eval(self, f: Edge, assignment) -> bool:
        """Evaluate *f* under a complete 0/1 *assignment* (name/index keyed)."""
        values = {}
        for var, value in assignment.items():
            values[self._var_to_level[self.var_index(var)]] = 1 if value else 0
        idx = f >> 1
        parity = f & 1
        while self._level[idx] != TERMINAL_LEVEL:
            level = self._level[idx]
            if level not in values:
                raise BDDError("assignment misses variable %r"
                               % self._var_names[self._level_to_var[level]])
            edge = self._hi[idx] if values[level] else self._lo[idx]
            parity ^= edge & 1
            idx = edge >> 1
        return parity == 1

    # ------------------------------------------------------------------
    # Garbage collection (explicit, BuDDy-style ref counting)
    # ------------------------------------------------------------------
    def ref(self, edge: Edge) -> Edge:
        """Protect *edge* (and its cone) from garbage collection."""
        idx = edge >> 1
        if idx:
            self._refs[idx] = self._refs.get(idx, 0) + 1
        return edge

    def deref(self, edge: Edge) -> Edge:
        """Release one external reference taken with :meth:`ref`."""
        idx = edge >> 1
        if not idx:
            return edge
        count = self._refs.get(idx, 0)
        if count <= 0:
            raise BDDError("deref of unreferenced node %d" % edge)
        if count == 1:
            del self._refs[idx]
        else:
            self._refs[idx] = count - 1
        return edge

    def ref_count(self, edge: Edge) -> int:
        """Current external reference count of *edge*'s node."""
        return self._refs.get(edge >> 1, 0)

    def collect(self, extra_roots=()):
        """Mark-and-sweep garbage collection.

        Keeps everything reachable from ref'd nodes and *extra_roots*;
        every other internal node's slot is recycled (its index may be
        reused by future ``_mk`` calls).  All computed tables are
        invalidated — they may reference dead nodes.

        Returns the number of freed slots.
        """
        live = set()
        stack = list(self._refs)
        stack.extend(edge >> 1 for edge in extra_roots)
        while stack:
            idx = stack.pop()
            if idx in live or not idx:
                continue
            live.add(idx)
            stack.append(self._lo[idx] >> 1)
            stack.append(self._hi[idx] >> 1)
        freed = 0
        already_free = set(self._free)
        for idx in range(1, len(self._level)):
            if idx in live or idx in already_free:
                continue
            key = (self._lo[idx] << 32) | self._hi[idx]
            table = self._unique[self._level[idx]]
            if table.get(key) == idx:
                del table[key]
            self._level[idx] = TERMINAL_LEVEL
            self._lo[idx] = FALSE
            self._hi[idx] = FALSE
            self._free.append(idx)
            freed += 1
        self.clear_caches()
        return freed

    def live_count(self):
        """Number of allocated (non-recycled) node slots."""
        return len(self._level) - len(self._free)

    # ------------------------------------------------------------------
    # Cache maintenance (used by reordering)
    # ------------------------------------------------------------------
    def clear_caches(self):
        """Invalidate all computed tables (required after in-place
        reordering or garbage collection; ``swap_levels`` and
        :meth:`collect` are its only callers).

        Drops the per-operator computed tables and every dict or
        :data:`native.Table` cache: ``_cache_support`` (keyed on packed
        edges whose levels go stale on reordering) and the dynamic
        caches attached lazily by the quantification and cube-count
        modules and :class:`repro.decomp.context.CheckContext` (any
        attribute named ``_cache_*``, the exists memo included).
        """
        self._ct_and.clear()
        self._ct_xor.clear()
        self._ct_ite.clear()
        tables = (dict, native.Table)
        for name, value in vars(self).items():
            if name.startswith("_cache_") and isinstance(value, tables):
                value.clear()
