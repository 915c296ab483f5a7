"""Disk persistence for the Theorem 6 component cache.

The paper's Section 6 "lossless hash table" of reusable components dies
with the session: the 13-39 % in-run hit rates measured on the MCNC set
are thrown away between runs.  This module makes the cache survive:

* :func:`serialize_cache` turns a live :class:`ComponentCache` into a
  versioned JSON document.  Each entry stores the *names* of the
  component's support variables, a canonical irredundant SOP cover of
  the CSF (the Minato-Morreale ISOP cube list), and the gate count of
  the cone the decomposition originally emitted.  Nothing references a
  BDD manager or netlist node id, so a store can be rehydrated into a
  completely fresh session — even one whose manager orders (or created)
  the variables differently.
* :class:`PersistentComponentCache` is a drop-in
  :class:`~repro.decomp.cache.ComponentCache` seeded with *dormant*
  stored entries.  Lookups consult the live cache first; on a miss, a
  dormant entry with the exact matching support is rebuilt from its
  cubes and tested with Theorem 6's two containment checks.  A hit
  emits the cover as an SOP cone into the shared netlist and promotes
  the entry into the live cache.  Both the BDD rebuild and the cone
  emission happen lazily on first use, so rehydration never pays for
  entries a run does not touch.

A rehydrated hit flows through the same ``on_hit`` sanitizer seam as an
in-run hit, so checked mode (``repro.analysis.contracts``) re-verifies
the Theorem 6 containment *and* that the emitted cone implements the
stored CSF — corrupt covers cannot sneak into a netlist silently.

Stores are forward-compatible within a version: unknown document or
entry keys are ignored, a newer :data:`CACHE_VERSION` is rejected as
unusable (the session skips the file with a warning event rather than
crashing), and malformed entries are skipped individually.
"""

import json
import os
import tempfile

from repro.bdd.function import Function
from repro.bdd.node import FALSE
from repro.decomp.cache import ComponentCache
from repro.network import gates as G

#: Magic identifying a component-cache file.
CACHE_FORMAT = "repro-component-cache"

#: Highest store version this build reads and the one it writes.
CACHE_VERSION = 1


class CacheStoreError(Exception):
    """Raised when a cache store file or entry cannot be used."""


class StoredComponent:
    """One serialised cache entry, independent of any BDD manager.

    Parameters
    ----------
    support:
        Sorted tuple of variable *names* the component depends on.
    cubes:
        Iterable of ``{variable_name: 0/1}`` product terms whose
        disjunction is the component's CSF (a canonical ISOP cover).
    gates:
        Gate count of the cone originally emitted for the component
        (informational: lets reports compare the stored cone's cost
        against the SOP cone a rehydrated hit emits).
    """

    __slots__ = ("support", "cubes", "gates")

    def __init__(self, support, cubes, gates=0):
        self.support = tuple(support)
        self.cubes = tuple(dict(cube) for cube in cubes)
        self.gates = int(gates)

    def key(self):
        """Canonical identity for deduplication across store merges."""
        cubes = tuple(sorted(tuple(sorted(cube.items()))
                             for cube in self.cubes))
        return (self.support, cubes)

    def as_dict(self):
        """JSON-able form (cube literal order canonicalised)."""
        return {
            "support": list(self.support),
            "cubes": [{name: cube[name] for name in sorted(cube)}
                      for cube in self.cubes],
            "gates": self.gates,
        }

    @classmethod
    def from_dict(cls, data):
        """Validate and rebuild one entry; raises :class:`CacheStoreError`."""
        if not isinstance(data, dict):
            raise CacheStoreError("entry is not an object: %r" % (data,))
        support = data.get("support")
        cubes = data.get("cubes")
        gates = data.get("gates", 0)
        if (not isinstance(support, list) or not support
                or not all(isinstance(name, str) for name in support)):
            raise CacheStoreError("bad support list: %r" % (support,))
        if not isinstance(cubes, list):
            raise CacheStoreError("bad cube list: %r" % (cubes,))
        known = set(support)
        for cube in cubes:
            if not isinstance(cube, dict) or not cube:
                raise CacheStoreError("bad cube: %r" % (cube,))
            for name, value in cube.items():
                # bool is an int subclass (True == 1, True in (0, 1)),
                # so reject it explicitly: a store carrying JSON
                # true/false would otherwise round-trip non-canonically
                # and break the entry-key dedup across merges.
                if (name not in known or isinstance(value, bool)
                        or value not in (0, 1)):
                    raise CacheStoreError(
                        "cube literal %r=%r outside the declared support"
                        % (name, value))
        if (not isinstance(gates, int) or isinstance(gates, bool)
                or gates < 0):
            raise CacheStoreError("bad gate count: %r" % (gates,))
        return cls(sorted(support), cubes, gates)

    def rehydrate(self, mgr):
        """Rebuild this entry's CSF as a BDD on *mgr*.

        Returns a :class:`~repro.bdd.function.Function`, or None when
        *mgr* does not know every support variable (the entry simply
        cannot apply there).  The rebuild is order-independent: cube
        literals are resolved by name, so a permuted variable order in
        the fresh manager yields the bit-exact same function.
        """
        known = set(mgr.var_names)
        if not set(self.support) <= known:
            return None
        node = FALSE
        for cube in self.cubes:
            term = mgr.true
            # Deepest level first keeps the AND chain linear-time.
            for name in sorted(cube, key=mgr.level_of_var, reverse=True):
                literal = mgr.var(name) if cube[name] else mgr.nvar(name)
                term = mgr.and_(literal, term)
            node = mgr.or_(node, term)
        return Function(mgr, node)

    def emit_cone(self, netlist, var_nodes, mgr):
        """Emit the cover as an SOP cone of two-input gates.

        *var_nodes* maps manager variable index to netlist input node.
        Returns the cone's root node id.  Deterministic: cubes in
        stored order, literals in name order.
        """
        terms = []
        for cube in self.cubes:
            term = None
            for name in sorted(cube):
                literal = var_nodes[mgr.var_index(name)]
                if not cube[name]:
                    literal = netlist.add_not(literal)
                term = literal if term is None else netlist.add_and(term,
                                                                    literal)
            if term is None:  # literal-free cube: the cover is a tautology
                return netlist.constant(1)
            terms.append(term)
        if not terms:
            return netlist.constant(0)
        result = terms[0]
        for term in terms[1:]:
            result = netlist.add_or(result, term)
        return result

    def __repr__(self):
        return "StoredComponent(support=%s, cubes=%d, gates=%d)" % (
            ",".join(self.support), len(self.cubes), self.gates)


def cone_gate_count(netlist, node):
    """Number of logic nodes (gates and inverters) in *node*'s cone."""
    seen = set()
    stack = [node]
    count = 0
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if netlist.types[current] in (G.INPUT, G.CONST0, G.CONST1):
            continue
        count += 1
        stack.extend(netlist.fanins[current])
    return count


def store_component(csf, node, mgr, netlist):
    """Serialise one live cache entry, or None when it is not storable.

    Constant components are skipped (they cost nothing to re-derive and
    have no support to hash them by).
    """
    support = csf.support()
    if not support:
        return None
    _cover, cubes = csf.isop()
    named_cubes = [{mgr.var_name(var): value
                    for var, value in cube.literals.items()}
                   for cube in cubes]
    return StoredComponent([mgr.var_name(var) for var in support],
                           named_cubes,
                           gates=cone_gate_count(netlist, node))


def serialize_cache(cache, mgr, netlist, label=None):
    """Serialise *cache* as a versioned store document.

    Live entries are written from their current CSFs (ISOP covers, cone
    gate counts); dormant entries a :class:`PersistentComponentCache`
    never promoted are carried over verbatim, so flushing after a run
    that only touched part of the store loses nothing.  Duplicates
    (same support and canonical cover) are written once, live entries
    winning.
    """
    entries = []
    seen = set()
    for csf, node in cache.entries():
        stored = store_component(csf, node, mgr, netlist)
        if stored is None:
            continue
        key = stored.key()
        if key in seen:
            continue
        seen.add(key)
        entries.append(stored)
    for stored in getattr(cache, "dormant_entries", lambda: ())():
        key = stored.key()
        if key in seen:
            continue
        seen.add(key)
        entries.append(stored)
    doc = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "entries": [entry.as_dict() for entry in entries],
    }
    if label is not None:
        doc["label"] = label
    return doc


def save_store(path, doc):
    """Write a store document as canonical JSON; returns *path*.

    The write is atomic: the document goes to a temporary file in the
    same directory and is moved over *path* with :func:`os.replace`, so
    a reader (or a concurrent writer) can never observe a truncated or
    half-written store.  Concurrent writers therefore race at whole-file
    granularity: the last writer wins the file and the earlier flush is
    lost — callers that need a union of concurrent flushes must write to
    distinct paths and combine them with :func:`merge_stores` (this is
    exactly what the parallel batch executor does with its per-worker
    store files).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def parse_store(doc, origin="<store>"):
    """Validate a store document; returns ``(entries, skipped)``.

    Raises :class:`CacheStoreError` when the document as a whole is
    unusable (not a dict, wrong magic, newer version, no entry list).
    Individually malformed entries are skipped and counted instead of
    failing the parse — one bad entry must not discard the rest.
    *origin* names the document in error messages (a path, usually).
    """
    if not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT:
        raise CacheStoreError("not a component-cache file: %s" % origin)
    version = doc.get("version")
    if not isinstance(version, int) or not 1 <= version <= CACHE_VERSION:
        raise CacheStoreError(
            "unsupported cache version %r in %s (this build reads 1..%d)"
            % (version, origin, CACHE_VERSION))
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise CacheStoreError("cache file has no entry list: %s" % origin)
    entries = []
    skipped = 0
    for item in raw:
        try:
            entries.append(StoredComponent.from_dict(item))
        except CacheStoreError:
            skipped += 1
    return entries, skipped


def load_store(path):
    """Parse a store file; returns ``(entries, skipped)``.

    Raises :class:`CacheStoreError` when the file as a whole is
    unusable (unreadable, not JSON, or :func:`parse_store` rejects it).
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CacheStoreError("unreadable cache file: %s" % exc)
    except ValueError as exc:
        raise CacheStoreError("corrupt cache file %s: %s" % (path, exc))
    return parse_store(doc, origin=path)


def make_store(entries, label=None):
    """Wrap :class:`StoredComponent` objects in a fresh store document."""
    doc = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "entries": [entry.as_dict() for entry in entries],
    }
    if label is not None:
        doc["label"] = label
    return doc


def merge_entries(a, b):
    """Union two :class:`StoredComponent` lists, deduplicated by key.

    Order is deterministic: *a*'s entries first, then *b*'s new ones.
    When both lists carry the same ``(support, canonical cover)`` key,
    the entry with the smaller recorded cone (fewest ``gates``) wins —
    the gate count is the only field that can differ, and reports use
    it to compare a rehydrated SOP cone against the original emission.
    """
    merged = {}
    order = []
    for entry in list(a) + list(b):
        key = entry.key()
        if key not in merged:
            merged[key] = entry
            order.append(key)
        elif entry.gates < merged[key].gates:
            merged[key] = entry
    return [merged[key] for key in order]


def merge_stores(a, b, label=None):
    """Union two store *documents* into a new document.

    Both documents must be valid stores (:func:`parse_store` rules;
    malformed individual entries are dropped).  Duplicate entries are
    resolved by :func:`merge_entries` — same key keeps the smaller
    cone.  This is the complement of :func:`save_store`'s whole-file
    last-writer-wins semantics: concurrent flushes that went to
    distinct paths are combined here without losing either side.
    """
    entries_a, _skipped = parse_store(a, origin="merge lhs")
    entries_b, _skipped = parse_store(b, origin="merge rhs")
    if label is None:
        label = a.get("label", b.get("label"))
    return make_store(merge_entries(entries_a, entries_b), label=label)


class _DormantEntry:
    """Per-cache holder for one stored entry's lazily built state.

    The rebuilt Function is memoised here (not on the shared
    :class:`StoredComponent`) because one store can seed several caches
    bound to different managers.
    """

    __slots__ = ("stored", "fn", "dead")

    def __init__(self, stored):
        self.stored = stored
        self.fn = None
        self.dead = False


class PersistentComponentCache(ComponentCache):
    """Component cache seeded with dormant disk entries (Theorem 6,
    cross-run).

    Lookups search the live cache first, then dormant entries whose
    stored support names exactly match the queried support.  A dormant
    match is verified with the same two containment tests as an in-run
    hit (direct and complemented), its cover is emitted into the bound
    netlist as an SOP cone, and the entry is promoted into the live
    cache — all lazily, on first use.

    :meth:`bind` must attach the session's manager, netlist and
    variable-node map before dormant entries can fire; until then the
    cache behaves exactly like a plain :class:`ComponentCache`.
    """

    def __init__(self, stored=(), on_hit=None):
        super().__init__(on_hit=on_hit)
        self.rehydrated_hits = 0
        self.rehydrated_complement_hits = 0
        self.rehydrated_entries = 0
        self._dormant = {}
        self._mgr = None
        self._netlist = None
        self._var_nodes = None
        for item in stored:
            bucket = self._dormant.setdefault(frozenset(item.support), [])
            bucket.append(_DormantEntry(item))

    def bind(self, mgr, netlist, var_nodes):
        """Attach the manager/netlist rehydrated hits emit into.

        *var_nodes* maps manager variable index to netlist input node.
        """
        self._mgr = mgr
        self._netlist = netlist
        self._var_nodes = var_nodes

    def dormant_count(self):
        """Stored entries not yet promoted into the live cache."""
        return sum(len(bucket) for bucket in self._dormant.values())

    def dormant_entries(self):
        """Iterate the never-promoted :class:`StoredComponent` objects
        (a flush carries them over to the next store verbatim)."""
        for bucket in self._dormant.values():
            for entry in bucket:
                yield entry.stored

    def lookup(self, isf, support):
        hit = super().lookup(isf, support)
        if hit is not None:
            return hit
        if not self._dormant or self._mgr is None:
            return None
        mgr = isf.mgr
        if mgr is not self._mgr:
            return None
        names = frozenset(mgr.var_name(var) for var in support)
        bucket = self._dormant.get(names)
        if not bucket:
            return None
        q, r = isf.on.node, isf.off.node
        false = mgr.false
        for entry in bucket:
            csf = self._rehydrate(entry, mgr)
            if csf is None:
                continue
            f = csf.node
            # Theorem 6 on the rebuilt cover: f compatible iff
            # Q & ~f == 0 and R & f == 0; ~f compatible iff the
            # mirrored pair holds.
            direct = (mgr.diff(q, f) == false
                      and mgr.and_(r, f) == false)
            complement = (not direct
                          and mgr.and_(q, f) == false
                          and mgr.diff(r, f) == false)
            if not direct and not complement:
                continue
            node = self._promote(entry, csf, bucket)
            self.hits += 1
            self.rehydrated_hits += 1
            if direct:
                if self.on_hit is not None:
                    self.on_hit(isf, csf, node, False)
                return csf, node, False
            self.complement_hits += 1
            self.rehydrated_complement_hits += 1
            complemented = ~csf
            if self.on_hit is not None:
                self.on_hit(isf, complemented, node, True)
            return complemented, node, True
        return None

    def _rehydrate(self, entry, mgr):
        """Memoised cube-list -> BDD rebuild for one dormant entry."""
        if entry.dead:
            return None
        if entry.fn is None:
            fn = entry.stored.rehydrate(mgr)
            if fn is None:
                entry.dead = True
                return None
            entry.fn = fn
        return entry.fn

    def _promote(self, entry, csf, bucket):
        """Emit the cover's cone and move the entry into the live cache."""
        node = entry.stored.emit_cone(self._netlist, self._var_nodes,
                                      self._mgr)
        self.insert(csf, node)
        self.rehydrated_entries += 1
        bucket.remove(entry)
        return node

    def stats(self):
        data = super().stats()
        data["rehydrated_hits"] = self.rehydrated_hits
        data["rehydrated_complement_hits"] = self.rehydrated_complement_hits
        data["rehydrated_entries"] = self.rehydrated_entries
        data["dormant"] = self.dormant_count()
        return data
