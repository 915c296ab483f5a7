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
  the variables differently.  The cover is written and rebuilt by the
  certificate's codec (:func:`repro.io.cert.named_cover` /
  :func:`~repro.io.cert.rebuild_cover`): a stored component and a
  certified step's ``f`` are the same name-keyed cover.
* :func:`open_store` and :func:`commit_store` are the one protocol a
  run uses to share the store: the opener reads the file once, before
  any session starts, and every session is seeded from those parsed
  entries (a session never opens or writes the file).  After the run
  the committer re-reads the file, unions it with each input's live
  entries in dispatch order (:func:`merge_entries`) and writes it once.
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

Reading, the envelope check and the atomic canonical write are
:mod:`repro.io.jsonfile`'s, shared with certificates and the repolint
baseline: unknown document or entry keys are ignored, a newer (or
non-integer) :data:`CACHE_VERSION` is rejected as unusable (the run
starts cold with a warning event rather than crashing).  Only the
entry list is this module's to check, and malformed entries are
skipped individually.
"""

import os

from repro.decomp.cache import ComponentCache, theorem6_match
from repro.io.cert import named_cover, rebuild_cover
from repro.io.jsonfile import check_envelope, load_json, save_json
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
                or not all(isinstance(name, str) for name in support)
                or len(set(support)) != len(support)):
            # A repeated name would key as ("a", "a") and never dedup
            # against the canonical ("a",).
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
        if not set(self.support) <= set(mgr.var_names):
            return None
        return rebuild_cover(mgr, self.cubes)

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
    return StoredComponent([mgr.var_name(var) for var in support],
                           named_cover(csf),
                           gates=cone_gate_count(netlist, node))


def serialize_cache(cache, mgr, netlist, label=None):
    """Serialise *cache*'s live entries as a versioned store document.

    Entries are written from their current CSFs (ISOP covers, cone
    gate counts); duplicates (same support and canonical cover) are
    written once, the first one winning.
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
    return make_store(entries, label=label)


def save_store(path, doc):
    """Write a store document as canonical JSON; returns *path*.

    The write is atomic (:func:`repro.io.jsonfile.save_json`): a reader
    never observes a truncated store, and concurrent writers race at
    whole-file granularity.  :func:`commit_store` narrows that race to
    the moment between its re-read and its write.
    """
    return save_json(path, doc)


def parse_store(doc, origin="<store>"):
    """Validate a store document; returns ``(entries, skipped)``.

    Raises :class:`CacheStoreError` when the document as a whole is
    unusable (not a dict, wrong magic, newer version, no entry list).
    Individually malformed entries are skipped and counted instead of
    failing the parse — one bad entry must not discard the rest.
    *origin* names the document in error messages (a path, usually).
    """
    check_envelope(doc, CACHE_FORMAT, CACHE_VERSION, CacheStoreError,
                   "component-cache file", origin)
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise CacheStoreError("cache file has no entry list: %s" % origin)
    return _parse_entries(raw)


def _parse_entries(raw):
    """Rebuild a list of store-format entry dicts; returns
    ``(entries, skipped)``.

    Malformed entries are skipped and counted.  Parsing canonicalises
    every entry (sorted support), which is what makes keys from
    different managers comparable.
    """
    entries = []
    skipped = 0
    for item in raw:
        try:
            entries.append(StoredComponent.from_dict(item))
        except CacheStoreError:
            skipped += 1
    return entries, skipped


def load_store(path, with_label=False):
    """Parse a store file; returns ``(entries, skipped)``, and with
    *with_label* ``(entries, skipped, label)`` (None when unlabelled).

    Raises :class:`CacheStoreError` when the file as a whole is
    unusable (unreadable, not JSON, or :func:`parse_store` rejects it).
    """
    doc = load_json(path, CacheStoreError, "component-cache file")
    entries, skipped = parse_store(doc, origin=path)
    if with_label:
        return entries, skipped, doc.get("label")
    return entries, skipped


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


def merge_entries(*lists):
    """Union :class:`StoredComponent` lists, deduplicated by key.

    Order is deterministic: the first list's entries first, then each
    later list's new ones.  When two lists carry the same
    ``(support, canonical cover)`` key, the entry with the smaller
    recorded cone (fewest ``gates``) wins — the gate count is the only
    field that can differ, and reports use it to compare a rehydrated
    SOP cone against the original emission.
    """
    merged = {}
    order = []
    for entry in (entry for entries in lists for entry in entries):
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
    cone.
    """
    entries_a, _skipped = parse_store(a, origin="merge lhs")
    entries_b, _skipped = parse_store(b, origin="merge rhs")
    if label is None:
        label = a.get("label", b.get("label"))
    return make_store(merge_entries(entries_a, entries_b), label=label)


def _read_store(path, events, preserve):
    """``(entries, skipped, label)`` of the file at *path*, or None.

    None means there is nothing to read: the file is missing (a normal
    cold start, no event) or unusable.  An unusable file publishes
    ``component_cache_load_failed`` on *events*; with *preserve* it is
    first renamed to ``<path>.corrupt``, bytes intact, so the write
    that follows cannot destroy it.
    """
    if not os.path.exists(path):
        return None
    try:
        return load_store(path, with_label=True)
    except CacheStoreError as exc:
        preserved = None
        if preserve:
            preserved = path + ".corrupt"
            try:
                os.replace(path, preserved)
            except OSError:
                preserved = None
        if events is not None:
            events.publish("component_cache_load_failed", path=path,
                           error=str(exc), preserved=preserved)
        return None


def open_store(path, events=None, readonly=False):
    """Read the store once, before a run's sessions start.

    Returns the parsed :class:`StoredComponent` list every session of
    the run is seeded from (``[]`` for a missing or unusable file) and
    publishes ``component_cache_loaded`` on success.  A corrupt file is
    renamed to ``<path>.corrupt`` (unless *readonly*: a read-only run
    leaves the cache directory alone) and reported with
    ``component_cache_load_failed``; the run proceeds cold.
    """
    loaded = _read_store(path, events, preserve=not readonly)
    if loaded is None:
        return []
    entries, skipped, _label = loaded
    if events is not None:
        events.publish("component_cache_loaded", path=path,
                       entries=len(entries), skipped=skipped)
    return entries


def commit_store(path, contributions, label=None, events=None):
    """Merge a run's contributions into the store and write it once.

    *contributions* holds one list of store-format entry dicts per
    input, in dispatch order (each session's live entries, see
    ``Session.component_entries``).  The file is re-read first, so
    entries another writer added during the run survive; the result is
    ``merge_entries(original, *contributions)``.  A *label* of None
    keeps the label already on disk (a command without ``--model``
    must not rename the store).  Publishes ``component_cache_merged``
    and returns ``(path, entry_count)``, or ``(None, 0)`` when there
    was no store and nothing to add.
    """
    loaded = _read_store(path, events, preserve=True)
    original, _skipped, on_disk = loaded or ([], 0, None)
    parsed = [_parse_entries(items)[0] for items in contributions]
    if loaded is None and not any(parsed):
        return None, 0
    entries = merge_entries(original, *parsed)
    save_store(path, make_store(entries,
                                label=on_disk if label is None else label))
    if events is not None:
        events.publish("component_cache_merged", path=path,
                       entries=len(entries), inputs=len(parsed))
    return path, len(entries)


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
        for entry in bucket:
            csf = self._rehydrate(entry, mgr)
            if csf is None:
                continue
            complemented = theorem6_match(mgr, q, r, csf.node)
            if complemented is None:
                continue
            node = self._promote(entry, csf, bucket)
            self.rehydrated_hits += 1
            if complemented:
                self.rehydrated_complement_hits += 1
            return self._hit(isf, csf, node, complemented)
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
