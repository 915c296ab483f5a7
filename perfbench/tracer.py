"""In-memory span tracer that wraps each layer's entry points from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public entry points of every layer with timing wrappers —
*where they are looked up*, not only where they are defined, because
``repro.decomp.bidecomp``, ``grouping``, ``weak`` and ``exor`` import
their callees by name — and :meth:`Tracer.uninstall` puts the originals
back.

Two kinds of wrapper:

* **kernel** (``repro.bdd`` operations): only the outermost kernel call
  is timed; nested kernel calls (``or_`` calling ``and_``, quantifiers
  calling apply) run through untouched.  Kernel calls are folded into
  their caller's span as a call count and a time, because a single
  alu4 decomposition makes about two million of them.
* **span** (engine, proof, store entry points): every call becomes a
  span ``(id, name, start, end, parent id, input label, kernel calls,
  kernel seconds)`` kept in memory and written out by the runner.

Pipeline stages are spans too, opened and closed from the public
``stage_started`` / ``stage_finished`` events when the stages run in
this process.  A layer's self time is its span durations minus the time
their child spans cover; a name's call count and inclusive time count
only its outermost calls, so recursion and nesting (``exor_decomposable``
calling ``check_exor_bidecomp``) are not double counted.
"""

import os
import sys
from collections import Counter
from time import perf_counter

#: Kernel operations, as ``(module, attribute or Class.method, span)``.
KERNEL_POINTS = [
    ("repro.bdd.manager", "BDD.and_", "bdd.apply"),
    ("repro.bdd.manager", "BDD.or_", "bdd.apply"),
    ("repro.bdd.manager", "BDD.xor", "bdd.apply"),
    ("repro.bdd.manager", "BDD.ite", "bdd.apply"),
    ("repro.bdd.manager", "BDD.not_", "bdd.apply"),
    ("repro.bdd.manager", "BDD.collect", "bdd.gc"),
    ("repro.bdd.quantify", "exists", "bdd.quantify"),
    ("repro.bdd.quantify", "forall", "bdd.quantify"),
    ("repro.bdd.quantify", "and_exists", "bdd.quantify"),
    ("repro.bdd.quantify", "or_forall", "bdd.quantify"),
    ("repro.bdd.isop", "isop", "bdd.isop"),
    ("repro.bdd.reorder", "sift", "bdd.reorder"),
    ("repro.bdd.reorder", "reorder_to", "bdd.reorder"),
    ("repro.bdd.reorder", "swap_levels", "bdd.reorder"),
]

#: Engine, proof and store entry points that become spans.
SPAN_POINTS = [
    ("repro.decomp.bidecomp", "DecompositionEngine.decompose",
     "decomp.engine"),
    ("repro.decomp.grouping", "group_variables", "decomp.grouping"),
    ("repro.decomp.grouping", "improve_grouping", "decomp.grouping"),
    ("repro.decomp.grouping", "find_best_grouping", "decomp.grouping"),
    ("repro.decomp.checks", "or_decomposable", "decomp.checks"),
    ("repro.decomp.checks", "and_decomposable", "decomp.checks"),
    ("repro.decomp.checks", "exor_decomposable_single", "decomp.checks"),
    ("repro.decomp.checks", "derivative_isf", "decomp.checks"),
    ("repro.decomp.checks", "weak_or_useful", "decomp.checks"),
    ("repro.decomp.checks", "weak_and_useful", "decomp.checks"),
    ("repro.decomp.exor", "check_exor_bidecomp", "decomp.exor"),
    ("repro.decomp.exor", "exor_decomposable", "decomp.exor"),
    ("repro.decomp.derive", "derive_or_component_a", "decomp.derive"),
    ("repro.decomp.derive", "derive_and_component_a", "decomp.derive"),
    ("repro.decomp.derive", "derive_weak_or_component_a", "decomp.derive"),
    ("repro.decomp.derive", "derive_weak_and_component_a",
     "decomp.derive"),
    ("repro.decomp.derive", "derive_component_a", "decomp.derive"),
    ("repro.decomp.derive", "derive_component_b", "decomp.derive"),
    ("repro.decomp.weak", "find_weak_grouping", "decomp.weak"),
    ("repro.decomp.inessential", "remove_inessential",
     "decomp.inessential"),
    ("repro.decomp.terminal", "find_gate", "decomp.terminal"),
    ("repro.decomp.cache", "ComponentCache.lookup", "decomp.cache_lookup"),
    ("repro.decomp.cache", "ComponentCache.insert", "decomp.cache_insert"),
    ("repro.decomp.cache_store", "PersistentComponentCache.lookup",
     "decomp.cache_lookup"),
    ("repro.decomp.trace", "CertificateTracer.end", "proof.trace"),
    ("repro.decomp.trace", "CertificateTracer.document", "proof.trace"),
    ("repro.analysis.contracts", "CheckedDecompositionEngine._pre_decompose",
     "proof.contracts"),
    ("repro.analysis.contracts", "CheckedDecompositionEngine._on_step",
     "proof.contracts"),
    ("repro.analysis.contracts", "CheckedDecompositionEngine._on_derived_b",
     "proof.contracts"),
    ("repro.analysis.contracts", "CheckedDecompositionEngine._check",
     "proof.contracts"),
    ("repro.analysis.contracts",
     "CheckedDecompositionEngine._validate_cache_hit", "proof.contracts"),
    ("repro.analysis.certify", "certify_file", "proof.certify"),
    ("repro.decomp.cache_store", "load_store", "store.load"),
    ("repro.decomp.cache_store", "save_store", "store.save"),
    ("repro.decomp.cache_store", "serialize_cache", "store.save"),
    ("repro.decomp.cache_store", "merge_entries", "store.merge"),
    ("repro.decomp.cache_store", "merge_stores", "store.merge"),
]

#: Spans whose truthy result counts as an accepted attempt.
ACCEPT_SPANS = ("decomp.exor",)


def self_s_by_layer(totals):
    """Self seconds per layer of a :meth:`Tracer.totals` snapshot; a span
    name's layer is its first component, and stages belong to pipeline."""
    out = Counter()
    for name, seconds in totals["self_s"].items():
        head = name.split(".", 1)[0]
        out["pipeline" if head in ("stage", "pass") else head] += seconds
    return out


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self, stage_spans=True):
        self.pid = os.getpid()
        self.stage_spans = stage_spans
        self.input = None
        self.spans = []
        self.self_s = Counter()
        self.incl_s = Counter()
        self.calls = Counter()
        self.accepted = Counter()
        self._stack = []
        self._depth = Counter()
        self._next_id = 0
        self._in_kernel = [False]
        #: Per kernel span name: ``[calls, seconds]``, bumped in place
        #: by the kernel wrappers (the hot path touches nothing else).
        self._kernel = {}
        self._patches = []

    def _kernel_now(self):
        calls = seconds = 0
        for count, elapsed in self._kernel.values():
            calls += count
            seconds += elapsed
        return calls, seconds

    # -- spans ------------------------------------------------------------
    def open(self, name):
        self._next_id += 1
        self._depth[name] += 1
        kcalls, ks = self._kernel_now()
        # id, name, start, child span seconds, kernel seconds of child
        # spans, kernel calls and seconds when opened
        self._stack.append([self._next_id, name, perf_counter(), 0.0, 0.0,
                            kcalls, ks])

    def close(self):
        end = perf_counter()
        span_id, name, start, child_s, child_ks, kcalls0, ks0 = \
            self._stack.pop()
        kcalls, ks = self._kernel_now()
        inner_ks = ks - ks0
        # Kernel calls made directly under this span (not in a child span)
        # are its children too.
        direct_ks = inner_ks - child_ks
        duration = end - start
        self.self_s[name] += duration - child_s - direct_ks
        self._depth[name] -= 1
        if not self._depth[name]:
            self.calls[name] += 1
            self.incl_s[name] += duration
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            top[4] += inner_ks
            parent = top[0]
        self.spans.append((span_id, name, start, end, parent, self.input,
                           kcalls - kcalls0, inner_ks))

    def on_event(self, event):
        """Bus subscriber: stage spans and the current input label."""
        if not self.stage_spans:
            return
        if event.name == "stage_started":
            self.input = event.payload.get("label", self.input)
            self.open("stage." + event.payload["stage"])
        elif event.name in ("stage_finished", "stage_failed"):
            self.close()

    # -- wrappers ----------------------------------------------------------
    def _make_kernel(self, name, fn):
        acc = self._kernel.setdefault(name, [0, 0.0])
        busy = self._in_kernel

        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += perf_counter() - start
                acc[0] += 1
                busy[0] = False
        return wrapper

    def _make_span(self, name, fn):
        tracer = self
        count_accepts = name in ACCEPT_SPANS

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if (count_accepts and not tracer._depth[name]
                    and result is not None and result is not False):
                tracer.accepted[name] += 1
            return result
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every entry point in every ``repro`` module that holds it."""
        for points, make in ((KERNEL_POINTS, self._make_kernel),
                             (SPAN_POINTS, self._make_span)):
            for module_name, attr, name in points:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._set(cls, method, make(name, vars(cls)[method]))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def _set(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reporting -----------------------------------------------------------
    def totals(self):
        """Picklable per-name counters (a worker ships these home).

        Kernel calls are leaves, so their inclusive time is their self
        time.
        """
        self_s, incl_s, calls = (Counter(self.self_s), Counter(self.incl_s),
                                 Counter(self.calls))
        for name, (count, seconds) in self._kernel.items():
            self_s[name] += seconds
            incl_s[name] += seconds
            calls[name] += count
        return {"self_s": dict(self_s), "incl_s": dict(incl_s),
                "calls": dict(calls), "accepted": dict(self.accepted)}

    def merge(self, totals):
        """Add a forked worker's per-input counter delta."""
        for key in ("self_s", "incl_s", "calls", "accepted"):
            getattr(self, key).update(totals.get(key, {}))


def counter_delta(after, before):
    """Per-name difference of two :meth:`Tracer.totals` snapshots."""
    return {key: {name: value - before[key].get(name, 0)
                  for name, value in after[key].items()
                  if value != before[key].get(name, 0)}
            for key in after}
