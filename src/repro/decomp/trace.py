"""Certificate tracer: records a proof trace of every engine step.

:class:`CertificateTracer` rides along with
:class:`~repro.decomp.bidecomp.DecompositionEngine` (the engine calls
``begin`` / ``annotate_*`` / ``end`` around every recursion step) and
accumulates manager-independent step records — theorem tag, gate,
XA/XB/XC variable names, and exact ISOP covers of the step's interval
``(Q, R)`` and chosen component ``f`` (format:
:mod:`repro.io.cert`).  :meth:`document` then assembles the steps
reachable from a run's root steps into a versioned certificate the
offline checker (:mod:`repro.analysis.certify`) can replay in a fresh
manager.

Step ids are assigned at :meth:`end`, i.e. in completion order, so a
step's children always carry smaller ids than the step itself — the
serialized step list is topologically ordered for free, and the
certifier can rebuild functions in one forward pass.

Cache hits are recorded as self-contained ``thm6-reuse`` leaves: the
reused component's full cover is embedded (post-complement, when the
hit was a complemented one), so a certificate never references steps
outside its own run, even when the hit was rehydrated from a store
another input filled.
"""

from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.io.cert import CERT_FORMAT, CERT_VERSION, named_cover

#: Engine gate constant -> certificate gate tag.
_GATE_TAGS = {OR_GATE: "OR", AND_GATE: "AND", EXOR_GATE: "XOR"}

#: Strong-step theorem tag by gate (EXOR resolved by XA/XB size).
_STRONG_THEOREMS = {OR_GATE: "thm1-or", AND_GATE: "thm1-and-dual"}

#: Weak-step theorem tag by gate.
_WEAK_THEOREMS = {OR_GATE: "table1-weak-or", AND_GATE: "table1-weak-and"}


class CertificateTracer:
    """Builds certificate step records as the engine recurses.

    The engine drives the frame protocol:

    * :meth:`begin` on entering ``decompose`` (after inessential
      removal, so the recorded interval is the one the step actually
      justified);
    * exactly one ``annotate_*`` call once the step kind is known;
    * :meth:`end` with the final interval and chosen component, or
      :meth:`abort` when the step raised (budget trips, contract
      violations) — the frame is dropped and the tracer stays usable.
    """

    def __init__(self, mgr):
        self.mgr = mgr
        self.steps = []
        self._stack = []
        #: Step id of the most recently completed root (stack-emptying)
        #: step — the driver registers it as one output's proof root.
        self.last_root = None

    # -- frame protocol -----------------------------------------------
    def begin(self):
        """Open a frame for one engine step."""
        self._stack.append({"children": []})

    def abort(self):
        """Drop the innermost frame (its step raised mid-flight)."""
        if self._stack:
            self._stack.pop()

    def end(self, isf, csf):
        """Close the innermost frame into a step record; returns its id.

        *isf* is the (inessential-stripped) interval the step covered
        and *csf* the completely specified component the engine chose
        for it.
        """
        frame = self._stack.pop()
        step = {
            "id": len(self.steps),
            "theorem": frame.get("theorem", "terminal"),
            "gate": frame.get("gate", "LEAF"),
            "children": frame["children"],
            "q": named_cover(isf.on),
            "r": named_cover(isf.off),
            "f": named_cover(csf),
        }
        for key in ("xa", "xb", "xc", "var", "complemented"):
            if key in frame:
                step[key] = frame[key]
        self.steps.append(step)
        if self._stack:
            self._stack[-1]["children"].append(step["id"])
        else:
            self.last_root = step["id"]
        return step["id"]

    # -- step annotations ---------------------------------------------
    def _names(self, variables):
        return sorted(self.mgr.var_name(var) for var in variables)

    def annotate_strong(self, gate, xa, xb, support):
        """A strong step: Theorem 1 (OR / AND dual) or Theorem 2 /
        Fig. 4 (EXOR), with both variable groups chosen."""
        frame = self._stack[-1]
        if gate == EXOR_GATE:
            frame["theorem"] = ("thm2-exor"
                                if len(xa) == 1 and len(xb) == 1
                                else "fig4-exor")
        else:
            frame["theorem"] = _STRONG_THEOREMS[gate]
        frame["gate"] = _GATE_TAGS[gate]
        frame["xa"] = self._names(xa)
        frame["xb"] = self._names(xb)
        frame["xc"] = self._names(set(support) - set(xa) - set(xb))

    def annotate_weak(self, gate, xa, support):
        """A weak OR/AND step (Table 1): only XA is chosen."""
        frame = self._stack[-1]
        frame["theorem"] = _WEAK_THEOREMS[gate]
        frame["gate"] = _GATE_TAGS[gate]
        frame["xa"] = self._names(xa)
        frame["xc"] = self._names(set(support) - set(xa))

    def annotate_shannon(self, var):
        """The Shannon fallback; children are [cofactor-1, cofactor-0]."""
        frame = self._stack[-1]
        frame["theorem"] = "shannon"
        frame["gate"] = "MUX"
        frame["var"] = self.mgr.var_name(var)

    def annotate_cache(self, complemented):
        """A Theorem 6 component-cache hit (self-contained leaf)."""
        frame = self._stack[-1]
        frame["theorem"] = "thm6-reuse"
        frame["gate"] = "REUSE"
        frame["complemented"] = bool(complemented)

    def annotate_terminal(self):
        """The <=2-variable ``FindGate`` base case."""
        frame = self._stack[-1]
        frame["theorem"] = "terminal"
        frame["gate"] = "LEAF"

    # -- document assembly --------------------------------------------
    def document(self, roots, label=None, model=None):
        """Assemble a certificate for the steps reachable from *roots*.

        Parameters
        ----------
        roots:
            ``{output_name: root_step_id}`` — the proof roots one
            pipeline run registered.

        Reachable steps are renumbered densely in children-before-parent
        order; ``inputs`` is the sorted set of variable names they
        mention.
        """
        order = []
        seen = set()

        def visit(step_id):
            if step_id in seen:
                return
            seen.add(step_id)
            for child in self.steps[step_id]["children"]:
                visit(child)
            order.append(step_id)

        for name in sorted(roots):
            visit(roots[name])
        remap = {old: new for new, old in enumerate(order)}
        steps = []
        used_names = set()
        for old in order:
            step = dict(self.steps[old])
            step["id"] = remap[old]
            step["children"] = [remap[child] for child in step["children"]]
            steps.append(step)
            for key in ("q", "r", "f"):
                for cube in step[key]:
                    used_names.update(cube)
            for key in ("xa", "xb", "xc"):
                used_names.update(step.get(key, ()))
            if "var" in step:
                used_names.add(step["var"])
        doc = {
            "format": CERT_FORMAT,
            "version": CERT_VERSION,
            "inputs": sorted(used_names),
            "outputs": {name: {"step": remap[step_id], "output": name}
                        for name, step_id in roots.items()},
            "steps": steps,
        }
        if label is not None:
            doc["label"] = label
        if model is not None:
            doc["model"] = model
        return doc
