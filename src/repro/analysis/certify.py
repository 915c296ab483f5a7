"""Independent offline certifier for decomposition certificates.

The engine's own verifier and the theorem-contract sanitizer both run
*inside* the decomposing process, on the engine's live BDD objects — a
bug in the manager or engine could vouch for itself.  This module is
the outside auditor: it replays a certificate trace
(:mod:`repro.io.cert`, produced by :mod:`repro.decomp.trace`) in a
completely fresh BDD manager and re-proves every claim from nothing
but variable names and cube covers:

* every step's interval is consistent (``Q & R == 0``) and its chosen
  component lies in the interval (Theorems 3/4's guarantee, and the
  whole point of a step);
* the theorem each step invokes actually holds — Theorem 1's OR
  residue ``Q & exists(XA, R) & exists(XB, R) == 0`` (and its AND
  dual), Theorem 2's derivative condition for two-variable EXOR,
  Table 1's weak-step usefulness, Theorem 6 compatibility for reused
  components;
* the variable groups are sane (disjoint, covering the support, sized
  as the theorem requires) and each child component stays off the
  other side's variable group;
* the step tree composes: a step's component equals its children's
  components combined through the claimed gate;
* the root components are compatible with the PLA specification
  interval, rebuilt here from the original PLA file;
* the emitted BLIF implements exactly the root components.

Every rejected claim carries a counterexample minterm where one
exists (emptiness conditions that fail have none to show).

**Independence.**  This module imports only the neutral layers —
``repro.bdd``, ``repro.boolfn``, ``repro.io``, ``repro.network`` —
and never the decomposition engine or the pipeline.
``repro selfcheck`` (rule ``certifier-independence``) enforces that
statically, so checker independence is machine-checked rather than
claimed.  The closed-form theorem conditions live here, in
:func:`theorem_residue`, and the engine's ``--check`` contracts import
them from this module — never the other way round.  See
docs/ANALYSIS.md for the threat model: what a passing certificate does
and does not prove.
"""

from repro.bdd import exists as _exists, forall as _forall, pick_minterm
from repro.bdd.function import Function
from repro.io import load_pla, parse_blif, read_text
from repro.io.cert import (LEAF_THEOREMS, STRONG_THEOREMS, THEOREM_GATES,
                           WEAK_THEOREMS, CertificateError, load_cert,
                           rebuild_cover, validate_cover)


class CertificationFailure:
    """One rejected claim: check id, location, message, counterexample.

    ``counterexample`` is a ``{variable_name: 0/1}`` minterm witnessing
    the violation, or None for emptiness conditions (nothing to show
    when a required non-empty set is empty).
    """

    __slots__ = ("check", "message", "step", "output", "counterexample")

    def __init__(self, check, message, step=None, output=None,
                 counterexample=None):
        self.check = check
        self.message = message
        self.step = step
        self.output = output
        self.counterexample = counterexample

    def as_dict(self):
        doc = {"check": self.check, "message": self.message}
        if self.step is not None:
            doc["step"] = self.step
        if self.output is not None:
            doc["output"] = self.output
        if self.counterexample is not None:
            doc["counterexample"] = dict(self.counterexample)
        return doc

    def __str__(self):
        where = ""
        if self.step is not None:
            where = " step %d" % self.step
        if self.output is not None:
            where += " output %r" % self.output
        text = "[%s]%s %s" % (self.check, where, self.message)
        if self.counterexample is not None:
            text += " at %s" % _format_minterm(self.counterexample)
        return text


class CertificationReport:
    """Outcome of one certification pass."""

    def __init__(self, label=None):
        self.label = label
        self.failures = []
        self.steps_checked = 0
        self.outputs_checked = 0
        self.checks = 0
        self.theorems = {}

    @property
    def ok(self):
        """True when every claim was re-proved."""
        return not self.failures

    def fail(self, check, message, step=None, output=None,
             counterexample=None):
        self.failures.append(CertificationFailure(
            check, message, step=step, output=output,
            counterexample=counterexample))

    def count(self, n=1):
        self.checks += n

    def as_dict(self):
        return {
            "ok": self.ok,
            "label": self.label,
            "steps_checked": self.steps_checked,
            "outputs_checked": self.outputs_checked,
            "checks": self.checks,
            "theorems": dict(self.theorems),
            "failures": [failure.as_dict() for failure in self.failures],
        }

    def format_text(self):
        lines = []
        for failure in self.failures:
            lines.append("REJECT %s" % failure)
        lines.append(
            "%s: %d step(s), %d output(s), %d check(s), %d failure(s)"
            % ("REJECTED" if self.failures else "CERTIFIED",
               self.steps_checked, self.outputs_checked, self.checks,
               len(self.failures)))
        return "\n".join(lines) + "\n"


def _format_minterm(assignment):
    return " ".join("%s=%d" % (name, assignment[name])
                    for name in sorted(assignment))


def _witness(mgr, node):
    """Name-keyed counterexample minterm of a non-false *node*."""
    assignment = pick_minterm(mgr, node)
    if assignment is None:
        return None
    return {mgr.var_name(var): value
            for var, value in assignment.items()}


def _rebuild(report, mgr, step, step_id, key):
    """Rebuild one serialized cover; None (plus a finding) when bad."""
    try:
        cover = validate_cover(step.get(key), where="%r cover" % key)
        return rebuild_cover(mgr, cover)
    except CertificateError as exc:
        report.fail("cover", str(exc), step=step_id)
        return None


def _check_variable_sets(report, step, step_id, theorem, support_names):
    """XA/XB/XC sanity; returns (xa, xb) name lists (possibly None)."""
    xa = step.get("xa")
    xb = step.get("xb") if theorem in STRONG_THEOREMS else None
    groups = [("xa", xa)]
    if theorem in STRONG_THEOREMS:
        groups.append(("xb", xb))
    named = {}
    for key, group in groups:
        if (not isinstance(group, list) or not group
                or not all(isinstance(name, str) for name in group)):
            report.fail("variable-sets",
                        "%s is not a non-empty name list: %r"
                        % (key, group), step=step_id)
            return None, None
        named[key] = group
    xc = step.get("xc", [])
    if not isinstance(xc, list):
        xc = []
    union = set(xa) | set(xb or ()) | set(xc)
    report.count()
    if len(xa) + len(xb or ()) + len(xc) != len(union):
        report.fail("variable-sets",
                    "XA/XB/XC overlap: %s | %s | %s"
                    % (xa, xb, xc), step=step_id)
        return None, None
    if union != support_names:
        report.fail("variable-sets",
                    "XA/XB/XC do not partition the step support "
                    "(groups: %s, support: %s)"
                    % (sorted(union), sorted(support_names)),
                    step=step_id)
        return None, None
    if theorem == "thm2-exor" and (len(xa) != 1 or len(xb) != 1):
        report.fail("variable-sets",
                    "thm2-exor needs singleton XA/XB, got %s/%s"
                    % (xa, xb), step=step_id)
        return None, None
    return xa, xb


def theorem_residue(mgr, theorem, q, r, xa, xb=None):
    """Closed-form condition of a Theorem 1/2 or Table 1 step.

    *q* / *r* are the on/off-set edges of the step's interval, *xa* /
    *xb* its variable groups (names or indices).  Returns ``(residue,
    holds)``: Theorem 1's ``Q & ∃XA.R & ∃XB.R``, its AND dual, and
    Theorem 2's ``Q_D & ∃XB.R_D`` hold iff the residue is empty; Table
    1's weak-step don't-cares ``Q - ∃XA.R`` (dually ``R - ∃XA.Q``) iff
    it is non-empty.  Pure, so the offline certifier and the
    ``--check`` contracts re-prove steps through the same formulas.
    """
    if theorem in ("thm1-and-dual", "table1-weak-and"):
        q, r = r, q
    if theorem in WEAK_THEOREMS:
        residue = mgr.diff(q, _exists(mgr, xa, r))
        return residue, residue != mgr.false
    if theorem == "thm2-exor":
        q, r = (mgr.and_(_exists(mgr, xa, q), _exists(mgr, xa, r)),
                mgr.or_(_forall(mgr, xa, q), _forall(mgr, xa, r)))
    elif theorem in ("thm1-or", "thm1-and-dual"):
        q = mgr.and_(q, _exists(mgr, xa, r))
    else:
        raise ValueError("no closed-form residue for %r" % (theorem,))
    residue = mgr.and_(q, _exists(mgr, xb, r))
    return residue, residue == mgr.false


#: Check id and message of a failed :func:`theorem_residue`.
_RESIDUE_FAILURES = {
    "thm1-or": ("or-residue", "Theorem 1 fails: Q & exists(XA,R) & "
                "exists(XB,R) is non-empty"),
    "thm1-and-dual": ("and-residue", "Theorem 1 dual fails: R & "
                      "exists(XA,Q) & exists(XB,Q) is non-empty"),
    "thm2-exor": ("exor-derivative", "Theorem 2 fails: Q_D & "
                  "exists(XB, R_D) is non-empty"),
    "table1-weak-or": ("weak-usefulness", "weak OR step injects no "
                       "don't-cares (Q - exists(XA,R) is empty)"),
    "table1-weak-and": ("weak-usefulness", "weak AND step injects no "
                        "don't-cares (R - exists(XA,Q) is empty)"),
}


def _check_theorem(report, mgr, step_id, theorem, q, r, xa, xb):
    """Re-prove the step's theorem condition in the fresh manager."""
    report.count()
    # fig4-exor has no closed-form residue; it is covered by the
    # composition and support-separation checks (see the threat model
    # in docs/ANALYSIS.md).
    if theorem not in _RESIDUE_FAILURES:
        return
    residue, holds = theorem_residue(mgr, theorem, q.node, r.node, xa, xb)
    if not holds:
        check, message = _RESIDUE_FAILURES[theorem]
        # A useless weak step's residue is empty: no minterm to show.
        report.fail(check, message, step=step_id,
                    counterexample=_witness(mgr, residue))


def _check_composition(report, mgr, step, step_id, theorem, gate, f,
                       functions):
    """The step's component equals its children combined by the gate."""
    children = step.get("children")
    if theorem in LEAF_THEOREMS:
        if children:
            report.fail("step-structure",
                        "leaf step %r has children %s" % (theorem, children),
                        step=step_id)
        return
    if (not isinstance(children, list) or len(children) != 2
            or not all(isinstance(child, int) and 0 <= child < step_id
                       for child in children)):
        report.fail("step-structure",
                    "step needs two earlier children, got %r" % (children,),
                    step=step_id)
        return
    resolved = [functions.get(child) for child in children]
    if any(entry is None for entry in resolved):
        return  # the child already failed; no composition to check
    f_a, f_b = (entry[2] for entry in resolved)
    report.count()
    if gate == "OR":
        expected = f_a | f_b
    elif gate == "AND":
        expected = f_a & f_b
    elif gate == "XOR":
        expected = f_a ^ f_b
    else:  # MUX (shannon): children are [cofactor-1, cofactor-0]
        var = step.get("var")
        if not isinstance(var, str) or var not in set(mgr.var_names):
            report.fail("step-structure",
                        "shannon step has no known selector variable: %r"
                        % (var,), step=step_id)
            return
        expected = Function(mgr, mgr.var(var)).ite(f_a, f_b)
    if expected.node != f.node:
        diff = expected ^ f
        report.fail("composition",
                    "component does not equal its children combined by "
                    "%s" % gate, step=step_id,
                    counterexample=_witness(mgr, diff.node))


def _check_support_separation(report, step_id, theorem, xa, xb, functions,
                              children):
    """Child components must avoid the opposite variable group:
    component A never reads XB, component B never reads XA (Theorems
    3/4 derive them by quantifying those groups out)."""
    resolved = [functions.get(child) for child in children or []]
    if len(resolved) != 2 or any(entry is None for entry in resolved):
        return
    f_a, f_b = (entry[2] for entry in resolved)
    report.count()
    if theorem in STRONG_THEOREMS and xb:
        leak = set(f_a.support_names()) & set(xb)
        if leak:
            report.fail("support-separation",
                        "component A reads XB variable(s) %s"
                        % sorted(leak), step=step_id)
    if xa:
        leak = set(f_b.support_names()) & set(xa)
        if leak:
            report.fail("support-separation",
                        "component B reads XA variable(s) %s"
                        % sorted(leak), step=step_id)


def certify(doc, mgr, specs, blif_outputs=None, label=None):
    """Replay certificate *doc* against fresh *specs* on *mgr*.

    Parameters
    ----------
    doc:
        Envelope-validated certificate document
        (:func:`repro.io.cert.parse_cert` / :func:`~repro.io.cert.load_cert`).
    mgr:
        Fresh BDD manager carrying the specification (typically the one
        :func:`repro.io.load_pla` built — *not* the producing engine's).
    specs:
        ``{output_name: ISF}`` specification intervals.
    blif_outputs:
        Optional ``{output_name: Function}`` parsed from the emitted
        BLIF on *mgr*; when given, each root component must equal the
        netlist's function exactly.

    Returns a :class:`CertificationReport`; semantic problems become
    failures on the report (with counterexamples where one exists)
    rather than exceptions.
    """
    report = CertificationReport(label=label if label is not None
                                 else doc.get("label"))
    steps = doc["steps"]
    functions = {}  # step id -> (q, r, f) Functions, or absent when bad

    for index, step in enumerate(steps):
        if not isinstance(step, dict) or step.get("id") != index:
            report.fail("step-structure",
                        "step #%d has id %r (expected dense ids)"
                        % (index, step.get("id")
                           if isinstance(step, dict) else step),
                        step=index)
            continue
        theorem = step.get("theorem")
        if theorem not in THEOREM_GATES:
            report.fail("step-structure",
                        "unknown theorem tag %r" % (theorem,), step=index)
            continue
        gate = step.get("gate")
        report.count()
        if gate != THEOREM_GATES[theorem]:
            report.fail("step-structure",
                        "gate %r does not match theorem %r (expected %r)"
                        % (gate, theorem, THEOREM_GATES[theorem]),
                        step=index)
            continue
        q = _rebuild(report, mgr, step, index, "q")
        r = _rebuild(report, mgr, step, index, "r")
        f = _rebuild(report, mgr, step, index, "f")
        if q is None or r is None or f is None:
            continue
        report.steps_checked += 1
        report.theorems[theorem] = report.theorems.get(theorem, 0) + 1

        # Interval consistency: Q and R must not intersect.
        report.count()
        overlap = q & r
        if not overlap.is_false():
            report.fail("interval-consistent",
                        "step interval is inconsistent (Q & R non-empty)",
                        step=index,
                        counterexample=_witness(mgr, overlap.node))
            continue
        # Theorems 3/4 (and Theorem 6 for reused components): the
        # chosen component lies in the interval (Q, ~R).
        report.count()
        bad = (q & ~f) | (r & f)
        if not bad.is_false():
            report.fail("component-interval",
                        "component leaves its interval (Q, ~R)",
                        step=index,
                        counterexample=_witness(mgr, bad.node))
            functions[index] = (q, r, f)
            continue
        functions[index] = (q, r, f)

        support_names = set(q.support_names()) | set(r.support_names())
        if theorem == "terminal" and len(support_names) > 2:
            report.fail("step-structure",
                        "terminal step has %d support variables (FindGate "
                        "handles at most 2)" % len(support_names),
                        step=index)
        xa = xb = None
        if theorem in STRONG_THEOREMS or theorem in WEAK_THEOREMS:
            xa, xb = _check_variable_sets(report, step, index, theorem,
                                          support_names)
            if xa is not None:
                _check_theorem(report, mgr, index, theorem, q, r, xa, xb)
        _check_composition(report, mgr, step, index, theorem, gate, f,
                           functions)
        if xa is not None:
            _check_support_separation(report, index, theorem, xa, xb,
                                      functions, step.get("children"))

    # Roots: spec compatibility + BLIF cross-check.
    outputs = doc["outputs"]
    for name in sorted(specs):
        isf = specs[name]
        entry = outputs.get(name)
        if not isinstance(entry, dict) or entry.get("step") not in functions:
            report.fail("output-root",
                        "certificate has no usable root for output %r"
                        % name, output=name)
            continue
        report.outputs_checked += 1
        root = functions[entry["step"]][2]
        report.count()
        bad = (isf.on - root) | (root & isf.off)
        if not bad.is_false():
            report.fail("spec-interval",
                        "root component violates the PLA specification "
                        "interval", step=entry["step"], output=name,
                        counterexample=_witness(mgr, bad.node))
        if blif_outputs is not None:
            out_name = entry.get("output", name)
            implemented = blif_outputs.get(out_name)
            report.count()
            if implemented is None:
                report.fail("blif-output",
                            "BLIF lacks output %r" % out_name, output=name)
            elif implemented.node != root.node:
                diff = implemented ^ root
                report.fail("blif-output",
                            "BLIF output %r differs from the certified "
                            "root component" % out_name, output=name,
                            counterexample=_witness(mgr, diff.node))
    for name in outputs:
        if name not in specs:
            report.fail("output-root",
                        "certificate claims unknown output %r" % name,
                        output=name)
    return report


def certify_file(spec_path, blif_path, cert_path):
    """Certify on-disk artifacts: PLA spec, emitted BLIF, certificate.

    Loads all three in this process — with a *fresh* manager built from
    the PLA — and returns a :class:`CertificationReport`.  Unusable
    files (missing, corrupt, wrong format, BLIF that does not parse
    against the spec's inputs) raise :class:`CertificateError`.
    """
    doc = load_cert(cert_path)
    _data, mgr, specs = load_pla(spec_path)
    try:
        text = read_text(blif_path)
        _mgr, blif_outputs = parse_blif(text, mgr=mgr)
    except OSError as exc:
        raise CertificateError("unreadable BLIF: %s" % exc)
    except ValueError as exc:
        raise CertificateError("unusable BLIF %s: %s" % (blif_path, exc))
    return certify(doc, mgr, specs, blif_outputs=blif_outputs)
