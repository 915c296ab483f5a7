"""Typed findings, severities and the netlist-lint rule registry.

Every lint rule is a function ``rule(ctx) -> iterable of Finding`` over
a :class:`~repro.analysis.netlist_lint.LintContext`, registered through
the :func:`rule` decorator with a stable id, a severity and the paper
reference it guards (docs/ANALYSIS.md lists them all).  The registry
keeps definition order, so reports are deterministic.
"""


class Severity:
    """Finding severities, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    #: Ascending order used by exit-code thresholds (``--fail-on``).
    ORDER = (INFO, WARNING, ERROR)

    @classmethod
    def rank(cls, severity):
        """Numeric rank of *severity* (higher is worse)."""
        try:
            return cls.ORDER.index(severity)
        except ValueError:
            raise ValueError("unknown severity %r" % (severity,))


class Finding:
    """One lint finding: a rule id, severity, message and locations.

    Attributes
    ----------
    rule:
        Stable rule identifier (e.g. ``"dead-gate"``).
    severity:
        One of :class:`Severity`'s values.
    message:
        Human-readable description naming the offending nodes.
    nodes:
        Tuple of netlist node ids involved (may be empty).
    output:
        Output name the finding is attached to, when output-specific.
    data:
        Optional extra JSON-able payload (signatures, support sets...).
    path:
        Repo-relative source path, for source-level findings (the
        repolint rules); ``None`` for netlist findings.
    line:
        1-based source line within *path*; ``None`` when not anchored.
    """

    __slots__ = ("rule", "severity", "message", "nodes", "output", "data",
                 "path", "line")

    def __init__(self, rule, severity, message, nodes=(), output=None,
                 data=None, path=None, line=None):
        self.rule = rule
        self.severity = severity
        self.message = message
        self.nodes = tuple(nodes)
        self.output = output
        self.data = data
        self.path = path
        self.line = line

    def as_dict(self):
        """JSON-able view of the finding."""
        doc = {"rule": self.rule, "severity": self.severity,
               "message": self.message, "nodes": list(self.nodes)}
        if self.output is not None:
            doc["output"] = self.output
        if self.data is not None:
            doc["data"] = self.data
        if self.path is not None:
            doc["path"] = self.path
        if self.line is not None:
            doc["line"] = self.line
        return doc

    def __repr__(self):
        return "Finding(%s, %s, %r)" % (self.rule, self.severity,
                                        self.message)


class LintReport:
    """The outcome of one lint pass: findings plus summary counters."""

    def __init__(self, findings, rules_run=(), nodes_checked=0):
        self.findings = list(findings)
        self.rules_run = tuple(rules_run)
        self.nodes_checked = nodes_checked

    def by_severity(self, severity):
        """Findings with exactly the given severity."""
        return [f for f in self.findings if f.severity == severity]

    def errors(self):
        """Error-severity findings."""
        return self.by_severity(Severity.ERROR)

    def warnings(self):
        """Warning-severity findings."""
        return self.by_severity(Severity.WARNING)

    def has_errors(self):
        """True when any error-severity finding exists."""
        return bool(self.errors())

    def counts(self):
        """``{severity: count}`` over all findings (zero-filled)."""
        counts = {severity: 0 for severity in Severity.ORDER}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def worst(self, threshold):
        """Findings at or above *threshold* severity.

        The threshold is validated eagerly (:meth:`Severity.rank`
        raises ValueError on an unknown level) even when there are no
        findings, so a mistyped threshold cannot silently select
        nothing.
        """
        floor = Severity.rank(threshold)
        return [f for f in self.findings
                if Severity.rank(f.severity) >= floor]

    def summary(self):
        """Compact JSON-able summary (what ``--stats-json`` embeds)."""
        counts = self.counts()
        return {
            "findings": len(self.findings),
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
            "clean": not self.findings,
            "rules_run": len(self.rules_run),
            "nodes_checked": self.nodes_checked,
        }

    def as_dict(self):
        """Full JSON-able report (the ``repro lint --json`` document)."""
        return {
            "summary": self.summary(),
            "rules_run": list(self.rules_run),
            "findings": [f.as_dict() for f in self.findings],
        }

    def format_text(self):
        """Findings as ``severity rule: message`` lines plus a footer."""
        lines = ["%-7s %-22s %s" % (f.severity, f.rule, f.message)
                 for f in self.findings]
        counts = self.counts()
        lines.append("lint: %d finding(s) (%d error, %d warning, %d info) "
                     "over %d node(s), %d rule(s)"
                     % (len(self.findings), counts[Severity.ERROR],
                        counts[Severity.WARNING], counts[Severity.INFO],
                        self.nodes_checked, len(self.rules_run)))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "LintReport(%s)" % self.summary()


class LintRule:
    """Registry entry: id, default severity, paper reference, body."""

    def __init__(self, rule_id, severity, fn, doc, paper_ref=None):
        self.rule_id = rule_id
        self.severity = severity
        self.fn = fn
        self.doc = doc
        self.paper_ref = paper_ref

    def run(self, ctx):
        """Execute the rule body over a lint context."""
        return self.fn(ctx)

    def __repr__(self):
        return "LintRule(%s, %s)" % (self.rule_id, self.severity)


#: All registered rules in definition order, keyed by rule id.
RULES = {}


def rule(rule_id, severity, paper_ref=None):
    """Decorator registering a lint rule under *rule_id*."""
    if severity not in Severity.ORDER:
        raise ValueError("unknown severity %r" % (severity,))

    def decorate(fn):
        if rule_id in RULES:
            raise ValueError("duplicate lint rule id %r" % rule_id)
        RULES[rule_id] = LintRule(rule_id, severity, fn,
                                  (fn.__doc__ or "").strip(),
                                  paper_ref=paper_ref)
        return fn
    return decorate
