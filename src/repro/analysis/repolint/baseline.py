"""Committed baseline of grandfathered repolint findings.

A baseline lets a new rule land with its existing findings documented
instead of fixed-or-suppressed on day one — while guaranteeing they can
only shrink: a baselined finding that disappears makes its entry
*stale*, and stale entries are errors, so the file can never quietly
rot into a list of exceptions nobody holds.

Entries match on ``(rule, path, message)`` — deliberately not the line
number, which drifts with every unrelated edit.  Matching is multiset
style: two identical findings need two entries.

The file is read, envelope-checked and written by
:mod:`repro.io.jsonfile`, like the component store and certificates;
this module checks only the entry shape.
"""

from repro.analysis.rules import Finding, Severity
from repro.io.jsonfile import check_envelope, load_json, save_json

BASELINE_FORMAT = "repro-repolint-baseline"
BASELINE_VERSION = 1


class BaselineError(ValueError):
    """Raised for unreadable or malformed baseline files."""


def _entry_key(doc):
    return (doc["rule"], doc["path"], doc["message"])


def load_baseline(path):
    """Parse and validate a baseline file into its document."""
    doc = check_envelope(load_json(path, BaselineError, "repolint baseline"),
                         BASELINE_FORMAT, BASELINE_VERSION, BaselineError,
                         "repolint baseline", path)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise BaselineError("baseline %s has no entries list" % path)
    for entry in entries:
        if (not isinstance(entry, dict)
                or not all(isinstance(entry.get(key), str)
                           for key in ("rule", "path", "message"))):
            raise BaselineError(
                "malformed baseline entry in %s: %r" % (path, entry))
    return doc


def make_baseline(findings):
    """Baseline document grandfathering *findings*."""
    entries = sorted(
        ({"rule": f.rule, "path": f.path or "", "message": f.message}
         for f in findings),
        key=_entry_key)
    return {"format": BASELINE_FORMAT, "version": BASELINE_VERSION,
            "entries": entries}


def save_baseline(path, doc):
    """Write a baseline document as canonical JSON, atomically; returns
    *path*."""
    return save_json(path, doc)


def apply_baseline(findings, doc):
    """Split *findings* into ``(active, baselined)`` against *doc*.

    Stale entries (no matching finding left) surface as
    ``stale-baseline`` error findings in the active list, pointing at
    the entry so the operator re-baselines or deletes it.
    """
    remaining = {}
    for entry in doc.get("entries", ()):
        key = _entry_key(entry)
        remaining[key] = remaining.get(key, 0) + 1
    active, baselined = [], []
    for finding in findings:
        key = (finding.rule, finding.path or "", finding.message)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            baselined.append(finding)
        else:
            active.append(finding)
    for key in sorted(remaining):
        for _ in range(remaining[key]):
            rule, path, message = key
            active.append(Finding(
                "stale-baseline", Severity.ERROR,
                "baseline entry matches no current finding "
                "(rule %s: %s) — the finding was fixed; remove the "
                "entry or re-run with --write-baseline" % (rule, message),
                path=path, line=0,
                data={"rule": rule, "message": message}))
    return active, baselined
