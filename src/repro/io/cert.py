"""The decomposition-certificate file format.

A certificate (``<stem>.cert.json``, written beside the BLIF) is a
manager-independent trace of one decomposition run: per recursion step
it records which theorem of the paper justified the step, the gate, the
XA/XB/XC variable *names*, and canonical Minato-Morreale ISOP cube
covers of the step's interval ``(Q, R)`` and of the completely
specified component ``f`` the engine chose, so a certificate can be
replayed in a completely fresh BDD manager.

This module holds only what *both* sides of the protocol share: the
format constants, the reader/writer, and the cover codec.  The
producer lives in :mod:`repro.decomp.trace`; the independent checker in
:mod:`repro.analysis.certify` imports nothing from the engine or the
pipeline (``repro selfcheck`` rule ``certifier-independence``), which
is why these helpers live here in :mod:`repro.io` rather than next to
either of them.  :func:`named_cover` / :func:`rebuild_cover` are also
the component store's codec (:mod:`repro.decomp.cache_store`): a stored
Theorem 6 component and a certified step's ``f`` are the same
name-keyed ISOP cover, written and rebuilt by the same code.

Reading, the envelope check and the atomic canonical write are
:mod:`repro.io.jsonfile`'s: unknown document or step keys are ignored,
a newer (or non-integer) :data:`CERT_VERSION` is rejected as unusable.
"""

import os

from repro.bdd.function import Function
from repro.io.jsonfile import check_envelope, load_json, save_json

#: Magic identifying a decomposition-certificate file.
CERT_FORMAT = "repro-decomposition-certificate"

#: Highest certificate version this build reads and the one it writes.
CERT_VERSION = 1

#: Theorem tags a step may claim, mapped to the gate the step must
#: emit.  ``thm1-or`` / ``thm1-and-dual`` are the strong OR/AND
#: decompositions of Theorem 1 (and its dual); ``thm2-exor`` is the
#: two-variable EXOR test of Theorem 2, ``fig4-exor`` its multi-variable
#: grouping extension (Fig. 4); ``table1-weak-or`` / ``table1-weak-and``
#: are the weak steps of Table 1; ``thm6-reuse`` is a component-cache
#: hit justified by Theorem 6; ``terminal`` is the <=2-variable
#: ``FindGate`` base case; ``shannon`` is the engine's
#: guaranteed-progress fallback (not from the paper).
THEOREM_GATES = {
    "thm1-or": "OR",
    "thm1-and-dual": "AND",
    "thm2-exor": "XOR",
    "fig4-exor": "XOR",
    "table1-weak-or": "OR",
    "table1-weak-and": "AND",
    "thm6-reuse": "REUSE",
    "terminal": "LEAF",
    "shannon": "MUX",
}

#: Theorem tags whose steps are leaves (no child components).
LEAF_THEOREMS = ("thm6-reuse", "terminal")

#: Theorem tags of strong two-component steps (XA and XB both set).
STRONG_THEOREMS = ("thm1-or", "thm1-and-dual", "thm2-exor", "fig4-exor")

#: Theorem tags of weak steps (XA set, no XB).
WEAK_THEOREMS = ("table1-weak-or", "table1-weak-and")


class CertificateError(Exception):
    """Raised when a certificate file or document cannot be used."""


def named_cover(fn):
    """Canonical name-keyed ISOP cover of a :class:`Function`.

    Returns a list of ``{variable_name: 0/1}`` product terms whose
    disjunction equals *fn* exactly (``Function.isop`` with no upper
    bound is an exact cover).  ``[]`` is constant false and ``[{}]``
    (one literal-free cube) constant true.  On a given variable order
    the ISOP is canonical, so equal functions serialize identically.
    """
    mgr = fn.mgr
    _cover, cubes = fn.isop()
    return [{mgr.var_name(var): value
             for var, value in sorted(cube.literals.items())}
            for cube in cubes]


def validate_cover(cover, where="cover"):
    """Check the shape of a serialized cover; raises
    :class:`CertificateError`.

    Unlike cache-store entries, literal-free cubes (constant true) and
    empty covers (constant false) are legal — a step's interval bound
    or component may be constant.  A literal must be the int 0 or 1:
    ``bool`` is an int subclass (``True in (0, 1)``), so a JSON
    ``true``/``false`` is rejected explicitly, as the store does.
    """
    if not isinstance(cover, list):
        raise CertificateError("%s is not a cube list: %r" % (where, cover))
    for cube in cover:
        if not isinstance(cube, dict):
            raise CertificateError("%s has a bad cube: %r" % (where, cube))
        for name, value in cube.items():
            if (not isinstance(name, str) or isinstance(value, bool)
                    or value not in (0, 1)):
                raise CertificateError(
                    "%s has a bad cube literal %r=%r" % (where, name, value))
    return cover


def cover_names(cover):
    """Set of variable names a serialized cover mentions."""
    names = set()
    for cube in cover:
        names.update(cube)
    return names


def rebuild_cover(mgr, cover):
    """Rebuild a serialized cover as a :class:`Function` on *mgr*.

    Resolution is by variable name, so the rebuild is independent of
    the producing manager's variable order.  Raises
    :class:`CertificateError` when *mgr* does not know a name.
    """
    known = set(mgr.var_names)
    unknown = cover_names(cover) - known
    if unknown:
        raise CertificateError(
            "cover mentions unknown variable(s) %s"
            % ", ".join(sorted(unknown)))
    node = mgr.false
    for cube in cover:
        term = mgr.true
        # Deepest level first keeps the AND chain linear-time.
        for name in sorted(cube, key=mgr.level_of_var, reverse=True):
            literal = mgr.var(name) if cube[name] else mgr.nvar(name)
            term = mgr.and_(literal, term)
        node = mgr.or_(node, term)
    return Function(mgr, node)


def parse_cert(doc, origin="<certificate>"):
    """Validate a certificate document's envelope; returns *doc*.

    Raises :class:`CertificateError` when the document as a whole is
    unusable (not a dict, wrong magic, newer version, missing step or
    output tables).  Per-step semantic validation is the certifier's
    job (:mod:`repro.analysis.certify`) — it turns problems into
    findings with counterexamples instead of parse errors.
    """
    check_envelope(doc, CERT_FORMAT, CERT_VERSION, CertificateError,
                   "decomposition certificate", origin)
    if not isinstance(doc.get("steps"), list):
        raise CertificateError("certificate has no step list: %s" % origin)
    if not isinstance(doc.get("outputs"), dict):
        raise CertificateError("certificate has no output table: %s"
                               % origin)
    return doc


def load_cert(path):
    """Read and envelope-validate a certificate file.

    Raises :class:`CertificateError` when the file is unreadable, not
    JSON, or fails :func:`parse_cert`.
    """
    doc = load_json(path, CertificateError, "decomposition certificate")
    return parse_cert(doc, origin=path)


def save_cert(path, doc):
    """Write a certificate document as canonical JSON; returns *path*.

    Canonical means ``sort_keys`` + fixed indentation, so two runs that
    produced the same trace write byte-identical files (the parallel
    executor relies on this: ``jobs=1`` and ``jobs=N`` certificates
    must compare equal).  The write is atomic
    (:func:`repro.io.jsonfile.save_json`).
    """
    return save_json(path, doc)


def cert_path_for(emit_path):
    """The certificate path written beside a BLIF at *emit_path*."""
    base, _ext = os.path.splitext(str(emit_path))
    return base + ".cert.json"
