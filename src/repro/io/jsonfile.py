"""Versioned JSON artifacts: one reader, one envelope check, one writer.

The component store, the decomposition certificate and the repolint
baseline are documents of the form ``{"format": <magic>, "version":
<int>, ...}``.  How such a file is read (:func:`load_json`), how its
envelope is validated (:func:`check_envelope`) and how it is written
(:func:`save_json`) is decided here once; each format checks only its
own body.  Unknown keys are ignored and newer versions rejected, so a
format stays forward-compatible within a version.

Writes are canonical (:func:`dumps_json`: ``sort_keys``, fixed
indentation, so equal documents give equal bytes) and atomic (temp file
+ :func:`os.replace`, so a reader never sees a half-written file).  The
temp file is created with mode ``0o666`` less the umask, as a plain
:func:`open` would, not :func:`tempfile.mkstemp`'s ``0o600``.
"""

import itertools
import json
import os


def dumps_json(doc):
    """Canonical JSON text of *doc*, newline-terminated."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path, error, noun):
    """Parse the JSON file at *path*.

    Raises *error* (the format's exception class) when the file cannot
    be read or is not JSON; *noun* names the artifact in the message.
    """
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise error("cannot read %s %s: %s" % (noun, path, exc))
    except ValueError as exc:
        raise error("corrupt %s %s: %s" % (noun, path, exc))


def check_envelope(doc, magic, version, error, noun, origin):
    """Validate *doc*'s format *magic* and version; returns *doc*.

    Raises *error* unless *doc* is a dict whose ``"format"`` is *magic*
    and whose ``"version"`` is an int (not a bool) in ``1..version``.
    *origin* names the document (a path, usually).
    """
    if not isinstance(doc, dict) or doc.get("format") != magic:
        raise error("%s is not a %s" % (origin, noun))
    found = doc.get("version")
    if (not isinstance(found, int) or isinstance(found, bool)
            or not 1 <= found <= version):
        raise error("%s %s has unsupported version %r (this build reads "
                    "1..%d)" % (noun, origin, found, version))
    return doc


def save_json(path, doc):
    """Write *doc* to *path* as canonical JSON, atomically; returns *path*.

    Creates the parent directory when missing.  On any failure the
    temporary file is removed and an existing *path* is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    text = dumps_json(doc)
    base = os.path.join(directory, os.path.basename(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    for attempt in itertools.count():
        tmp_path = "%s.%d.%d.tmp" % (base, os.getpid(), attempt)
        try:
            fd = os.open(tmp_path, flags, 0o666)
        except FileExistsError:
            continue
        break
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
