"""Atomic canonical-JSON writer shared by the store and certificate files.

Canonical (``sort_keys``, fixed indentation): equal documents give equal
bytes.  Atomic (temp file + :func:`os.replace`): a reader never sees a
half-written file.  The temp file is created with mode ``0o666`` less
the umask, as a plain :func:`open` would, not :func:`tempfile.mkstemp`'s
``0o600``.
"""

import itertools
import json
import os


def save_json(path, doc):
    """Write *doc* to *path* as canonical JSON, atomically; returns *path*.

    Creates the parent directory when missing.  On any failure the
    temporary file is removed and an existing *path* is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
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
