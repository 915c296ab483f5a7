"""Loader for the BDD kernel's C inner loops and tables (``_kernel.c``).

``BDD.and_``'s miss path, ``quantify._exists_iter``, Fig. 4's EXOR
propagation, the ISOP walk of ``repro.bdd.isop`` and the variable
grouping of ``repro.decomp.grouping`` (Figs. 5 and 6) run in C when this
module could build and load ``_kernel.c``; otherwise they run as Python
loops, which produce the same edges, arena, counters and caches.  The
manager's unique tables, its AND / XOR computed tables and the exists
memo are then :data:`Table` objects, which the C walks probe without
boxing a key; on the fallback they are dicts.

The first import compiles ``_kernel.c`` with ``sysconfig``'s compiler
(``$CC`` when set) against the running interpreter's headers and stores
the extension under ``${XDG_CACHE_HOME:-~/.cache}/repro/``, named by a
hash of the source, the compile flags and ``EXT_SUFFIX``.  Later
processes, forked workers and fresh checkouts load that file without
compiling.  The extension is written to a temporary file and moved into
place with ``os.replace``, and a ``.sha256`` file beside it holds its
digest: a damaged extension is never handed to the dynamic loader (a
truncated shared object can kill the process with SIGBUS rather than
raise).

Nothing here raises.  When the compiler or the headers are missing,
the compile fails, the cache directory cannot be written, or the cached
extension does not match its digest, :data:`ACTIVE` is ``False``,
:data:`REASON` says why, and the kernel runs the Python loops.
"""

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernel.c")
_MODULE = "repro.bdd._kernel"
_COMPILE_TIMEOUT_S = 300


def _cache_dir():
    """Directory holding the compiled extension."""
    base = os.environ.get("XDG_CACHE_HOME")  # repolint: disable=env-read -- picks where the build is cached; kernel results never depend on it
    return os.path.join(base or os.path.join(os.path.expanduser("~"),
                                             ".cache"), "repro")


def _flags(include):
    flags = ["-O2", "-shared", "-fPIC", "-I" + include]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    return flags


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path, data):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def _unlink(path):
    try:
        os.unlink(path)
    except OSError:
        pass


def _compile(compiler, flags, target):
    """Build ``_kernel.c`` into *target*; return None or the failure."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-",
                               suffix=os.path.basename(target))
    os.close(fd)
    try:
        try:
            proc = subprocess.run(compiler + flags + [_SOURCE, "-o", tmp],
                                  stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True,
                                  errors="replace",
                                  timeout=_COMPILE_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as exc:
            return "compiler did not run: %s" % exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return " ".join(["compile failed (exit %d)" % proc.returncode]
                            + tail)
        with open(tmp, "rb") as handle:
            built = handle.read()
        os.replace(tmp, target)
        _write_atomic(target + ".sha256", _digest(built).encode("ascii"))
        return None
    finally:
        _unlink(tmp)


def _intact(target):
    try:
        with open(target + ".sha256", "rb") as handle:
            expected = handle.read().decode("ascii", "replace").strip()
        with open(target, "rb") as handle:
            return _digest(handle.read()) == expected
    except OSError:
        return False


def _load():
    """Return ``(module, None)`` or ``(None, reason)``."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    include = sysconfig.get_paths().get("include") or ""
    if not suffix or not os.path.exists(os.path.join(include, "Python.h")):
        return None, "no Python headers or extension suffix"
    cc = os.environ.get("CC")  # repolint: disable=env-read -- picks the compiler of the build; the C and Python loops give identical results
    flags = _flags(include)
    try:
        compiler = shlex.split(cc or sysconfig.get_config_var("CC") or "cc")
    except ValueError as exc:
        return None, "unusable compiler command: %s" % exc
    try:
        with open(_SOURCE, "rb") as handle:
            source = handle.read()
        key = _digest(source + "\0".join(flags + [suffix]).encode())[:16]
        directory = _cache_dir()
        target = os.path.join(directory, "_kernel-%s%s" % (key, suffix))
        if not (os.path.exists(target)
                and os.path.exists(target + ".sha256")):
            os.makedirs(directory, exist_ok=True)
            failure = _compile(compiler, flags, target)
            if failure is not None:
                return None, failure
    except OSError as exc:
        return None, "cache not writable: %s" % exc
    if not _intact(target):
        return None, "cached extension fails its digest: %s" % target
    try:
        loader = importlib.machinery.ExtensionFileLoader(_MODULE, target)
        spec = importlib.util.spec_from_file_location(_MODULE, target,
                                                      loader=loader)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError) as exc:
        return None, "extension did not load: %s" % exc
    return module, None


#: The loaded extension module, or None when the Python loops run; then
#: REASON says why (it is None while the extension is in use).
KERNEL, REASON = _load()
#: True when the C inner loops are in use.
ACTIVE = KERNEL is not None
#: Type of the kernel's int -> int tables: the extension's exact,
#: insertion-ordered ``Table`` when ACTIVE (the C walks accept nothing
#: else), else ``dict``.
Table = KERNEL.Table if ACTIVE else dict


def _python_loops(mgr):
    """Hold *mgr* on the Python loops (the differential tests' seam)."""
    mgr._kernel = None
    return mgr
