"""Build and load the package's compiled loops, `_kernels.c`.

The source is compiled on first use with the system C compiler into the
per-user cache, `$XDG_CACHE_HOME/fbq` or `~/.cache/fbq`, a private
directory.  The library is named by the sha256 of the source and the flags,
so an edited source gets a new library and later processes only load it.
Each caller keeps its Python loop as the reference and falls back to it when
`load` raises OSError.  A process tries the build once and keeps its outcome.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import pathlib
import subprocess
import tempfile
import time

log = logging.getLogger("fbq.kernels")

_SOURCE = pathlib.Path(__file__).with_name("_kernels.c")
_COMPILER = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def load(name: str):
    """The C function `name` of the library, built first if the cache lacks
    it.  Raises OSError when it cannot be built or loaded here."""
    lib = _outcome()
    if isinstance(lib, OSError):
        raise lib
    return getattr(ctypes.CDLL(str(lib)), name)


@functools.cache
def _outcome() -> pathlib.Path | OSError:
    """`_library()`'s path, or the OSError it raised, kept for the process."""
    try:
        return _library()
    except OSError as exc:
        return exc


def _library() -> pathlib.Path:
    """The shared library in the per-user cache.  It is compiled under a
    temporary name and moved into place, so processes that build it at once
    each load a whole file."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = pathlib.Path(base, "fbq")
    if not cache.is_absolute():
        raise OSError("no home directory for the kernel cache")
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = cache.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{cache} is not a private directory")
    digest = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_FLAGS).encode()).hexdigest()
    lib = cache / f"{_SOURCE.stem}-{digest}.so"
    if lib.exists():
        return lib
    start = time.perf_counter()
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run([_COMPILER, *_FLAGS, "-o", tmp, str(_SOURCE)], capture_output=True,
                              text=True, errors="replace")
        if done.returncode:
            raise OSError(f"{_COMPILER} exited with status {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    log.debug("built %s in %.2f s", lib, time.perf_counter() - start)
    return lib
