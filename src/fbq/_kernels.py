"""Build, load and bind the package's compiled loops, `_kernels.c`.

The source is compiled on first use with the system C compiler into the
per-user cache, `$XDG_CACHE_HOME/fbq` or `~/.cache/fbq`, a private
directory.  The library is named by the sha256 of the source and the flags,
so an edited source gets a new library and later processes only load it.
`compiled()` returns the five loops typed; every solver and the simulator
run on them, and fbq has no other coding of them.  `fbq_pool_data` makes
a pool's set-up, its zeros and the data its thresholds share, in one
call, and `fbq_pool_system` takes the thresholds of a pool that a call
still needs and returns the number of outcome rows it wrote, one per
threshold solved.  A process tries the build once and keeps the outcome: where the library cannot be
built or loaded (no C compiler, no private cache directory), each call
raises an OSError that names the cause.  No LAPACK is linked:
`fbq_ctmc_rectangle` calls the dgbsv that `dgbsv()` reads from scipy's
`cython_lapack` capsule, on first use, as the function pointer its first
argument takes.

The flags are `-O2`; `-ffp-contract=off`, so that no multiply and add is
fused and each loop does its Python reference's float operations;
`-fvect-cost-model=dynamic`, without which GCC 12's `-O2` cost model
leaves the generator's twist and temper loops scalar; `-fPIC -shared` for
a library; and `-pthread`, since `fbq_speed_family` splits a large family
over threads and `fbq_jump_chain` runs a simulation's replications on
them.  Where GCC or clang targets x86-64 ELF with glibc, a speed family's
tile loop and the generator's block are built as AVX-512F, AVX2 and
baseline clones, and the dynamic loader picks one for the CPU when the
library is loaded; elsewhere the baseline loops are built alone.  Every
clone does each system's and each word's operations as the baseline loop
does, so no output bit depends on the CPU.  Those threads are started and
joined within the call, so none outlives it and a fork between calls is
safe, and the split leaves every output bit as it is on one thread.
`cpus()`, the count of `os.sched_getaffinity(0)`, bounds the thread count
its callers pass; it is read on each call, and no option or environment
variable sets it.
"""

from __future__ import annotations

import collections
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
_FLAGS = ("-O2", "-ffp-contract=off", "-fvect-cost-model=dynamic", "-fPIC", "-shared", "-pthread")

Loops = collections.namedtuple("Loops", "jump_chain ctmc_rectangle speed_family pool_system pool_data")


def cpus() -> int:
    """The number of CPUs this process may run on, `os.sched_getaffinity`'s
    count: the threads that a split of independent work may use."""
    return len(os.sched_getaffinity(0))


def compiled() -> Loops:
    """The library's `fbq_jump_chain`, `fbq_ctmc_rectangle`,
    `fbq_speed_family`, `fbq_pool_system` and `fbq_pool_data` with their C
    signatures; the library is built first if the cache lacks it.  Raises
    OSError, naming the cause, when it cannot be built or loaded here."""
    loops = _bound()
    if isinstance(loops, str):
        raise OSError(f"fbq needs its compiled loops, which cannot be built or loaded here: {loops}")
    return loops


@functools.cache
def dgbsv() -> int:
    """The address of LAPACK's dgbsv in the capsule that
    `scipy.linalg.cython_lapack` exports, the band solver that
    `scipy.linalg.lapack.dgbsv` calls too."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dgbsv"]
    # local prototypes, so that ctypes.pythonapi is left as it is
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return pointer(capsule, name(capsule))


@functools.cache
def _bound() -> Loops | str:
    """The loops of `compiled`, or why the library could not be built or loaded."""
    try:
        return _bind(ctypes.CDLL(str(_library())))
    except OSError as exc:
        return str(exc)


def _bind(lib: ctypes.CDLL) -> Loops:
    """The loops of the loaded library `lib`, typed."""
    i32, i64, dbl = ctypes.c_int, ctypes.c_int64, ctypes.c_double
    p_dbl, p_i64 = ctypes.POINTER(dbl), ctypes.POINTER(i64)
    chain = lib.fbq_jump_chain
    chain.argtypes = [i64, i32, ctypes.POINTER(ctypes.c_uint32), p_dbl, p_dbl, p_dbl, p_i64, p_i64,
                      p_dbl, p_i64, i64, p_i64, p_i64, p_dbl, p_i64]
    chain.restype = None
    ctmc_rectangle = lib.fbq_ctmc_rectangle
    ctmc_rectangle.argtypes = [ctypes.c_void_p, i64, i64, dbl, dbl, p_dbl, p_dbl, i64, p_dbl, p_i64]
    ctmc_rectangle.restype = i32
    family = lib.fbq_speed_family
    family.argtypes = [i64, i32, i64, p_i64, p_dbl, p_dbl, *[dbl] * 4, p_dbl, p_dbl, dbl, dbl, i32, p_dbl,
                       p_dbl, p_i64, p_dbl, p_dbl, p_dbl]
    family.restype = i32
    pool_system = lib.fbq_pool_system
    pool_system.argtypes = [i64, *[dbl] * 4, p_dbl, *[dbl] * 5, p_dbl, dbl, i64, p_i64, p_dbl, p_dbl]
    pool_system.restype = i32
    pool_data = lib.fbq_pool_data
    pool_data.argtypes = [i64, *[dbl] * 5, i32, *[dbl] * 3, p_dbl]
    pool_data.restype = i32
    return Loops(chain, ctmc_rectangle, family, pool_system, pool_data)


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
