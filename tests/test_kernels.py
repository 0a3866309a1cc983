"""The compiled loops' source, `_kernels.c`, builds without a warning under
the package's own compiler and flags, the ctypes signatures that
`fbq._kernels.compiled` gives its loops are the C definitions' parameter
lists, and every Python function that its comments cite exists in fbq or
in the test module `reference`."""

import ctypes
import functools
import importlib
import re
import subprocess

from fbq import _kernels

# each C parameter type of the fbq_* definitions, as ctypes passes it
C_TYPES = {
    "int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
    "uint32_t *": ctypes.POINTER(ctypes.c_uint32), "int64_t *": ctypes.POINTER(ctypes.c_int64),
    "double *": ctypes.POINTER(ctypes.c_double),
}


def test_kernels_build_without_warnings(tmp_path):
    done = subprocess.run([_kernels._COMPILER, *_kernels._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernels.so"), str(_kernels._SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def c_definitions():
    """{loop: (return type, [parameter types])} of the fbq_* functions
    defined in `_kernels.c`, with `const` dropped."""
    found = re.findall(r"^(\w+) fbq_(\w+)\(([^)]*)\)\s*\{", _kernels._SOURCE.read_text(), re.M)
    return {name: (ret, [re.sub(r"^const |\s*\w+$", "", " ".join(p.split())) for p in params.split(",")])
            for ret, name, params in found}


def test_bound_loops_match_the_c_signatures():
    loops = _kernels.compiled()
    defs = c_definitions()
    assert sorted(defs) == sorted(loops._fields)
    for name, (ret, params) in defs.items():
        fn = getattr(loops, name)
        assert len(fn.argtypes) == len(params), name
        assert list(fn.argtypes) == [C_TYPES[p] for p in params], name
        assert (fn.restype is None) == (ret == "void"), name
        assert ret == "void" or fn.restype is C_TYPES[ret], name


def test_python_names_in_the_comments_resolve_in_fbq():
    # a renamed or removed reference would leave the C comments citing code that is gone
    comments = " ".join(re.findall(r"/\*.*?\*/", _kernels._SOURCE.read_text(), re.S))
    cited = set(re.findall(r"\b(?:multi|single|linsys|ctmc|simulate|reference)(?:\.\w+)+", comments))
    assert len(cited) >= 15
    missing = []
    for name in sorted(cited):
        module, *path = name.split(".")
        try:
            functools.reduce(getattr, path,
                             importlib.import_module(module if module == "reference" else f"fbq.{module}"))
        except AttributeError:
            missing.append(name)
    assert missing == []

