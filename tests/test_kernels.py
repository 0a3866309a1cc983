"""The compiled loops' source, `_kernels.c`, builds without a warning under
the package's own compiler and flags, both as the package builds it and
with its clone macro empty, each variant built once for the module; the
two builds give the same bits; the ctypes signatures that
`fbq._kernels.compiled` gives its loops are the C definitions' parameter
lists, the statuses and row entries that Python reads by value equal the C
enums they mirror, every Python function that its comments cite exists in
fbq or in the test module `reference`, and every `fbq_*` loop that its
comments, the package's modules or the README cite is defined in it; none
of them, nor `reference`, cites a helper that was deleted from it."""

import ctypes
import functools
import importlib
import pathlib
import platform
import re
import subprocess

import numpy as np
import pytest

from fbq import _kernels, ctmc, multi, single
from fbq import simulation as SIM
import reference
from test_family_solve import PINS, THREADS, assert_same_bits, base_model, coarse_k3_family, family_call
from test_simulate import CHAINS

# each C parameter type of the fbq_* definitions, as ctypes passes it
C_TYPES = {
    "int": ctypes.c_int, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
    "uint32_t *": ctypes.POINTER(ctypes.c_uint32), "int64_t *": ctypes.POINTER(ctypes.c_int64),
    "double *": ctypes.POINTER(ctypes.c_double), "dgbsv_fn *": ctypes.c_void_p,
}


# the clone macro defined empty: the loops built for the baseline target
# alone, as on a platform without target_clones or ifuncs
BASELINE = "-DFBQ_CLONES="


def build(path, *options):
    """`_kernels.c` built at path with the package's flags and options: the
    compiler's CompletedProcess."""
    return subprocess.run([_kernels._COMPILER, *_kernels._FLAGS, *options, "-o", str(path),
                           str(_kernels._SOURCE)], capture_output=True, text=True)


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """{variant: (CompletedProcess, library path)} of the dispatched and the
    baseline library, each built once with every warning an error, which
    leaves the library's bytes as they are without those flags."""
    where = tmp_path_factory.mktemp("kernels")
    return {name: (build(where / f"{name}.so", *options, "-Wall", "-Wextra", "-Werror"), where / f"{name}.so")
            for name, options in (("dispatched", ()), ("baseline", (BASELINE,)))}


def test_kernels_build_without_warnings(builds):
    for name, (done, _) in builds.items():
        assert done.returncode == 0, (name, done.stderr)


@pytest.fixture(scope="module")
def baseline_loops(builds):
    done, path = builds["baseline"]
    assert done.returncode == 0, done.stderr
    return _kernels._bind(ctypes.CDLL(str(path)))


def random_family(K, count):
    """count K-level profiles of the figure-4 base with inner speeds drawn
    over its range, and their family."""
    b = PINS["bases"]["figure4"]
    inter = np.sort(np.random.default_rng(K).uniform(b["s0"], b["top"], (count, K - 1)), axis=1)
    levels = np.column_stack([np.full(count, b["s0"]), inter, np.full(count, b["top"])])
    return single._Family(base_model(b), K), levels


def chain_run(loops, chain, monkeypatch):
    """The batch sums, the final counts and the final generator states of
    two 6,000-arrival replications of the jump chain of the CHAINS model
    `chain` on loops, on two threads."""
    model, qs, clamp = CHAINS[chain]
    seen = []

    def spy(reps, threads, mt, *args):
        loops.jump_chain(reps, threads, mt, *args)
        seen.extend(bytes(a) for a in (mt, args[-2], args[-1]))
    with monkeypatch.context() as m:
        m.setattr(_kernels, "compiled", lambda: loops._replace(jump_chain=spy))
        SIM._jump_chain([7, 8], SIM._table(model, qs, clamp), clamp,
                        [[*range(1, 6_000, 137), 6_000], [*range(1, 5_000, 99), 6_000]], 2)
    return seen


def test_clones_give_the_bits_of_the_baseline_build(baseline_loops, monkeypatch):
    dispatched = _kernels.compiled()
    if platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc":
        # the clones are there to be picked, so the comparison is not of one build with itself
        assert re.search(rb"family_tiles\.avx2", _kernels._library().read_bytes())
    figure4 = PINS["bases"]["figure4"]
    families = [coarse_k3_family(figure4), coarse_k3_family(dict(figure4, q=0.0)),
                *(random_family(K, 3_000) for K in (2, 4, 8))]
    assert [f.K for f, _ in families] == [3, 3, 2, 4, 8] and len(families[0][1]) == 5050
    for family, levels in families:
        for threads in THREADS[:2]:
            expected = family_call(baseline_loops, family, levels, threads)
            assert expected[0] == 0
            assert_same_bits(family_call(dispatched, family, levels, threads), expected,
                             (family.K, len(levels), threads))
    assert family_call(dispatched, *families[1], 1)[3][2] > 0   # the clamped finish
    for chain in sorted(CHAINS):
        assert chain_run(dispatched, chain, monkeypatch) == chain_run(baseline_loops, chain, monkeypatch), chain


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


def c_enums():
    """{name: value} of the enumerators of `_kernels.c`'s enums."""
    source = re.sub(r"/\*.*?\*/", "", _kernels._SOURCE.read_text(), flags=re.S)
    values = {}
    for body in re.findall(r"\benum\s*\{(.*?)\}", source, re.S):
        value = -1
        for item in body.split(","):
            name, _, given = item.partition("=")
            value = int(given) if given.strip() else value + 1
            values[name.strip()] = value
    return values


def test_python_mirrors_equal_the_c_enums():
    # the set-up's statuses and the outcome rows' entries of the pool loops,
    # and the rectangle's statuses, which Python reads by value; RECT_SOLVED
    # is the 0 that ctmc reads as no failure
    enums = c_enums()
    pairs = [(name, module, "_" + name.split("_", 1)[1])
             for prefix, module in (("SETUP_", multi), ("ROW_", multi), ("RECT_", ctmc))
             for name in enums if name.startswith(prefix) and name != "RECT_SOLVED"]
    pairs.append(("POOL_INCONSISTENT", multi, "_INCONSISTENT"))
    assert len(pairs) == 9 + 15 + 3 + 1 and enums["RECT_SOLVED"] == 0
    assert [(name, enums[name]) for name, *_ in pairs] == \
        [(name, getattr(module, mirror)) for name, module, mirror in pairs]


def test_python_names_in_the_comments_resolve_in_fbq():
    # a renamed or removed reference would leave the C comments citing code that is gone
    comments = " ".join(re.findall(r"/\*.*?\*/", _kernels._SOURCE.read_text(), re.S))
    cited = set(re.findall(r"\b(?:multi|single|linsys|ctmc|simulation|reference)(?:\.\w+)+", comments))
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


def documenting_texts():
    """{name: text} of the comments of `_kernels.c`, the package's modules
    and the README."""
    source = _kernels._SOURCE
    return {"_kernels.c": " ".join(re.findall(r"/\*.*?\*/", source.read_text(), re.S)),
            **{path.name: path.read_text() for path in sorted(source.parent.glob("*.py"))},
            "README.md": (source.parents[2] / "README.md").read_text()}


def test_cited_loops_are_defined_in_the_c_source():
    # a renamed or removed loop would leave the comments, docstrings or README citing code that is gone
    cited = {name for text in documenting_texts().values() for name in re.findall(r"\bfbq_(\w+)", text)}
    assert len(cited) >= 5
    assert sorted(cited - set(c_definitions())) == []


# helpers deleted from `_kernels.c`: the first passes of the tile and envelope
# eliminations, now made by their row scaling; the one-lane tile width; the
# dense tile elimination with its lane products and the full envelopes, now
# that one envelope elimination serves every system; and the pool's zero
# search as an entry of its own, with the two Python wrappers of the search
# and the shared data, now that one call of fbq_pool_data sets a pool up;
# and the CTMC rectangle's C normalisation, its sum and its two statuses,
# now that ctmc._finish normalises every rectangle
DELETED_HELPERS = ("check_lanes", "env_check", "tile_width", "lu_tile", "sub_products", "env_full",
                   "fbq_pool_roots", "_roots_compiled", "_data_compiled", "reduce_sum", "RECT_TOTAL",
                   "RECT_NEGATIVE")


def test_deleted_helpers_are_cited_nowhere():
    texts = {**documenting_texts(), "reference.py": pathlib.Path(reference.__file__).read_text()}
    cited = [(name, helper) for name, text in texts.items() for helper in DELETED_HELPERS
             if re.search(rf"\b{helper}\b", text)]
    assert cited == []
