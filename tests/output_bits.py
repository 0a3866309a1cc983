"""Digests of the published outputs of fbq: figures 3-8, the CLI's JSON
and the stdout of the demos.

Each output is made in this process as a user gets it: each figure by
`fbq reproduce-figure N --out FILE`, as its CSV text and its metadata file;
each command of COMMANDS by `fbq.cli.main`, as its exit code and stdout;
and each script of demos/ run as __main__, as its stdout, in a scratch
directory, since 02_policy_comparison.py writes a CSV into the working
directory.  The digest of an output is the sha256 of that text, so a
change that moves one printed digit of one output moves its digest.  Every
model of COMMANDS is stable, and each solve-single command takes another
route of `fbq.solve`: the K = 1 closed form, the general solver and the
zero-speed closed form.

Run as a script from the root of a checkout, it writes
`tests/data/output_bits.json`, {output name: digest}; a test compares the
outputs with that file and names every output whose digest moved.

    PYTHONPATH=src python tests/output_bits.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import runpy
import tempfile

from fbq.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "data" / "output_bits.json"
FIGURES = range(3, 9)

SINGLE = ("--lambda", "2.5", "--nu1", "5", "--nu2", "1", "--q", "0.1", "--alpha", "2")
POOL = ("--lambda", "5", "--mu1", "1", "--mu2", "0.2", "--q", "0.1", "--m", "10")
COMMANDS = {
    "solve-single K=1": ("solve-single", *SINGLE, "--speeds", "0.2,1"),
    "solve-single K=2": ("solve-single", *SINGLE, "--speeds", "0,0.6,1"),
    "solve-single zero speeds": ("solve-single", *SINGLE, "--speeds", "0,0,0,1"),
    "solve-multi": ("solve-multi", *POOL, "--threshold", "5"),
    "optimize-speeds K=2": ("optimize-speeds", *SINGLE, "--speeds", "0,1", "--c2", "20", "--K", "2"),
    "optimize-speeds K=3": ("optimize-speeds", *SINGLE, "--speeds", "0,1", "--c2", "20", "--K", "3"),
    "optimize-threshold": ("optimize-threshold", *POOL, "--c2", "1"),
    "validate single": ("validate", "single", *SINGLE, "--speeds", "0.2,1"),
    "validate multi": ("validate", "multi", "--lambda", "2", "--mu1", "1", "--mu2", "0.5", "--q", "0.25",
                       "--m", "4", "--threshold", "1"),
}


def _run(fn, *args):
    """fn(*args)'s return value and what it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        value = fn(*args)
    return value, out.getvalue()


def outputs() -> dict[str, str]:
    """{output name: its text} over the figures, COMMANDS and the demos."""
    texts = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for n in FIGURES:
            csv = pathlib.Path(scratch, f"figure{n}.csv")
            main(["reproduce-figure", str(n), "--out", str(csv)])
            texts[f"figure {n} csv"] = csv.read_text()
            texts[f"figure {n} metadata"] = pathlib.Path(f"{csv}.meta.json").read_text()
        for name, argv in COMMANDS.items():
            code, text = _run(main, list(argv))
            texts[name] = f"exit {code}\n{text}"
        os.chdir(scratch)
        try:
            for demo in sorted((ROOT / "demos").glob("*.py")):
                _, texts[f"demo {demo.name}"] = _run(runpy.run_path, str(demo), None, "__main__")
        finally:
            os.chdir(cwd)
    return texts


def digests() -> dict[str, str]:
    """{output name: sha256 of its text}."""
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs().items()}


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1) + "\n")
