"""The compiled loops' source, `_kernels.c`, builds without a warning."""

import shutil
import subprocess

import pytest

from fbq import _kernels


def test_kernels_build_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    done = subprocess.run(["cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared", "-Wall", "-Wextra",
                           "-Werror", "-o", str(tmp_path / "kernels.so"), str(_kernels._SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
