"""Importing urbanav pins one BLAS thread before NumPy loads, unless the caller set a count."""

import ctypes
import glob
import inspect
import os
import subprocess
import sys

import numpy
import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def blas_threads() -> int:
    """The thread count of NumPy's bundled OpenBLAS in this process, or -1 where NumPy bundles none."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return -1


# Prints the thread variables as the process sees them once urbanav (and so
# NumPy) is loaded, then ``blas_threads()``.
PROBE = f"""
import ctypes, glob, os
import urbanav, numpy
print(*(os.environ.get(v) for v in {THREAD_VARS!r}))
{inspect.getsource(blas_threads)}
print(blas_threads())
"""


def probe(**thread_env) -> tuple[list[str], int]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    return out[0].split(), int(out[1])


def test_import_pins_one_blas_thread():
    seen, count = probe()
    assert seen == ["1", "1", "1"]
    assert count in (1, -1)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: OpenBLAS runs one thread anyway")
def test_a_thread_count_the_caller_sets_wins():
    seen, count = probe(OPENBLAS_NUM_THREADS="2")
    assert seen == ["2", "1", "1"]
    assert count in (2, -1)


def test_the_test_suite_runs_under_the_pin():
    """``tests/conftest.py`` imports urbanav before NumPy, so these tests run with the
    thread count the pin sets, or with the one the caller set."""
    count = blas_threads()
    if count == -1:
        pytest.skip("NumPy bundles no OpenBLAS")
    assert count == int(os.environ["OPENBLAS_NUM_THREADS"])
