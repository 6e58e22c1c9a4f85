"""Importing urbanav pins one BLAS thread before NumPy loads, unless the caller set a count."""

import os
import subprocess
import sys

import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints the thread variables as the process sees them once urbanav (and so
# NumPy) is loaded, then the thread count of NumPy's bundled OpenBLAS, or -1
# where NumPy bundles none.
PROBE = """
import ctypes, glob, os
import urbanav, numpy
print(*(os.environ.get(v) for v in {vars!r}))
count = -1
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            count = getattr(lib, name)()
            break
print(count)
"""


def probe(**thread_env) -> tuple[list[str], int]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE.format(vars=THREAD_VARS)], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    return out[0].split(), int(out[1])


def test_import_pins_one_blas_thread():
    seen, blas_threads = probe()
    assert seen == ["1", "1", "1"]
    assert blas_threads in (1, -1)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: OpenBLAS runs one thread anyway")
def test_a_thread_count_the_caller_sets_wins():
    seen, blas_threads = probe(OPENBLAS_NUM_THREADS="2")
    assert seen == ["2", "1", "1"]
    assert blas_threads in (2, -1)
