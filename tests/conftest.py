import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture
def at_one_blas_thread():
    """Run a script in a fresh interpreter with BLAS at one thread; return its stdout.

    A GEMV's rounding depends on how BLAS splits it over threads, so a bitwise
    comparison of two products is made where neither is split.
    """
    def run(script: str) -> str:
        env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        return proc.stdout.strip()

    return run
