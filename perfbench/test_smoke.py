"""The benchmark's own test: every workload at tiny size, untraced and traced.

``run.py --smoke`` exits 0 only if every metric named in BENCHMARK.json is
reported with its unit and every correctness check passes.
"""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
