"""The byte gate's own test: its quick run list, the working tree against itself."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent


def _in_a_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "-C", str(TOOLS), "rev-parse", "--show-toplevel"],
                          capture_output=True, text=True)
    return proc.returncode == 0 and Path(proc.stdout.strip()) == TOOLS.parent


@pytest.mark.skipif(not _in_a_git_checkout(), reason="not a git checkout")
def test_the_quick_byte_gate_finds_the_working_tree_equal_to_itself():
    proc = subprocess.run([sys.executable, str(TOOLS / "bytegate.py"), "--quick", "."],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert summary.startswith("bytegate: equal, ")
    assert summary.endswith("(the working tree against itself)")
