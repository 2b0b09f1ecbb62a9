"""The byte gate's own tests: each check on hand-built output directories, and
its quick run list on the working tree."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
import bytegate  # noqa: E402

OK = [("wrote 1 files to <out>\n", "", 0)]


def passes(tmp_path, free: dict, pinned: dict, streams=OK) -> dict:
    """A run's two passes on one tree, each writing its files under tmp_path."""
    for mode, files in (("free", free), ("pinned", pinned)):
        for name, text in files.items():
            (tmp_path / mode / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / mode / name).write_text(text)
    return {("here", mode): (tmp_path / mode, streams) for mode in ("free", "pinned")}


def test_a_replayed_csv_unlike_its_live_one_is_reported(tmp_path):
    files = {"live/curve.csv": "n\n200\n", "live/records.gidat": "rows",
             "replayed/curve.csv": "n\n200.0\n", "replayed/manifest.json": "{}"}
    assert bytegate.check("replay", passes(tmp_path, files, files)) == [
        f"differs: replay ({mode}, replayed/ against live/): curve.csv"
        for mode in ("free", "pinned")]


def test_a_pinned_file_unlike_its_free_one_is_reported(tmp_path):
    found = bytegate.check("run", passes(tmp_path, {"a.csv": "1\n", "manifest.json": "2 CPUs"},
                                         {"a.csv": "1\n", "manifest.json": "1 CPU"}))
    assert found == ["differs: run (free against pinned): manifest.json"]


def test_a_file_only_one_pass_wrote_is_reported(tmp_path):
    found = bytegate.check("run", passes(tmp_path, {"a.csv": "1\n", "b.csv": "2\n"},
                                         {"a.csv": "1\n", "live/c.csv": "3\n"}))
    assert found == ["differs: run (pinned, replayed/ against live/): only one side wrote c.csv",
                     "differs: run (free against pinned): only one side wrote b.csv, "
                     "only one side wrote live/c.csv"]


def test_a_non_zero_exit_and_a_missing_output_are_reported_on_every_pass(tmp_path):
    failed = OK + [("", "error: refused\n", 2)]
    assert bytegate.check("speckle200", passes(tmp_path, {}, {}, failed)) == [
        f"differs: speckle200 ({mode}): command 2 exit status 2, wrote no coherence_phi1.csv"
        for mode in ("free", "pinned")]


def test_the_quick_byte_gate_finds_the_working_tree_equal_to_itself():
    proc = subprocess.run([sys.executable, str(TOOLS / "bytegate.py"), "--quick", "."],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert summary.startswith("bytegate: equal, ")
    assert summary.endswith("(the working tree against itself)")
