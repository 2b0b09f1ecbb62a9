"""Byte gate: every output of a fixed list of runs, at a git revision and here.

    python tools/bytegate.py [--quick] REV

REV is checked out into a temporary ``git worktree``; ``.`` stands for the
working tree itself, which then runs against itself and so checks that the
runs repeat byte for byte.  The other side is always the working tree this
file sits in.  Each run is one or more ``ghostsim`` commands, started as
``python -m ghostsim.cli`` with that side's ``src`` on PYTHONPATH and BLAS at
one thread, once free and, where ``taskset`` exists, once pinned to one CPU.
The two sides of a run are compared on every file the run writes (record
files included), and on each command's stdout and stderr, with the output
directory masked, and its exit status.  Runs that differ are named, and the
last line is one summary:

    bytegate: equal, 34 runs, 270 files (HEAD (6b4c0207bce1) against the working tree)
    bytegate: 2 of 34 runs differ (HEAD (6b4c0207bce1) against the working tree)

The run list is the bench ``converge`` (perfbench's config) at seeds 0, 1 and
7 with records and their replays, a two-seed bench ``sweep-kappa``,
``converge`` and ``sweep-kappa`` at batch 128, 1 and 3, ``converge`` at
``sigma2 = 4``, the 48^2 two-aperture ``speckle`` at 200 and 4000 fields,
and four small ``converge`` configs replayed from their records (default,
3 detector pixels, a narrow window, a mask file).  ``--quick`` keeps a subset
that runs in under 30 s.  Exit status 0 when every run is equal, 1 when one
differs.  The temporary directory follows TMPDIR.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _bench_configs() -> dict[str, str]:
    """The bench's own config text of ``converge`` and ``sweep-kappa``, from
    perfbench/child.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return {"bench-converge": child.config_text("converge", smoke=False),
            "bench-sweep": child.config_text("sweep-kappa", smoke=False)}


def _mask_text() -> str:
    """Two unequal openings in the 561-pixel default object grid."""
    return "".join(f"{v}\n" for n, v in ((240, 0), (20, 1), (40, 0), (10, 1), (251, 0))
                   for _ in range(n))


def run_list(inputs: Path, quick: bool) -> dict[str, list[list[str]]]:
    """Each run's commands, by run name.  A command's ``{out}`` is the run's
    output directory; a replay reads the records its run's converge wrote."""
    configs = {
        "replay": "schedule = 200, 400\n",
        # at 3 pixels a strided and a contiguous GEMV round differently
        "replay3": "detector_points = 3\nwindow = 0, 2\nschedule = 200, 400\n",
        "replay-window": "window = 40, 200\nschedule = 200, 400\n",
        "replay-mask": f"mask_file = {inputs / 'mask.txt'}\nschedule = 200, 400\n",
        "sigma4": "schedule = 200, 500, 777\nsigma2 = 4\n",
        **{f"batch{b}": f"schedule = 200, 500, 777\nbatch = {b}\n" for b in (128, 1, 3)},
        **{f"speckle{n}": "speckle_points = 48\nspeckle_pitch = 40e-6\n"
                          f"speckle_phi_list = 5e-4, 2.5e-4\nspeckle_n = {n}\n"
           for n in (200, 4000)},
    }
    if not quick:
        configs.update(_bench_configs())
    (inputs / "mask.txt").write_text(_mask_text())
    for name, text in configs.items():
        (inputs / f"{name}.cfg").write_text(text)

    def cfg(name: str) -> list[str]:
        return ["--config", str(inputs / f"{name}.cfg")]

    def live_and_replay(name: str, *seed: str) -> list[list[str]]:
        return [["converge", *cfg(name), *seed, "--out-dir", "{out}/live"],
                ["replay", *cfg(name), *seed, "--records", "{out}/live/records.gidat",
                 "--out-dir", "{out}/replayed"]]

    def sweep(name: str) -> list[list[str]]:
        return [["sweep-kappa", *cfg(name), "--tau", "0.2", "--phi-list",
                 "0.608e-3,1.216e-3", "--out-dir", "{out}"]]

    def one(command: str, name: str) -> list[list[str]]:
        return [[command, *cfg(name), "--out-dir", "{out}"]]

    if quick:
        return {
            "replay": live_and_replay("replay"),
            "replay3": live_and_replay("replay3"),
            "replay-mask": live_and_replay("replay-mask"),
            "converge-batch3": one("converge", "batch3"),
            "sweep-batch3": sweep("batch3"),
            "speckle200": one("speckle", "speckle200"),
        }
    return {
        **{f"bench-converge-seed{s}": live_and_replay("bench-converge", "--seed", s)
           for s in ("0", "1", "7")},
        "bench-sweep-seeds0,1": [["sweep-kappa", *cfg("bench-sweep"), "--seed", "0,1",
                                  "--out-dir", "{out}"]],
        **{f"{command}-batch{b}": (one("converge", f"batch{b}") if command == "converge"
                                   else sweep(f"batch{b}"))
           for b in (128, 1, 3) for command in ("converge", "sweep")},
        "converge-sigma4": one("converge", "sigma4"),
        **{f"speckle{n}": one("speckle", f"speckle{n}") for n in (200, 4000)},
        **{name: live_and_replay(name)
           for name in ("replay", "replay3", "replay-window", "replay-mask")},
    }


def run_side(tree: Path, commands: list[list[str]], out: Path, pin: list[str]) -> list[tuple]:
    """Run one run's commands from ``tree`` into ``out``; return each command's
    (stdout, stderr, exit status), with ``out`` and ``tree`` masked."""
    env = {**os.environ, **_ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    results = []
    for command in commands:
        argv = [a.replace("{out}", str(out)) for a in command]
        proc = subprocess.run([*pin, sys.executable, "-m", "ghostsim.cli", *argv], env=env,
                              cwd=out.parent, capture_output=True, text=True)
        results.append(tuple(
            text.replace(str(out), "<out>").replace(str(tree), "<tree>")
            for text in (proc.stdout, proc.stderr)
        ) + (proc.returncode,))
    return results


def files_under(path: Path) -> list[str]:
    return sorted(str(p.relative_to(path)) for p in path.rglob("*") if p.is_file())


def compare(a: Path, b: Path, streams_a: list[tuple], streams_b: list[tuple]) -> list[str]:
    """What differs between two sides of one run: file names, then streams."""
    names_a, names_b = files_under(a), files_under(b)
    if names_a != names_b:
        return [f"file lists {names_a} and {names_b}"]
    diffs = [n for n in names_a if not filecmp.cmp(a / n, b / n, shallow=False)]
    for i, (sa, sb) in enumerate(zip(streams_a, streams_b)):
        diffs += [f"command {i + 1} {what}" for what, x, y in
                  zip(("stdout", "stderr", "exit status"), sa, sb) if x != y]
    return diffs


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", help="git revision to check against the working tree, "
                                "or . for the working tree itself")
    ap.add_argument("--quick", action="store_true", help="a subset that runs in under 30 s")
    args = ap.parse_args(argv)
    # a terminated gate exits through SystemExit, so its worktree is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    here = "the working tree"
    label = f"{here} against itself"
    if args.rev != ".":
        try:
            sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
        except subprocess.CalledProcessError:
            ap.error(f"not a revision: {args.rev}")
        label = f"{args.rev} ({sha[:12]}) against {here}"
    pins = [("free", [])]
    if shutil.which("taskset"):
        pins.append(("pinned", ["taskset", "-c", str(min(os.sched_getaffinity(0)))]))

    with tempfile.TemporaryDirectory(prefix="bytegate-") as tmp:
        tmp = Path(tmp)
        rev_tree = ROOT
        if args.rev != ".":
            rev_tree = tmp / "tree"
            git("worktree", "add", "--detach", "--quiet", str(rev_tree), sha)
        try:
            inputs = tmp / "inputs"
            inputs.mkdir()
            runs = run_list(inputs, args.quick)
            n_differ = n_files = 0
            for mode, pin in pins:
                for name, commands in runs.items():
                    outs = [tmp / side / mode / name for side in ("out-rev", "out-here")]
                    streams = []
                    for tree, out in zip((rev_tree, ROOT), outs):
                        out.parent.mkdir(parents=True, exist_ok=True)
                        streams.append(run_side(tree, commands, out, pin))
                    diffs = compare(*outs, *streams)
                    n_files += len(files_under(outs[0]))
                    if diffs:
                        n_differ += 1
                        print(f"differs: {name} ({mode}): {', '.join(diffs)}")
                    for out in outs:  # a run's record files can be 66 MB each
                        shutil.rmtree(out, ignore_errors=True)
        finally:
            if args.rev != ".":
                git("worktree", "remove", "--force", str(rev_tree))
    total = len(pins) * len(runs)
    if n_differ:
        print(f"bytegate: {n_differ} of {total} runs differ ({label})")
        return 1
    print(f"bytegate: equal, {total} runs, {n_files} files ({label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
