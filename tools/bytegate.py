"""Byte gate: every output of a fixed list of runs, free against pinned, each
replay against its live run, and at a git revision against the working tree.

    python tools/bytegate.py [--quick] REV

Each run is one or more ``ghostsim`` commands, started as ``python -m
ghostsim.cli`` with a tree's ``src`` on PYTHONPATH and BLAS at one thread.
Each tree runs every run twice: free, and pinned to one CPU with ``taskset``
(free again where ``taskset`` is missing).  A run differs when

- a command exits non-zero, or the run lacks a file in ``MUST_WRITE``;
- a CSV under its ``replayed/`` and the same-named one under its ``live/``
  differ, or only one of them exists;
- its free and pinned passes differ: in the names or bytes of the files
  written (record files included), or in a command's stdout or stderr, with
  the output directory and the tree masked, or its exit status;
- REV and the working tree differ on the same terms, in either pass.

``.`` runs the working tree alone, with no git, and makes every check but
the last; any other REV is checked out into a temporary ``git worktree``.
Each failed check prints ``differs: <run> (<pass>): <what>``, and the last
line is one summary, counting every file the working tree wrote:

    bytegate: equal, 18 runs, 288 files (the working tree against itself)
    bytegate: 2 of 18 runs differ (HEAD (6b4c0207bce1) against the working tree)

``run_list`` holds the runs; ``--quick`` keeps those in ``QUICK``, which run
in under 30 s.  Exit status 0 when every run is equal, 1 when one differs.
The temporary directory follows TMPDIR.
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
# GEMM rounding depends on the BLAS thread count, which pinning would change
# too; one thread leaves the CPUs the only difference between the passes.
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# speckle4000 is the quick list's run whose producer reuses its output blocks:
# speckle200 is one batch per aperture
QUICK = ("converge-batch3", "sweep-batch3", "speckle200", "speckle4000", "replay", "replay3",
         "replay-mask")
# The records hold every row, whichever thread drew it, and coherence_phi1.csv
# is folded in part from the producer's second output block: a pass must write them.
MUST_WRITE = {**{f"converge-batch{b}": "records.gidat" for b in (128, 1, 3)},
              "converge-sigma4": "records.gidat",
              **{f"speckle{n}": "coherence_phi1.csv" for n in (200, 4000)}}


def _bench_configs() -> dict[str, str]:
    """The bench's own config text of ``converge`` and ``sweep-kappa``, from
    perfbench/child.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return {"bench-converge": child.config_text("converge", smoke=False),
            "bench-sweep": child.config_text("sweep-kappa", smoke=False)}


def run_list(inputs: Path, quick: bool) -> dict[str, list[list[str]]]:
    """Each run's commands, by run name.  A command's ``{out}`` is the run's
    output directory; a replay reads the records its run's converge wrote."""
    configs = {
        "replay": "schedule = 200, 400\n",
        # at 3 pixels a strided and a contiguous GEMV round differently
        "replay3": "detector_points = 3\nwindow = 0, 2\nschedule = 200, 400\n",
        # the chirp over a 2.56 mm detector wants more nodes than its 256
        # pixels, so the pixels are the reference arm's nodes
        "replay-pitch": "detector_pitch = 1e-5\nschedule = 200, 400\n",
        # G and the reference are normalized on a window narrower than the grid
        "replay-window": "window = 40, 200\nschedule = 200, 400\n",
        # the pipeline keeps the mask for the operators it builds on first
        # use, which replay never does
        "replay-mask": f"mask_file = {inputs / 'mask.txt'}\nschedule = 200, 400\n",
        # The calling thread claims each block's rows from the head of one
        # queue and the worker from the tail, so which thread draws a row
        # varies, pinned or free: batches of 1 and 3 rows and sigma2 = 4,
        # which scales each row as it is drawn, must come out byte-equal.
        "sigma4": "schedule = 200, 500, 777\nsigma2 = 4\n",
        **{f"batch{b}": f"schedule = 200, 500, 777\nbatch = {b}\n" for b in (128, 1, 3)},
        # the producer alternates two output blocks; 4000 fields at 48^2 are
        # three batches of up to 1820, which use both blocks again
        **{f"speckle{n}": "speckle_points = 48\nspeckle_pitch = 40e-6\n"
                          f"speckle_phi_list = 5e-4, 2.5e-4\nspeckle_n = {n}\n"
           for n in (200, 4000)},
    }
    if not quick:
        configs.update(_bench_configs())
    # two unequal openings in the 561-pixel default object grid
    (inputs / "mask.txt").write_text("".join(
        f"{v}\n" for n, v in ((240, 0), (20, 1), (40, 0), (10, 1), (251, 0)) for _ in range(n)))
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

    runs = {
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
           for name in ("replay", "replay3", "replay-pitch", "replay-window", "replay-mask")},
    }
    return {name: commands for name, commands in runs.items() if not quick or name in QUICK}


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


def files_under(path: Path, pattern: str = "*") -> list[str]:
    return sorted(str(p.relative_to(path)) for p in path.rglob(pattern) if p.is_file())


def compare(a: Path, streams_a: list[tuple], b: Path, streams_b: list[tuple],
            pattern: str = "*") -> list[str]:
    """What differs between two output directories, in the files matching
    ``pattern``, and between their commands' streams."""
    names_a, names_b = files_under(a, pattern), files_under(b, pattern)
    diffs = [f"only one side wrote {n}" for n in sorted(set(names_a) ^ set(names_b))]
    diffs += [n for n in names_a if n in names_b
              and not filecmp.cmp(a / n, b / n, shallow=False)]
    for i, (sa, sb) in enumerate(zip(streams_a, streams_b)):
        diffs += [f"command {i + 1} {what}" for what, x, y in
                  zip(("stdout", "stderr", "exit status"), sa, sb) if x != y]
    return diffs


def failures(name: str, out: Path, streams: list[tuple]) -> list[str]:
    """One pass's non-zero exit statuses, and its missing ``MUST_WRITE`` file."""
    diffs = [f"command {i} exit status {rc}" for i, (*_, rc) in enumerate(streams, 1) if rc]
    if name in MUST_WRITE and not (out / MUST_WRITE[name]).is_file():
        diffs.append(f"wrote no {MUST_WRITE[name]}")
    return diffs


def check(name: str, passes: dict[tuple[str, str], tuple[Path, list[tuple]]]) -> list[str]:
    """Every ``differs`` line of one run, from its output directory and streams
    by (tree, mode): each pass alone, its replay against its live run, free
    against pinned on each tree and, given two trees, one against the other."""
    trees = list(dict.fromkeys(tree for tree, _ in passes))
    modes = list(dict.fromkeys(mode for _, mode in passes))
    at = {tree: f" at {tree}" if len(trees) > 1 else "" for tree in trees}
    found = []
    for (tree, mode), (out, streams) in passes.items():
        found += [(mode + at[tree], failures(name, out, streams)),
                  (f"{mode}{at[tree]}, replayed/ against live/",
                   compare(out / "live", [], out / "replayed", [], "*.csv"))]
    found += [(f"{modes[0]} against {modes[1]}{at[tree]}",
               compare(*passes[tree, modes[0]], *passes[tree, modes[1]])) for tree in trees]
    if len(trees) > 1:
        found += [(f"{mode}, {trees[0]} against {trees[1]}",
                   compare(*passes[trees[0], mode], *passes[trees[1], mode])) for mode in modes]
    return [f"differs: {name} ({where}): {', '.join(diffs)}" for where, diffs in found if diffs]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", help="git revision to check against the working tree, "
                                "or . for the working tree alone")
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
    pins = [("free", []), ("free again", [])]
    if shutil.which("taskset"):
        pins[1] = ("pinned", ["taskset", "-c", str(min(os.sched_getaffinity(0)))])

    with tempfile.TemporaryDirectory(prefix="bytegate-") as tmp:
        tmp = Path(tmp)
        trees = {here: ROOT}
        if args.rev != ".":
            trees = {args.rev: tmp / "tree", here: ROOT}
            git("worktree", "add", "--detach", "--quiet", str(trees[args.rev]), sha)
        try:
            inputs = tmp / "inputs"
            inputs.mkdir()
            runs = run_list(inputs, args.quick)
            n_differ = n_files = 0
            for name, commands in runs.items():
                passes = {}
                for i, (tree_name, tree) in enumerate(trees.items()):
                    for mode, pin in pins:
                        out = tmp / f"out{i}" / mode / name
                        out.parent.mkdir(parents=True, exist_ok=True)
                        passes[tree_name, mode] = out, run_side(tree, commands, out, pin)
                        n_files += len(files_under(out)) if tree == ROOT else 0
                lines = check(name, passes)
                n_differ += bool(lines)
                for line in lines:
                    print(line)
                for out, _ in passes.values():  # a run's record files can be 66 MB each
                    shutil.rmtree(out, ignore_errors=True)
        finally:
            if args.rev != ".":
                git("worktree", "remove", "--force", str(trees[args.rev]))
    if n_differ:
        print(f"bytegate: {n_differ} of {len(runs)} runs differ ({label})")
        return 1
    print(f"bytegate: equal, {len(runs)} runs, {n_files} files ({label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
