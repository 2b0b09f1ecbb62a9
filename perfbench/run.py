"""ghostsim benchmark: end-to-end and per-layer figures for fixed workloads.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the program under test is ``src/ghostsim`` next to this
directory.  Each repeat runs in a fresh child process (``child.py``), one at
a time, with BLAS pinned to one thread, so that peak RSS belongs to that
workload alone.  Children are launched until ``--seconds`` of measurement
have passed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates traced and untraced children and prints the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A full report
with the environment goes to ``perfbench/out/<run>/report.json``.

Workloads, metrics and the layer-to-metric predictions are described in
``perfbench/README.md``; names and units must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

# BLAS pinned to one thread in every child; recorded in the report.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("converge", "replay", "sweep-kappa")
# Replay children loop over replays for this long, so a fresh process
# starts, and reports its own peak RSS, every slice.
REPLAY_SLICE_S = 10.0
# sweep-kappa's work is set by N*, which the RNG stream fixes and which
# varies with the seed, so its whole-command wall time is reported scaled to
# this many realizations folded (about the median over seeds 0-7).
SWEEP_WALL_REALIZATIONS = 40_000
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "realizations_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "peak_rss_mb": "MB",
}


# -- environment -------------------------------------------------------------------


def _llc() -> str:
    best = (0, "unknown")
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    if best[0]:
        return best[1]
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    caches = [line.split(":", 1)[1].strip() for line in out.splitlines()
              if line.startswith("L3 cache") or line.startswith("L2 cache")]
    return caches[-1] if caches else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ghostsim").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "blas_threads": PINNED_ENV,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "last_level_cache": _llc(),
        "load_average_start": os.getloadavg(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- children ----------------------------------------------------------------------


class Run:
    """Launches children one at a time and collects their commands."""

    def __init__(self, workload: str, seed: int, smoke: bool, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def launch(self, workload: str, out: Path, traced: bool, slice_s: float = 0.0,
               live: Path | None = None) -> dict | None:
        n = len(self.children)
        result = self.run_dir / f"child{n}.json"
        cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(self.seed),
               "--out", str(out), "--trace", str(int(traced)), "--smoke", str(int(self.smoke)),
               "--slice", str(slice_s), "--result", str(result)]
        if live is not None:
            cmd += ["--live", str(live)]
        budget = CHILD_TIMEOUT_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, capture_output=True,
                                  text=True, timeout=max(budget, 5.0))
            ok = proc.returncode == 0 and result.exists()
            why = proc.stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            ok, why = False, f"child timed out after {budget:.0f} s"
        elapsed = time.monotonic() - t0
        if not ok:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{workload} child {n} failed: {why}")
            self.children.append({"workload": workload, "traced": traced, "elapsed_s": elapsed,
                                  "commands": []})
            return None
        child = json.loads(result.read_text())
        child.update(workload=workload, traced=traced, elapsed_s=elapsed)
        for c in child["commands"]:
            self.attempted += 1
            if c["failures"]:
                self.failed += 1
                self.failures.extend(f"{workload}: {f}" for f in c["failures"])
        self.children.append(child)
        return child

    def measure(self, seconds: float, trace: bool) -> None:
        """Launch children until the measured time is used up."""
        live = None
        if self.workload == "replay":
            # The records file replay reads, written by a converge run with the
            # same config and seed; set-up, not measured.
            live = self.run_dir / "live"
            if self.launch("converge", live, traced=False) is None:
                return
        out = self.run_dir / "work"
        begin = time.monotonic()
        done = 0
        while True:
            elapsed = time.monotonic() - begin
            durations = [c["elapsed_s"] for c in self.children[-done:]] if done else []
            predicted = statistics.median(durations) if durations else 0.0
            need = 2 if trace else 1
            if done >= need and elapsed + 0.5 * predicted >= seconds:
                break
            if time.monotonic() - self.started > CHILD_TIMEOUT_S - 2 * predicted:
                break
            slice_s = 0.0
            if self.workload == "replay":
                slice_s = min(REPLAY_SLICE_S, max(seconds - elapsed, 0.0))
            traced = trace and done % 2 == 0
            self.launch(self.workload, out, traced, slice_s, live)
            done += 1

    def measured(self, traced: bool) -> list[dict]:
        return [c for c in self.children if c["workload"] == self.workload
                and c["traced"] == traced and c["commands"]]


# -- metrics -----------------------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(run: Run) -> tuple[dict, dict]:
    children = run.measured(traced=False)
    # A command that crashed before its Monte Carlo phase has no timings.
    commands = [c for ch in children for c in ch["commands"] if c["mc_s"] > 0]
    if not commands:
        raise RuntimeError("no untraced command completed")
    # A vCPU here runs about 1.5x slower while its host sibling is busy, and a
    # process mostly stays on one vCPU, so each command runs either fast or
    # slow.  A median over commands flips between the two speeds; sums and
    # means move smoothly with their mix, so the timings below use them.
    sweep = run.workload == "sweep-kappa"
    walls = [c["wall_s"] * (SWEEP_WALL_REALIZATIONS / c["realizations"] if sweep else 1.0)
             for c in commands]
    setups = [x for c in commands for x in c["setups_s"]]
    rss = [ch["peak_rss_mb"] for ch in children]
    # Latency percentiles are taken per process run: one live command, or
    # one child's slice of replays.
    units = [[x for c in ch["commands"] for x in c["latencies_s"]] for ch in children]
    units = [u for u in units if u]
    p50 = [statistics.median(u) for u in units]
    p90 = [statistics.quantiles(u, n=10, method="inclusive")[8] if len(u) > 1 else u[0]
           for u in units]
    values = {
        "realizations_per_s": (sum(c["realizations"] for c in commands)
                               / sum(c["mc_s"] for c in commands)),
        "wall_s": statistics.mean(walls),
        "setup_s": statistics.median(setups),
        "latency_s.p50": statistics.mean(p50),
        "latency_s.p90": statistics.mean(p90),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "realizations_per_s": {"commands": len(commands),
                               "realizations": sum(c["realizations"] for c in commands)},
        "wall_s": {"n": len(walls), "quartiles": _quartiles(walls)},
        "setup_s": {"n": len(setups), "quartiles": _quartiles(setups)},
        "latency_s.p50": {"per_process": p50, "samples": [len(u) for u in units]},
        "latency_s.p90": {"per_process": p90, "samples": [len(u) for u in units]},
        "peak_rss_mb": {"n": len(rss), "quartiles": _quartiles(rss)},
    }
    return values, detail


def per_layer(run: Run) -> tuple[dict, dict]:
    traced = run.measured(traced=True)
    plain = run.measured(traced=False)
    commands = [c for ch in traced for c in ch["commands"]]
    if not commands or not plain:
        raise RuntimeError("a traced run needs one traced and one untraced child")
    names = commands[0]["layers"].keys()
    values = {n: statistics.median(c["layers"][n] for c in commands) for n in names}
    traced_wall = statistics.median(c["wall_s"] for c in commands)
    plain_wall = statistics.median(c["wall_s"] for ch in plain for c in ch["commands"])
    values["tracing.overhead_ratio"] = traced_wall / plain_wall
    detail = {"traced_commands": len(commands), "traced_wall_s": traced_wall,
              "untraced_wall_s": plain_wall}
    return values, detail


def units_for(metrics: dict) -> dict:
    return {n: {**END_TO_END_UNITS, **LAYER_UNITS}[n] for n in metrics}


# -- entry points ------------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
             quiet: bool = False) -> dict:
    run_dir = OUT / f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(seed)
    run = Run(workload, seed, smoke, run_dir)
    run.measure(seconds, trace)
    values, detail = per_layer(run) if trace else end_to_end(run)
    env["load_average_end"] = os.getloadavg()
    first = next(c for c in run.children if c["commands"])
    env.update(first["environment"])
    # Record the size, then delete the records files: a 66 MB file per run
    # would pile up over a series of runs in one checkout.
    for records in run_dir.rglob("records.gidat"):
        env["records_file_bytes"] = records.stat().st_size
        records.unlink()
    if workload == "replay":
        env["replay_reads"] = ("the page cache: the records file was written by the "
                               "converge run just before, not read back from disk")
    units = units_for(values)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in values},
    }
    report = {"workload": workload, "trace": trace, "seconds": seconds, "environment": env,
              "result": result, "detail": detail, "failures": run.failures,
              "children": [{k: v for k, v in c.items() if k != "commands"} | {
                  "commands": len(c["commands"])} for c in run.children]}
    (run_dir / "report.json").write_text(json.dumps(report, indent=2))
    if not quiet:
        print(f"perfbench {workload} seed={seed} trace={int(trace)}: "
              f"{len(run.children)} children, {run.attempted} commands")
        for n in values:
            extra = detail.get(n, {})
            print(f"  {n} = {values[n]:.6g} {units[n]}  {json.dumps(extra)}")
        if trace:
            print(f"  tracing overhead: traced wall {detail['traced_wall_s']:.4g} s against "
                  f"untraced {detail['untraced_wall_s']:.4g} s")
        share = run.failed / run.attempted if run.attempted else 1.0
        print(f"  failed checks: {run.failed}/{run.attempted} ({100 * share:.1f}%)")
        for f in run.failures[:5]:
            print(f"  failure: {f}")
        print(f"  environment: {json.dumps(env)}")
    return result


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, once; assert that every
    metric named in BENCHMARK.json is present with its unit and every check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run_once(workload, 0, 0.0, trace, smoke=True, quiet=True)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {declared[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed checks")
    for p in problems:
        print(p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args(argv)
    # A terminated run exits through SystemExit, so subprocess.run kills and
    # reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ghostsim" / "__init__.py").is_file():
        print(f"error: no ghostsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
