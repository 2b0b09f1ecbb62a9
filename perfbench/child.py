"""One benchmark repeat in a fresh process: run a workload, time it, check it.

Started by ``run.py``, never by hand.  The workload goes through
``ghostsim.cli.main`` with the same arguments a user would type, so the call
sequence is the CLI's own.  Every command's outputs are checked, and the
timings, checks and peak resident memory are written to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import CommandSpans, Tracer, install_coarse, install_layers  # noqa: E402

# Aperture width per unit kappa on the default two-slit geometry:
# wavelength * d1 / slit_width = 0.532 um * 60 mm / 105 um.
KAPPA_UNIT = 3.04e-4
CONVERGE_SCHEDULE = (1000, 2000, 4000, 8000, 16000, 32000)
SWEEP_KAPPAS = (4, 8, 12)

# A small grid for the smoke mode: every code path, well under a second.
SMOKE_GRID = """\
source_points = 128
source_pitch = 8e-6
object_points = 141
object_pitch = 3e-6
detector_points = 64
detector_pitch = 6e-6
"""


def geometric_schedule(start: int, cap: int, ratio: float = 1.25) -> tuple[int, ...]:
    out = []
    n = start
    while n < cap:
        out.append(n)
        n = round(n * ratio)
    return tuple(out)


def _csv(values) -> str:
    return ", ".join(repr(v) for v in values)


def config_text(workload: str, smoke: bool) -> str:
    """The config file of a workload; the seed comes from the command line."""
    if workload in ("converge", "replay"):
        if smoke:
            return SMOKE_GRID + "phi = 0.8e-3\nschedule = 300, 600\ntau = 0.5\n"
        return f"schedule = {_csv(CONVERGE_SCHEDULE)}\n"
    if workload == "sweep-kappa":
        if smoke:
            return (SMOKE_GRID + "phi_list = 0.6e-3, 0.9e-3\ntau = 0.35\n"
                    f"schedule = {_csv(geometric_schedule(200, 5000))}\n")
        return (
            "source_points = 512\nsource_pitch = 10e-6\ntau = 0.07\n"
            f"phi_list = {_csv([k * KAPPA_UNIT for k in SWEEP_KAPPAS])}\n"
            f"schedule = {_csv(geometric_schedule(2000, 530_000))}\n"
        )
    raise ValueError(f"unknown workload {workload!r}")


# -- checks: properties every valid RNG stream must satisfy ---------------------


def _read_curve(path: Path) -> list[tuple[int, float, float, float]]:
    _, *rows = path.read_text().strip().splitlines()
    return [(int(n), float(g), float(lo), float(hi))
            for n, g, lo, hi in (r.split(",") for r in rows)]


def check_converge(config, out: Path) -> list[str]:
    """Final eps_global <= tau, and W*g^2 = L*low^2 + H*high^2 at every point."""
    curve = _read_curve(out / "curve.csv")
    fails = []
    if [p[0] for p in curve] != list(config.schedule):
        fails.append(f"curve checkpoints {[p[0] for p in curve]} != schedule")
    if curve and not curve[-1][1] <= config.tau:
        fails.append(f"final eps_global {curve[-1][1]} > tau {config.tau}")
    lo, hi = config.window if config.window else (0, config.detector_points - 1)
    w = hi - lo + 1
    n_low = w // 3
    for n, g, el, eh in curve:
        lhs, rhs = w * g * g, n_low * el * el + (w - n_low) * eh * eh
        if abs(lhs - rhs) > 1e-9 * lhs:
            fails.append(f"band partition identity broken at N={n}: {lhs} vs {rhs}")
    return fails


def check_replay(live: Path, out: Path) -> list[str]:
    """Curve and every pattern snapshot are byte-equal to the live run's."""
    names = sorted(p.name for p in live.glob("pattern_N*.csv")) + ["curve.csv"]
    got = sorted(p.name for p in out.glob("pattern_N*.csv")) + ["curve.csv"]
    if names != got:
        return [f"replay wrote {got}, live run wrote {names}"]
    return [f"{n} differs from the live run" for n in names
            if (out / n).read_bytes() != (live / n).read_bytes()]


def check_sweep(config, points) -> list[str]:
    """Each n_star is scheduled, has eps <= tau, and every earlier eps > tau."""
    fails = []
    for p in points:
        s = p.search
        ns = [c.n for c in s.curve]
        if ns != list(config.schedule[: len(ns)]):
            fails.append(f"phi={p.phi}: checkpoints {ns} are not a schedule prefix")
        if not s.reached or s.n_star not in config.schedule:
            fails.append(f"phi={p.phi}: n_star {s.n_star} is not a scheduled N")
            continue
        for c in s.curve:
            if c.n < s.n_star and not c.eps_global > config.tau:
                fails.append(f"phi={p.phi}: eps {c.eps_global} <= tau at N={c.n} < n_star")
            if c.n == s.n_star and not c.eps_global <= config.tau:
                fails.append(f"phi={p.phi}: eps {c.eps_global} > tau at n_star")
    return fails


# -- running ---------------------------------------------------------------------


def package_versions() -> dict:
    import ghostsim
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict form of the build config
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "ghostsim": ghostsim.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="output directory")
    ap.add_argument("--live", type=Path, help="replay: the converge run's directory")
    ap.add_argument("--slice", type=float, default=0.0,
                    help="replay: keep replaying until this many seconds have passed")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", type=int, default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import ghostsim
    import ghostsim.cli as cli
    from ghostsim.config import load_config

    if Path(ghostsim.__file__).resolve().parent != ROOT / "src" / "ghostsim":
        raise SystemExit(f"ghostsim imported from {ghostsim.__file__}, not {ROOT / 'src'}")

    args.out.mkdir(parents=True, exist_ok=True)
    cfg_path = args.out / "workload.cfg"
    cfg_path.write_text(config_text(args.workload, bool(args.smoke)))
    config = load_config(cfg_path, {"seed": args.seed})

    tracer = Tracer()
    install_coarse(tracer)
    if args.trace:
        install_layers(tracer)
    captured = {}
    run_kappa_sweep = cli.run_kappa_sweep

    def capture_sweep(cfg):
        captured["points"] = run_kappa_sweep(cfg)
        return captured["points"]

    cli.run_kappa_sweep = capture_sweep

    common = ["--config", str(cfg_path), "--seed", str(args.seed), "--out-dir", str(args.out)]
    if args.workload == "replay":
        argv_cmd = ["replay", "--records", str(args.live / "records.gidat")] + common
    else:
        argv_cmd = [args.workload] + common

    def check() -> list[str]:
        if args.workload == "converge":
            return check_converge(config, args.out)
        if args.workload == "replay":
            return check_replay(args.live, args.out)
        return check_sweep(config, captured.get("points", []))

    commands = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv_cmd)
            t1 = time.perf_counter()
            fails = [f"exit code {rc}"] if rc != 0 else check()
        except Exception:  # a crashed command is a failed operation, not a crashed benchmark
            t1 = time.perf_counter()
            fails = [traceback.format_exc(limit=3)]
        spans = CommandSpans(tracer.spans, t0, t1)
        record = {
            "wall_s": t1 - t0,
            "setups_s": spans.setups_s(),
            "mc_s": spans.mc_s(),
            "realizations": spans.items("correlation.fold_batch"),
            "latencies_s": (
                [s.duration for s in spans.named("experiments.replay_converge")]
                if args.workload == "replay" else spans.fold_intervals()
            ),
            "failures": fails,
        }
        if args.trace:
            record["layers"] = spans.layer_metrics()
        commands.append(record)
        if time.perf_counter() - begin >= args.slice:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.dump(args.out / "spans.jsonl")
    args.result.write_text(json.dumps({
        "commands": commands,
        "peak_rss_mb": rss_mb,
        "environment": package_versions(),
        "config": config.to_dict(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
