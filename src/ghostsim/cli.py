"""Command line harness.

Subcommands map one-to-one onto the experiment pipelines:

    converge     error curve + pattern snapshots for a single aperture
    sweep-kappa  minimal-N search across an aperture list
    bands        low/high-band errors at the crossing checkpoint
    speckle      2D instantaneous speckle + coherence-width survey
    replay       recompute converge outputs from a stored record file

Every run writes CSV data plus a manifest.json echoing the exact
configuration and the source-stream version, so any output can be
regenerated from its manifest alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, config_from_values, load_config
from .errors import ConfigError, RecordFormatError
from .experiments import (
    ConvergenceResult,
    GhostPipeline,
    record_header_for,
    replay_converge,
    run_converge,
    run_kappa_sweep,
    run_speckle,
)
from .fields import STREAM_VERSION
from .records import RecordWriter


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_curve_csv(path: Path, curve) -> None:
    lines = ["n,eps_global,eps_low,eps_high"]
    for p in curve:
        lines.append(f"{p.n},{_fmt(p.eps_global)},{_fmt(p.eps_low)},{_fmt(p.eps_high)}")
    _write_lines(path, lines)


def write_pattern_csv(path: Path, reconstruction, reference) -> None:
    lines = ["position_m,reconstruction,reference"]
    coords = reconstruction.grid.coords(0)
    for x, yr, yt in zip(coords, reconstruction.samples, reference.samples):
        lines.append(f"{_fmt(float(x))},{_fmt(float(yr))},{_fmt(float(yt))}")
    _write_lines(path, lines)


def write_kappa_csv(path: Path, points) -> None:
    lines = ["phi_m,kappa,n_star,reached,eps_global,eps_low,eps_high"]
    for p in points:
        at = p.search.crossing
        n_star = str(p.search.n_star) if p.search.reached else ""
        lines.append(
            f"{_fmt(p.phi)},{_fmt(p.kappa)},{n_star},{_fmt(p.search.reached)},"
            f"{_fmt(at.eps_global)},{_fmt(at.eps_low)},{_fmt(at.eps_high)}"
        )
    _write_lines(path, lines)


def write_bands_csv(path: Path, points) -> None:
    lines = ["phi_m,kappa,n,reached,eps_global,eps_low,eps_high"]
    for p in points:
        at = p.search.crossing
        lines.append(
            f"{_fmt(p.phi)},{_fmt(p.kappa)},{at.n},{_fmt(p.search.reached)},"
            f"{_fmt(at.eps_global)},{_fmt(at.eps_low)},{_fmt(at.eps_high)}"
        )
    _write_lines(path, lines)


def write_speckle_csv(path: Path, points) -> None:
    lines = ["phi_m,n,l_c_m,fwhm_axis0_m,fwhm_axis1_m"]
    for p in points:
        lines.append(
            f"{_fmt(p.phi)},{p.n},{_fmt(p.l_c)},{_fmt(p.fwhm_axis0)},{_fmt(p.fwhm_axis1)}"
        )
    _write_lines(path, lines)


def write_grid_csv(path: Path, pattern) -> None:
    lines = [",".join(_fmt(float(v)) for v in row) for row in pattern.samples]
    _write_lines(path, lines)


def write_manifest(path: Path, command: str, config: ExperimentConfig,
                   outputs, notes=(), stream: int = STREAM_VERSION) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "config": config.to_dict(),
        "outputs": sorted(Path(o).relative_to(path.parent).as_posix() for o in outputs),
        "sampling_notes": list(notes),
        "stream": stream,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostsim",
        description="Monte Carlo two-arm intensity-correlation experiments.",
    )
    parser.add_argument("--version", action="version", version=f"ghostsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "converge": "run one aperture over the full schedule",
        "sweep-kappa": "minimal-N threshold search across an aperture list",
        "bands": "band-resolved errors at the threshold crossing",
        "speckle": "2D speckle snapshot and coherence-width survey",
        "replay": "recompute converge outputs from a record file",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="key = value config file")
        sp.add_argument("--seed", type=int, help="base RNG seed")
        sp.add_argument("--workers", type=int,
                        help="ignored (runs fold in order on one thread)")
        sp.add_argument("--out-dir", type=Path, help="output directory")
        sp.add_argument("--tau", type=float, help="convergence threshold")
        sp.add_argument("--schedule", type=str, help="comma-separated checkpoint counts")
        sp.add_argument("--phi-list", type=str, help="comma-separated apertures [m]")
        sp.add_argument(
            "--override-geometry", action="store_true",
            help="allow d != d1 + d2 (exploratory runs)",
        )
        if name == "replay":
            sp.add_argument("--records", type=Path, required=True,
                            help="records.gidat file from a converge run")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.tau is not None:
        overrides["tau"] = args.tau
    if args.schedule is not None:
        try:
            overrides["schedule"] = tuple(int(p) for p in args.schedule.split(","))
        except ValueError:
            raise ConfigError(f"bad --schedule {args.schedule!r}") from None
    if args.phi_list is not None:
        try:
            overrides["phi_list"] = tuple(float(p) for p in args.phi_list.split(","))
        except ValueError:
            raise ConfigError(f"bad --phi-list {args.phi_list!r}") from None
    if args.override_geometry:
        overrides["allow_geometry_mismatch"] = True
    if args.config is not None:
        return load_config(args.config, overrides)
    return config_from_values(overrides)


def _out_dir(args) -> Path:
    out = args.out_dir if args.out_dir is not None else Path(f"ghostsim-{args.command}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_converge(out: Path, result: ConvergenceResult) -> list[Path]:
    outputs = [out / "curve.csv"]
    write_curve_csv(out / "curve.csv", result.curve)
    for n, snapshot in result.snapshots:
        path = out / f"pattern_N{n}.csv"
        write_pattern_csv(path, snapshot, result.reference)
        outputs.append(path)
    return outputs


def _print_curve(result: ConvergenceResult) -> None:
    for p in result.curve:
        print(
            f"N={p.n}: eps_global={p.eps_global:.5f} "
            f"eps_low={p.eps_low:.5f} eps_high={p.eps_high:.5f}"
        )


def _warn_notes(notes) -> None:
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)


def _cmd_converge(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    pipeline = GhostPipeline.from_config(config)
    _warn_notes(pipeline.sampling_notes)
    writer = None
    outputs: list[Path] = []
    try:
        if config.write_records:
            writer = RecordWriter(out / "records.gidat", record_header_for(config))
            outputs.append(out / "records.gidat")
        result = run_converge(config, record_writer=writer, pipeline=pipeline)
    finally:
        if writer is not None:
            writer.close()
    outputs.extend(_emit_converge(out, result))
    write_manifest(out / "manifest.json", args.command, config, outputs,
                   result.sampling_notes)
    _print_curve(result)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


def _cmd_replay(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    result = replay_converge(config, args.records)
    outputs = _emit_converge(out, result)
    write_manifest(out / "manifest.json", args.command, config, outputs,
                   result.sampling_notes, result.stream)
    _print_curve(result)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    points = run_kappa_sweep(config)
    write_kappa_csv(out / "kappa.csv", points)
    write_manifest(out / "manifest.json", args.command, config, [out / "kappa.csv"])
    for p in points:
        status = f"N*={p.search.n_star}" if p.search.reached else "not reached"
        print(f"phi={p.phi:.6g} m kappa={p.kappa:.4g}: {status} "
              f"(budget {p.search.n_budget}, eps={p.search.eps_final:.5f})")
    return 0


def _cmd_bands(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    points = run_kappa_sweep(config)
    write_bands_csv(out / "bands.csv", points)
    write_manifest(out / "manifest.json", args.command, config, [out / "bands.csv"])
    for p in points:
        at = p.search.crossing
        flag = "reached" if p.search.reached else "not reached"
        print(f"kappa={p.kappa:.4g} N={at.n} ({flag}): "
              f"eps_global={at.eps_global:.5f} eps_low={at.eps_low:.5f} "
              f"eps_high={at.eps_high:.5f}")
    return 0


def _cmd_speckle(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    points = run_speckle(config)
    outputs = [out / "speckle.csv"]
    write_speckle_csv(out / "speckle.csv", points)
    for k, p in enumerate(points):
        ipath = out / f"intensity_phi{k}.csv"
        cpath = out / f"coherence_phi{k}.csv"
        write_grid_csv(ipath, p.snapshot)
        write_grid_csv(cpath, p.coherence)
        outputs.extend([ipath, cpath])
    write_manifest(out / "manifest.json", args.command, config, outputs)
    for p in points:
        print(f"phi={p.phi:.6g} m: l_c={p.l_c:.6g} m "
              f"fwhm=({p.fwhm_axis0:.6g}, {p.fwhm_axis1:.6g}) m over N={p.n}")
    return 0


_COMMANDS = {
    "converge": _cmd_converge,
    "replay": _cmd_replay,
    "sweep-kappa": _cmd_sweep,
    "bands": _cmd_bands,
    "speckle": _cmd_speckle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, RecordFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
