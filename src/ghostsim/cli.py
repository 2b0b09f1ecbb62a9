"""Command line harness.

Subcommands map one-to-one onto the experiment pipelines:

    converge     error curve + pattern snapshots for a single aperture
    sweep-kappa  minimal-N search across an aperture list
    speckle      2D instantaneous speckle + coherence-width survey
    replay       recompute converge outputs from a stored record file

Every run writes CSV data plus a manifest.json echoing the exact
configuration and the source-stream version, so any output can be
regenerated from its manifest alone.  ``converge`` and ``sweep-kappa`` also
take a comma-separated ``--seed`` list: one run per seed in ``seed<s>/``,
plus the medians over the seeds and a manifest naming the seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_from_values, format_value, load_config, parse_value
from .errors import (BatchRangeError, ConfigError, DegeneratePatternError, GeometryError,
                     NoPeakError, RecordFormatError)
from .experiments import (
    ConvergenceResult,
    GhostPipeline,
    record_header_for,
    replay_converge,
    run_converge,
    run_kappa_sweep,
    run_speckle,
    sampling_notes,
)
from .fields import STREAM_VERSION
from .records import RecordWriter, open_new, remove_output


def _write_lines(path: Path, lines) -> None:
    with open_new(path, newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then each row's values through ``format_value``."""
    _write_lines(path, [header, *(",".join(map(format_value, row)) for row in rows)])


def write_curve_csv(path: Path, curve) -> None:
    _write_csv(path, "n,eps_global,eps_low,eps_high",
               ((p.n, p.eps_global, p.eps_low, p.eps_high) for p in curve))


def _pattern_columns(reference) -> tuple[list[str], list[str]]:
    """The two columns every pattern file of a run shares, formatted once: each
    pixel's position with the comma after it, and its reference value with the
    comma before it."""
    # format_value's float rule, repr of a Python float, inlined: replay
    # writes these files on every command
    return ([f"{x!r}," for x in reference.grid.coords(0).tolist()],
            [f",{y!r}" for y in reference.samples.tolist()])


def write_pattern_csv(path: Path, reconstruction, columns) -> None:
    """One pattern file: the reconstruction between the ``_pattern_columns``."""
    positions, references = columns
    _write_lines(path, ["position_m,reconstruction,reference"]
                 + [f"{x}{y!r}{r}" for x, y, r in
                    zip(positions, reconstruction.samples.tolist(), references)])


def write_kappa_csv(path: Path, points) -> None:
    rows = []
    for p in points:
        at = p.search.crossing
        rows.append((p.phi, p.kappa, p.search.n_star, p.search.reached,
                     at.eps_global, at.eps_low, at.eps_high))
    _write_csv(path, "phi_m,kappa,n_star,reached,eps_global,eps_low,eps_high", rows)


def write_speckle_csv(path: Path, points) -> None:
    _write_csv(path, "phi_m,n,l_c_m,fwhm_axis0_m,fwhm_axis1_m",
               ((p.phi, p.n, p.l_c, p.fwhm_axis0, p.fwhm_axis1) for p in points))


def write_grid_csv(path: Path, pattern) -> None:
    lines = [",".join(map(repr, row)) for row in pattern.samples.tolist()]
    _write_lines(path, lines)


def write_curve_median_csv(path: Path, results) -> None:
    """Per-checkpoint medians over seeds of the three curve errors."""
    rows = []
    for points in zip(*(r.curve for r in results)):
        eps = np.median([[p.eps_global, p.eps_low, p.eps_high] for p in points], axis=0)
        rows.append((points[0].n, *eps.tolist()))
    _write_csv(path, "n,eps_global_median,eps_low_median,eps_high_median", rows)


def write_kappa_median_csv(path: Path, sweeps) -> None:
    """Per aperture: the median N* over the seeds that reached tau, and how many did."""
    rows = []
    for points in zip(*sweeps):
        stars = [p.search.n_star for p in points if p.search.reached]
        median = float(np.median(stars)) if stars else None
        rows.append((points[0].phi, points[0].kappa, median, f"{len(stars)}/{len(points)}"))
    _write_csv(path, "phi_m,kappa,n_star_median,reached_runs", rows)


def write_manifest(path: Path, command: str, config: ExperimentConfig,
                   outputs, notes=(), stream: int = STREAM_VERSION,
                   seeds=None) -> None:
    """The run's manifest; a multi-seed run lists ``seeds`` instead of ``seed``."""
    doc = {
        "command": command,
        "version": __version__,
        "config": config.to_dict(),
        "outputs": sorted(Path(o).relative_to(path.parent).as_posix() for o in outputs),
        "sampling_notes": list(notes),
        "stream": stream,
    }
    if seeds is not None:
        del doc["config"]["seed"]
        doc["seeds"] = list(seeds)
    with open_new(path, newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Flags that set the config key of the same name, parsed by that key's parser.
_KEY_FLAGS = {
    "workers": "ignored (one helper thread; the fold runs in order on the calling thread)",
    "tau": "convergence threshold",
    "schedule": "comma-separated checkpoint counts",
    "phi_list": "comma-separated apertures [m]",
}


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
        "speckle": "2D speckle snapshot and coherence-width survey",
        "replay": "recompute converge outputs from a record file",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="key = value config file")
        sp.add_argument("--seed", help="base RNG seed, or a comma-separated list "
                                       "(converge and sweep-kappa: one run per seed)")
        sp.add_argument("--out-dir", type=Path, help="output directory")
        for key, key_help in _KEY_FLAGS.items():
            sp.add_argument("--" + key.replace("_", "-"), help=key_help)
        sp.add_argument(
            "--override-geometry", action="store_true",
            help="allow d != d1 + d2 (exploratory runs)",
        )
        if name == "replay":
            sp.add_argument("--records", type=Path, required=True,
                            help="records.gidat file from a converge run")
    return parser


def _seeds(raw: str) -> tuple[int, ...]:
    seeds = tuple(parse_value("seed", part) for part in raw.split(","))
    if None in seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"bad --seed {raw!r}: want distinct integers")
    return seeds


def _configs_from_args(args) -> list[ExperimentConfig]:
    """The config of each run: one, or one per seed of a ``--seed`` list."""
    overrides = {
        key: parse_value(key, getattr(args, key))
        for key in _KEY_FLAGS if getattr(args, key) is not None
    }
    if args.override_geometry:
        overrides["allow_geometry_mismatch"] = True
    if args.config is not None:
        config = load_config(args.config, overrides)
    else:
        config = config_from_values(overrides)
    if args.seed is None:
        return [config]
    return [config.replace(seed=s) for s in _seeds(args.seed)]


def _emit_converge(args, config: ExperimentConfig, out: Path, notes,
                   result: ConvergenceResult, outputs: list[Path]):
    """Write the curve, the patterns and the manifest after ``outputs``, the files
    the run already wrote, and print the curve."""
    outputs = [*outputs, out / "curve.csv"]
    write_curve_csv(out / "curve.csv", result.curve)
    columns = _pattern_columns(result.reference)
    for n, snapshot in result.snapshots:
        path = out / f"pattern_N{n}.csv"
        write_pattern_csv(path, snapshot, columns)
        outputs.append(path)
    write_manifest(out / "manifest.json", args.command, config, outputs, notes, result.stream)
    for p in result.curve:
        print(
            f"N={p.n}: eps_global={p.eps_global:.5f} "
            f"eps_low={p.eps_low:.5f} eps_high={p.eps_high:.5f}"
        )
    print(f"wrote {len(outputs)} files to {out}")
    return result, outputs + [out / "manifest.json"]


def _sampling_notes(command: str, config: ExperimentConfig) -> tuple[str, ...]:
    """The sampling warnings of a command, from its config alone: each aperture's
    prefixed with its phi for ``sweep-kappa``, none for ``speckle``."""
    if command == "speckle":
        return ()
    if command == "sweep-kappa":
        return tuple(f"phi={phi:.6g} m: {note}" for phi in config.phi_list or ()
                     for note in sampling_notes(config.replace(phi=phi)))
    return sampling_notes(config)


# Each command runs one config into one directory, its manifest recording
# ``notes``, and returns its result and the files it wrote, manifest last.  It
# opens the directory only once past its refusals, so a refused run leaves none.


def _open_out_dir(out: Path, numbered=()) -> None:
    """Make a command's output directory and remove an earlier run's manifest
    from it, before the command's first write, and every file that a glob of
    ``numbered`` matches: the per-checkpoint or per-aperture outputs, which
    the command writes anew, or not at all where its schedule or aperture
    list is shorter, so its manifest lists every one left.  No glob matches
    ``records.gidat``, which ``replay`` may be reading.  The manifest is
    written last, so a directory without one holds a run that did not finish."""
    out.mkdir(parents=True, exist_ok=True)
    for path in [*(p for glob in numbered for p in out.glob(glob)), out / "manifest.json"]:
        remove_output(path)


_PATTERNS = ("pattern_N[0-9]*.csv",)


def _cmd_converge(args, config: ExperimentConfig, out: Path, notes):
    pipeline = GhostPipeline.from_config(config)
    _open_out_dir(out, _PATTERNS)
    outputs = [out / "records.gidat"] if config.write_records else []
    with (RecordWriter(outputs[0], record_header_for(config)) if outputs
          else nullcontext()) as writer:
        result = run_converge(config, record_writer=writer, pipeline=pipeline)
    return _emit_converge(args, config, out, notes, result, outputs)


def _cmd_replay(args, config: ExperimentConfig, out: Path, notes):
    result = replay_converge(config, args.records)
    for note in result.notes:
        print(f"warning: {note}", file=sys.stderr)
    _open_out_dir(out, _PATTERNS)
    # the manifest lists every warning printed, the file's after the config's
    return _emit_converge(args, config, out, (*notes, *result.notes), result, [])


def _cmd_sweep(args, config: ExperimentConfig, out: Path, notes):
    points = run_kappa_sweep(config)
    _open_out_dir(out)
    write_kappa_csv(out / "kappa.csv", points)
    write_manifest(out / "manifest.json", args.command, config, [out / "kappa.csv"], notes)
    for p in points:
        at = p.search.crossing
        status = f"N*={p.search.n_star}" if p.search.reached else "not reached"
        k = "n/a" if p.kappa is None else f"{p.kappa:.4g}"
        print(f"phi={p.phi:.6g} m kappa={k}: {status} "
              f"(budget {p.search.n_budget}, eps={p.search.eps_final:.5f}, "
              f"eps_low={at.eps_low:.5f}, eps_high={at.eps_high:.5f})")
    return points, [out / "kappa.csv", out / "manifest.json"]


def _cmd_speckle(args, config: ExperimentConfig, out: Path, notes):
    points = run_speckle(config)
    _open_out_dir(out, ("intensity_phi[0-9]*.csv", "coherence_phi[0-9]*.csv"))
    outputs = [out / "speckle.csv"]
    write_speckle_csv(out / "speckle.csv", points)
    for k, p in enumerate(points):
        ipath = out / f"intensity_phi{k}.csv"
        cpath = out / f"coherence_phi{k}.csv"
        write_grid_csv(ipath, p.snapshot)
        write_grid_csv(cpath, p.coherence)
        outputs.extend([ipath, cpath])
    write_manifest(out / "manifest.json", args.command, config, outputs, notes)
    for p in points:
        print(f"phi={p.phi:.6g} m: l_c={p.l_c:.6g} m "
              f"fwhm=({p.fwhm_axis0:.6g}, {p.fwhm_axis1:.6g}) m over N={p.n}")
    return points, outputs + [out / "manifest.json"]


_COMMANDS = {
    "converge": _cmd_converge,
    "replay": _cmd_replay,
    "sweep-kappa": _cmd_sweep,
    "speckle": _cmd_speckle,
}

# The commands that take a seed list, with the file of medians over the seeds.
_MEDIANS = {
    "converge": ("curve_median.csv", write_curve_median_csv),
    "sweep-kappa": ("kappa_median.csv", write_kappa_median_csv),
}


def _run_seeds(args, configs: list[ExperimentConfig], out: Path, notes) -> None:
    """One run per seed into ``seed<s>/``, then the medians and a manifest."""
    name, write_median = _MEDIANS[args.command]
    run, results, outputs = _COMMANDS[args.command], [], []
    remove_output(out / "manifest.json")  # written again after the last seed
    for config in configs:
        print(f"seed {config.seed}:")
        result, written = run(args, config, out / f"seed{config.seed}", notes)
        results.append(result)
        outputs.extend(written)
    write_median(out / name, results)
    outputs.append(out / name)
    write_manifest(out / "manifest.json", args.command, configs[0], outputs, notes,
                   seeds=[c.seed for c in configs])
    print(f"wrote {name} over {len(configs)} seeds to {out}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configs = _configs_from_args(args)
        if len(configs) > 1 and args.command not in _MEDIANS:
            raise ConfigError(f"{args.command} takes a single --seed, got {args.seed!r}")
        out = args.out_dir if args.out_dir is not None else Path(f"ghostsim-{args.command}")
        # the notes do not depend on the seed: printed once, before any draw
        notes = _sampling_notes(args.command, configs[0])
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        if len(configs) > 1:
            _run_seeds(args, configs, out, notes)
        else:
            _COMMANDS[args.command](args, configs[0], out, notes)
        return 0
    except (BatchRangeError, ConfigError, DegeneratePatternError, GeometryError, NoPeakError,
            RecordFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
