import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ghostsim import __version__, experiments
from ghostsim.analysis import split_bands
from ghostsim.cli import main
from ghostsim.config import load_config
from ghostsim.records import HEADER_SIZE, RecordWriter, open_records

STUDIES = Path(__file__).resolve().parent.parent / "studies"
SRC = Path(__file__).resolve().parent.parent / "src"

SMALL = """
source_points = 128
source_pitch = 8e-6
object_points = 141
object_pitch = 3e-6
detector_points = 64
detector_pitch = 6e-6
phi = 0.8e-3
schedule = 200, 500
batch = 128
"""


# a 30 um source pitch undersamples the test arm's chirp over the 0.8 mm aperture
COARSE = SMALL.replace("source_pitch = 8e-6", "source_pitch = 30e-6")


def write_config(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(SMALL + extra)
    return path


def read_csv(path):
    header, *rows = path.read_text().strip().splitlines()
    return header.split(","), [r.split(",") for r in rows]


def test_converge_writes_curve_patterns_records_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(out)]) == 0

    names = {p.name for p in out.iterdir()}
    assert names == {
        "curve.csv", "pattern_N200.csv", "pattern_N500.csv",
        "records.gidat", "manifest.json",
    }
    cols, rows = read_csv(out / "curve.csv")
    assert cols == ["n", "eps_global", "eps_low", "eps_high"]
    assert [r[0] for r in rows] == ["200", "500"]
    assert all(float(v) > 0 for r in rows for v in r[1:])

    cols, rows = read_csv(out / "pattern_N500.csv")
    assert cols == ["position_m", "reconstruction", "reference"]
    assert len(rows) == 64
    recon = np.array([float(r[1]) for r in rows])
    assert recon.min() == 0.0 and recon.max() == 1.0

    stdout = capsys.readouterr().out
    assert "N=200:" in stdout and "N=500:" in stdout


def test_manifest_echoes_exact_configuration(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["converge", "--config", str(cfg), "--out-dir", str(out), "--seed", "9"])
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "converge"
    assert doc["version"] == __version__
    assert doc["config"]["seed"] == 9  # CLI flag beats the file
    assert doc["config"]["source_points"] == 128
    assert doc["config"]["schedule"] == [200, 500]
    for entry in doc["outputs"]:
        assert (out / entry.split("/")[-1]).exists()


def test_manifest_is_independent_of_out_dir(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "nested" / "b"
    for out in (a, b):
        assert main(["converge", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    doc = json.loads((a / "manifest.json").read_text())
    assert doc["outputs"] == sorted(
        ["curve.csv", "pattern_N200.csv", "pattern_N500.csv", "records.gidat"]
    )
    assert doc["stream"] == 2


def test_replay_reproduces_files_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    live, again = tmp_path / "live", tmp_path / "again"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(live)]) == 0
    assert main([
        "replay", "--config", str(cfg), "--out-dir", str(again),
        "--records", str(live / "records.gidat"),
    ]) == 0
    for name in ("curve.csv", "pattern_N200.csv", "pattern_N500.csv"):
        assert (again / name).read_bytes() == (live / name).read_bytes()


def test_replay_builds_no_operator(tmp_path, monkeypatch):
    # replay reads the reference and the records, never the arms' operators
    cfg = write_config(tmp_path, "window = 8, 55\n")
    live, again = tmp_path / "live", tmp_path / "again"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(live)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("replay built an operator")

    monkeypatch.setattr(experiments, "fresnel_matrix", refuse)
    monkeypatch.setattr(experiments, "chebyshev_factors", refuse)
    assert main([
        "replay", "--config", str(cfg), "--out-dir", str(again),
        "--records", str(live / "records.gidat"),
    ]) == 0
    written = sorted(p.name for p in again.glob("*.csv"))
    assert written == ["curve.csv", "pattern_N200.csv", "pattern_N500.csv"]
    for name in written:
        assert (again / name).read_bytes() == (live / name).read_bytes()


@pytest.mark.parametrize("points", [3, 5])
def test_replay_at_a_small_detector_is_byte_equal_to_the_live_run(tmp_path, points):
    # a strided and a contiguous GEMV round differently at a few pixels, so
    # live and replay must fold the same (B, 1 + P) layout to agree here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL.replace("detector_points = 64", f"detector_points = {points}")
                   + "window = 0, 2\n")
    live, again = tmp_path / "live", tmp_path / "again"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(live)]) == 0
    assert main([
        "replay", "--config", str(cfg), "--out-dir", str(again),
        "--records", str(live / "records.gidat"),
    ]) == 0
    for name in ("curve.csv", "pattern_N200.csv", "pattern_N500.csv"):
        assert (again / name).read_bytes() == (live / name).read_bytes()
    pipe = experiments.GhostPipeline.from_config(load_config(cfg))
    live_rows = [np.column_stack(pipe.batch_intensities(a, b))
                 for a, b in experiments.batch_bounds(500, (200, 500), 128)]
    body = (live / "records.gidat").read_bytes()[HEADER_SIZE:]
    assert body == np.concatenate(live_rows).astype("<f8").tobytes()


def test_replay_manifest_names_the_stream_of_the_records(tmp_path):
    cfg = write_config(tmp_path)
    live, v2, v1 = tmp_path / "live", tmp_path / "v2", tmp_path / "v1"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(live)]) == 0
    records = live / "records.gidat"
    assert main(["replay", "--config", str(cfg), "--out-dir", str(v2),
                 "--records", str(records)]) == 0
    assert json.loads((v2 / "manifest.json").read_text())["stream"] == 2
    # rewrite the header in the version 1 layout: version byte 1, no batch
    blob = bytearray(records.read_bytes())
    blob[6] = 1
    blob[20:24] = bytes(4)
    records.write_bytes(bytes(blob))
    assert main(["replay", "--config", str(cfg), "--out-dir", str(v1),
                 "--records", str(records)]) == 0
    assert json.loads((v1 / "manifest.json").read_text())["stream"] == 1
    assert json.loads((live / "manifest.json").read_text())["stream"] == 2


def test_replay_with_wrong_seed_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path)
    live = tmp_path / "live"
    main(["converge", "--config", str(cfg), "--out-dir", str(live)])
    code = main([
        "replay", "--config", str(cfg), "--seed", "1",
        "--out-dir", str(tmp_path / "bad"),
        "--records", str(live / "records.gidat"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_a_run_that_fails_partway_leaves_records_that_replay(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    want = tmp_path / "want"
    assert main(["converge", "--config", str(cfg), "--schedule", "200",
                 "--out-dir", str(want)]) == 0

    appended = []
    append = RecordWriter.append
    draw = experiments.draw_source_block

    def counting(self, i1, i2):
        appended.append(len(i1))
        append(self, i1, i2)

    def failing(spec, seed, first_index, count, **kwargs):
        # batches 0-128 | 128-200 | 200-256 | 256-384 | 384-500; both threads
        # draw a block from its first index
        if first_index == 384:
            raise RuntimeError("draw failed")
        return draw(spec, seed, first_index, count, **kwargs)

    monkeypatch.setattr(RecordWriter, "append", counting)
    monkeypatch.setattr(experiments, "draw_source_block", failing)
    died = tmp_path / "died"
    with pytest.raises(RuntimeError, match="draw failed"):
        main(["converge", "--config", str(cfg), "--out-dir", str(died)])
    monkeypatch.undo()

    # batch 256-384 was not folded, so its records were not written
    records = died / "records.gidat"
    assert open_records(records).n_records == sum(appended) == 256
    body = (want / "records.gidat").read_bytes()[HEADER_SIZE:]
    assert records.read_bytes()[HEADER_SIZE:HEADER_SIZE + len(body)] == body
    again = tmp_path / "again"
    assert main(["replay", "--config", str(cfg), "--schedule", "200",
                 "--records", str(records), "--out-dir", str(again)]) == 0
    for name in ("curve.csv", "pattern_N200.csv"):
        assert (again / name).read_bytes() == (want / name).read_bytes()


# The tests' small grid, and the defaults that the command line runs without a config.
GEOMETRIES = {"small": SMALL, "defaults": ""}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_run_exits_2_and_records_no_refused_row(tmp_path, capsys):
    for name, geometry in GEOMETRIES.items():
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(geometry + "sigma2 = 1e300\n")
        assert main(["converge", "--config", str(cfg), "--schedule", "200",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: batch sums overflow float64\n"
        # the header counts what the file holds, and that is not the refused batch
        records = out / "records.gidat"
        assert open_records(records).n_records == 0
        assert records.stat().st_size == HEADER_SIZE


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_underflowing_reconstruction_exits_2_and_keeps_its_records(tmp_path, capsys):
    # i1 * i2 ~ sigma2^2 underflows, so G is zero and cannot be normalized
    for name, geometry in GEOMETRIES.items():
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(geometry + "sigma2 = 1e-200\n")
        assert main(["converge", "--config", str(cfg), "--schedule", "200,400",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the reconstruction at N=200 is constant over the comparison window\n"
        )
        # the 200 folded records are on disk, and the header counts them
        records = out / "records.gidat"
        header = open_records(records)
        assert header.n_records == 200
        assert records.stat().st_size == HEADER_SIZE + 200 * (1 + header.detector_points) * 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_underflowing_sweep_warns_of_its_undersampled_aperture_then_exits_2(tmp_path,
                                                                              capsys):
    # the 10 um source undersamples the test-arm chirp over the 3.648 mm
    # aperture alone: one warning before any draw, then the first search's
    # reconstruction underflows as the converge's does
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("source_points = 512\nsource_pitch = 10e-6\nsigma2 = 1e-200\n"
                   "phi_list = 1.216e-3, 3.648e-3\nschedule = 200, 400\n")
    out = tmp_path / "out"
    assert main(["sweep-kappa", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: phi=0.003648 m: test arm: chirp undersampled on axis 0: "
        "edge phase step 3.99 rad > pi",
        "error: the reconstruction at N=200 is constant over the comparison window",
    ]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma2", ["1e-200", "5e-324"], ids=["underflow", "zero"])
def test_an_underflowing_coherence_map_exits_2_and_leaves_no_output(tmp_path, sigma2, capsys):
    # the two means ~ sigma2 multiply to 0, or at 5e-324 are 0 themselves
    cfg = tmp_path / "speckle.cfg"
    cfg.write_text(SPECKLE + f"speckle_phi_list = 5e-4\nsigma2 = {sigma2}\n")
    out = tmp_path / "out"
    assert main(["speckle", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: phi=0.0005 m: coherence map: the mean intensities multiply to zero\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma2, code", [("1e-150", 0), ("1e-154", 2), ("1e-158", 2)])
def test_a_converge_with_subnormal_intensity_products_exits_2(tmp_path, sigma2, code, capsys):
    # at the defaults mean1 * mean2 is about 6.6e-3 * sigma2^2: subnormal below 1e-154
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"sigma2 = {sigma2}\nschedule = 200, 400\nwrite_records = false\n")
    assert main(["converge", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: the reconstruction at N=200: the mean intensities "
                              "multiply to ")
        assert err.endswith(", below float64's normal range\n") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_speckle_with_subnormal_intensity_products_exits_2(tmp_path, capsys):
    cfg = tmp_path / "speckle.cfg"
    cfg.write_text(SPECKLE + "speckle_phi_list = 5e-4\nsigma2 = 1e-158\n")
    out = tmp_path / "out"
    assert main(["speckle", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phi=0.0005 m: coherence map: the mean intensities multiply to ")
    assert err.endswith(", below float64's normal range\n") and err.count("\n") == 1
    assert not out.exists()


def test_replay_recovers_the_whole_rows_of_an_unfinished_file(tmp_path, capsys):
    # a run killed before it closed its writer: the open flag is set, the
    # header says 0, and the body ends in half a row; batches start at 0, 128, 200, 256 and 384
    # in both schedules, so rows up to 400 are those of a run of 200, 400
    cfg = write_config(tmp_path)
    long, fresh = tmp_path / "long", tmp_path / "fresh"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(long)]) == 0
    assert main(["converge", "--config", str(cfg), "--schedule", "200,400",
                 "--out-dir", str(fresh)]) == 0
    header = open_records(long / "records.gidat")
    row = (1 + header.detector_points) * 8
    body = (long / "records.gidat").read_bytes()[HEADER_SIZE:]
    killed = tmp_path / "killed.gidat"
    killed.write_bytes(dataclasses.replace(header, n_records=0).pack(writing=True)
                       + body[: 450 * row + row // 2])
    capsys.readouterr()
    replayed = tmp_path / "replayed"
    assert main(["replay", "--config", str(cfg), "--schedule", "200,400",
                 "--records", str(killed), "--out-dir", str(replayed)]) == 0
    note = f"{killed} is unfinished (its header counts 0 records): replaying its 450 whole records"
    assert capsys.readouterr().err == f"warning: {note}\n"
    # the manifest says so too: the outputs trace back to a recovered file
    assert json.loads((replayed / "manifest.json").read_text())["sampling_notes"] == [note]
    for name in ("curve.csv", "pattern_N200.csv", "pattern_N400.csv"):
        assert (replayed / name).read_bytes() == (fresh / name).read_bytes()
    # a schedule past the whole rows is refused, naming their count
    assert main(["replay", "--config", str(cfg), "--records", str(killed),
                 "--out-dir", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err == (
        "error: schedule needs 500 records, file holds 450 whole records of an unfinished run\n"
    )
    assert not (tmp_path / "refused").exists()


def manifests_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("manifest.json"))


@pytest.mark.parametrize("seeds, left", [("1", []), ("1,2", ["seed2/manifest.json"])],
                         ids=["one-seed", "two-seeds"])
def test_a_rerun_that_fails_partway_leaves_no_stale_manifest(tmp_path, seeds, left, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--seed", seeds,
                 "--out-dir", str(out)]) == 0
    assert manifests_under(out)
    underflow = write_config(tmp_path, extra="sigma2 = 1e-200\n", name="underflow.cfg")
    assert main(["converge", "--config", str(underflow), "--seed", seeds,
                 "--out-dir", str(out)]) == 2
    assert "error: the reconstruction at N=200" in capsys.readouterr().err
    # the failed run replaced the first seed's records: no manifest is left to
    # describe them, nor the seeds as a whole; a seed it never reached keeps its own
    first = out / "seed1" if "," in seeds else out
    assert open_records(first / "records.gidat").sigma2 == 1e-200
    assert manifests_under(out) == left


def test_a_rerun_replaces_its_files_and_leaves_hard_links_to_the_old_ones(tmp_path):
    cfg = write_config(tmp_path)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(["converge", "--config", str(cfg), "--seed", "1", "--out-dir", str(out)]) == 0
    first = files_under(out)
    for name in ("records.gidat", "curve.csv"):
        os.link(out / name, tmp_path / f"kept-{name}")
    assert main(["converge", "--config", str(cfg), "--seed", "2", "--out-dir", str(out)]) == 0
    for name in ("records.gidat", "curve.csv"):
        assert (tmp_path / f"kept-{name}").read_bytes() == first[name]
    assert main(["converge", "--config", str(cfg), "--seed", "2", "--out-dir", str(fresh)]) == 0
    assert files_under(out) == files_under(fresh)


def test_a_rerun_writes_through_an_output_that_is_a_symlink(tmp_path):
    cfg = write_config(tmp_path)
    out, fresh, elsewhere = tmp_path / "out", tmp_path / "fresh", tmp_path / "elsewhere"
    assert main(["converge", "--config", str(cfg), "--seed", "1", "--out-dir", str(out)]) == 0
    elsewhere.mkdir()
    for name in ("records.gidat", "curve.csv", "manifest.json"):
        (out / name).rename(elsewhere / name)
        (out / name).symlink_to(Path("..") / "elsewhere" / name)
    assert main(["converge", "--config", str(cfg), "--seed", "2", "--out-dir", str(out)]) == 0
    assert main(["converge", "--config", str(cfg), "--seed", "2", "--out-dir", str(fresh)]) == 0
    for name in ("records.gidat", "curve.csv", "manifest.json"):
        assert (out / name).is_symlink()
        assert (elsewhere / name).read_bytes() == (fresh / name).read_bytes()


SPECKLE = "speckle_points = 48\nspeckle_pitch = 40e-6\nspeckle_n = 200\n"


@pytest.mark.parametrize("command, longer, shorter", [
    ("converge", SMALL, SMALL.replace("schedule = 200, 500", "schedule = 200")),
    ("speckle", SPECKLE + "speckle_phi_list = 5e-4, 2.5e-4\n",
     SPECKLE + "speckle_phi_list = 5e-4\n"),
], ids=["fewer-checkpoints", "fewer-apertures"])
def test_a_shorter_rerun_leaves_no_output_of_the_longer_run(tmp_path, command, longer, shorter):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    (tmp_path / "longer.cfg").write_text(longer)
    (tmp_path / "shorter.cfg").write_text(shorter)
    for cfg, to in (("longer", out), ("shorter", out), ("shorter", fresh)):
        assert main([command, "--config", str(tmp_path / f"{cfg}.cfg"), "--out-dir", str(to)]) == 0
    assert files_under(out) == files_under(fresh)
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(files_under(out)) == sorted([*listed, "manifest.json"])


def test_a_shorter_replay_into_the_records_directory_keeps_the_records(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(out)]) == 0
    records = (out / "records.gidat").read_bytes()
    assert main(["replay", "--config", str(cfg), "--schedule", "200",
                 "--records", str(out / "records.gidat"), "--out-dir", str(out)]) == 0
    assert (out / "records.gidat").read_bytes() == records
    assert sorted(files_under(out)) == ["curve.csv", "manifest.json", "pattern_N200.csv",
                                        "records.gidat"]


def test_a_batch_refused_partway_is_not_recorded(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    want = tmp_path / "want"
    assert main(["converge", "--config", str(cfg), "--schedule", "200",
                 "--out-dir", str(want)]) == 0
    intensities = experiments.GhostPipeline.intensities

    def overflowing(self, block):
        i1, i2 = intensities(self, block)
        if len(i1) == 56:  # batch 200-256: finite values whose cross sums overflow
            i1[:] = 1e200
            i2[:] = 1e200
        return i1, i2

    monkeypatch.setattr(experiments.GhostPipeline, "intensities", overflowing)
    died = tmp_path / "died"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(died)]) == 2
    assert "error: batch sums overflow" in capsys.readouterr().err
    records = died / "records.gidat"
    assert open_records(records).n_records == 200
    body = (want / "records.gidat").read_bytes()[HEADER_SIZE:]
    assert records.read_bytes()[HEADER_SIZE:] == body


def test_worker_count_leaves_all_outputs_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert main([
            "converge", "--config", str(cfg), "--out-dir", str(out),
            "--workers", workers,
        ]) == 0
        outs.append(out)
    for name in ("curve.csv", "pattern_N200.csv", "pattern_N500.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    live = (outs[0] / "records.gidat").read_bytes()
    other = (outs[1] / "records.gidat").read_bytes()
    assert live == other


def test_seed_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["converge", "--config", str(cfg), "--out-dir", str(a)])
    main(["converge", "--config", str(cfg), "--out-dir", str(b), "--seed", "5"])
    assert (a / "curve.csv").read_bytes() != (b / "curve.csv").read_bytes()


def test_sweep_kappa_csv_schema_and_arithmetic(tmp_path, capsys):
    cfg = write_config(tmp_path, extra="phi_list = 4e-4, 8e-4\n")
    out = tmp_path / "out"
    assert main([
        "sweep-kappa", "--config", str(cfg), "--out-dir", str(out), "--tau", "1.0",
    ]) == 0
    assert json.loads((out / "manifest.json").read_text())["sampling_notes"] == []
    cols, rows = read_csv(out / "kappa.csv")
    assert cols == ["phi_m", "kappa", "n_star", "reached", "eps_global",
                    "eps_low", "eps_high"]
    assert len(rows) == 2
    for row, phi in zip(rows, (4e-4, 8e-4)):
        assert float(row[0]) == phi
        l_c = 0.532e-6 * 0.060 / phi
        assert float(row[1]) == pytest.approx(105e-6 / l_c, rel=1e-12)
        assert row[2] == "200" and row[3] == "true"  # tau=1 crosses immediately
    assert "N*=200" in capsys.readouterr().out

    # a 30 um source pitch undersamples the test arm's chirp at every aperture
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(COARSE + "phi_list = 1.2e-3, 2.4e-3\n")
    out = tmp_path / "coarse"
    assert main([
        "sweep-kappa", "--config", str(coarse), "--out-dir", str(out), "--tau", "1.0",
    ]) == 0
    notes = json.loads((out / "manifest.json").read_text())["sampling_notes"]
    for phi in ("0.0012", "0.0024"):
        assert f"phi={phi} m: test arm: chirp undersampled on axis 0" in " ".join(notes)
    err = capsys.readouterr().err
    assert all(f"warning: {note}" in err for note in notes)


def test_sweep_kappa_unreachable_tau_leaves_n_star_empty(tmp_path):
    cfg = write_config(tmp_path, extra="phi_list = 4e-4, 8e-4\n")
    out = tmp_path / "out"
    assert main([
        "sweep-kappa", "--config", str(cfg), "--out-dir", str(out), "--tau", "1e-9",
    ]) == 0
    _, rows = read_csv(out / "kappa.csv")
    for row in rows:
        assert row[2] == "" and row[3] == "false"


def test_a_mask_sweep_leaves_kappa_empty(tmp_path, capsys):
    # two openings of the 141-pixel object grid, which slit_width does not describe
    (tmp_path / "mask.txt").write_text("0\n" * 60 + "1\n" * 8 + "0\n" * 6 + "1\n" * 4
                                       + "0\n" * 63)
    files = {}
    for width in ("105e-6", "50e-6"):
        cfg = write_config(tmp_path, name=f"mask{width}.cfg", extra=(
            f"mask_file = {tmp_path / 'mask.txt'}\nslit_width = {width}\n"
            "phi_list = 4e-4, 8e-4\n"))
        out = tmp_path / width
        assert main(["sweep-kappa", "--config", str(cfg), "--out-dir", str(out),
                     "--tau", "1.0", "--seed", "0,1"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if "kappa=" in line]
        assert len(printed) == 4 and all(" kappa=n/a: N*=200 " in line for line in printed)
        _, rows = read_csv(out / "seed0" / "kappa.csv")
        assert [row[1:3] for row in rows] == [["", "200"], ["", "200"]]
        _, rows = read_csv(out / "kappa_median.csv")
        assert [row[1:] for row in rows] == [["", "200.0", "2/2"], ["", "200.0", "2/2"]]
        files[width] = [(out / name).read_bytes()
                        for name in ("seed0/kappa.csv", "seed1/kappa.csv", "kappa_median.csv")]
    assert files["105e-6"] == files["50e-6"]  # slit_width changes nothing


def test_bands_rows_bracket_the_global_error(tmp_path):
    cfg = write_config(tmp_path, extra="phi_list = 4e-4, 8e-4\n")
    out = tmp_path / "out"
    assert main([
        "sweep-kappa", "--config", str(cfg), "--out-dir", str(out), "--tau", "1.0",
    ]) == 0
    cols, rows = read_csv(out / "kappa.csv")
    assert cols[4:] == ["eps_global", "eps_low", "eps_high"]
    bands = split_bands(64)
    bracketed = 0
    for row in rows:
        eg, el, eh = (float(v) for v in row[4:])
        lhs = 64 * eg**2
        rhs = len(bands.low) * el**2 + len(bands.high) * eh**2
        assert lhs == pytest.approx(rhs, rel=1e-12)
        if min(el, eh) < eg < max(el, eh):
            bracketed += 1
    assert bracketed > 0  # forced by the identity whenever eps_low != eps_high


def warnings_of(notes):
    return "".join(f"warning: {note}\n" for note in notes)


def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_seed_converge_matches_single_seed_runs_and_writes_medians(tmp_path):
    cfg = write_config(tmp_path)
    multi = tmp_path / "multi"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(multi),
                 "--seed", "3,5"]) == 0
    curves = []
    for seed in (3, 5):
        single = tmp_path / f"single{seed}"
        assert main(["converge", "--config", str(cfg), "--out-dir", str(single),
                     "--seed", str(seed)]) == 0
        assert files_under(multi / f"seed{seed}") == files_under(single)
        _, rows = read_csv(single / "curve.csv")
        curves.append([[float(v) for v in r[1:]] for r in rows])

    cols, rows = read_csv(multi / "curve_median.csv")
    assert cols == ["n", "eps_global_median", "eps_low_median", "eps_high_median"]
    assert [r[0] for r in rows] == ["200", "500"]
    for k, row in enumerate(rows):
        for j, value in enumerate(row[1:]):
            assert float(value) == np.median([c[k][j] for c in curves])

    doc = json.loads((multi / "manifest.json").read_text())
    assert doc["seeds"] == [3, 5] and "seed" not in doc["config"]
    assert set(doc["outputs"]) == {"curve_median.csv"} | {
        f"seed{s}/{name}" for s in (3, 5)
        for name in ("curve.csv", "pattern_N200.csv", "pattern_N500.csv",
                     "records.gidat", "manifest.json")
    }


def test_two_seed_sweep_matches_single_seed_runs_and_writes_medians(tmp_path):
    cfg = write_config(tmp_path, extra="phi_list = 4e-4, 8e-4\n")
    multi = tmp_path / "multi"
    argv = ["sweep-kappa", "--config", str(cfg), "--tau", "0.2",
            "--schedule", "200,500,1000,2000"]
    assert main(argv + ["--out-dir", str(multi), "--seed", "0,1"]) == 0
    stars = []
    for seed in (0, 1):
        single = tmp_path / f"single{seed}"
        assert main(argv + ["--out-dir", str(single), "--seed", str(seed)]) == 0
        assert files_under(multi / f"seed{seed}") == files_under(single)
        _, rows = read_csv(single / "kappa.csv")
        stars.append([int(r[2]) if r[3] == "true" else None for r in rows])

    cols, rows = read_csv(multi / "kappa_median.csv")
    assert cols == ["phi_m", "kappa", "n_star_median", "reached_runs"]
    assert [float(r[0]) for r in rows] == [4e-4, 8e-4]
    for k, row in enumerate(rows):
        reached = [s[k] for s in stars if s[k] is not None]
        assert row[3] == f"{len(reached)}/2"
        if reached:
            assert float(row[2]) == np.median(reached)
        else:
            assert row[2] == ""
    assert any(s is not None for s in stars[0] + stars[1])  # a median was taken
    doc = json.loads((multi / "manifest.json").read_text())
    assert doc["seeds"] == [0, 1]
    assert "kappa_median.csv" in doc["outputs"] and "seed1/kappa.csv" in doc["outputs"]


def test_two_seed_manifest_carries_the_sampling_notes(tmp_path, capsys):
    # over the 3.04 and 3.648 mm apertures the 10 um source undersamples the
    # test-arm chirp, so every run has notes
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("source_points = 512\nsource_pitch = 10e-6\n"
                   "phi_list = 3.04e-3, 3.648e-3\nschedule = 200, 500\ntau = 0.9\n")
    out = tmp_path / "multi"
    assert main(["sweep-kappa", "--config", str(cfg), "--seed", "0,1",
                 "--out-dir", str(out)]) == 0
    top = json.loads((out / "manifest.json").read_text())["sampling_notes"]
    assert top and all("chirp undersampled" in note for note in top)
    assert capsys.readouterr().err == warnings_of(top)  # once, not once per seed
    for seed in (0, 1):
        doc = json.loads((out / f"seed{seed}" / "manifest.json").read_text())
        assert doc["sampling_notes"] == top


def test_a_sweep_prints_its_warnings_before_its_first_draw(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE + "phi_list = 1.2e-3, 2.4e-3\n")
    draw, errs, lock = experiments.draw_source_block, [], threading.Lock()

    def first_draw_reads_stderr(*args, **kwargs):
        with lock:  # both threads draw the first block
            if not errs:
                errs.append(capsys.readouterr().err)
        return draw(*args, **kwargs)

    monkeypatch.setattr(experiments, "draw_source_block", first_draw_reads_stderr)
    out = tmp_path / "out"
    assert main(["sweep-kappa", "--config", str(cfg), "--tau", "1.0",
                 "--out-dir", str(out)]) == 0
    notes = json.loads((out / "manifest.json").read_text())["sampling_notes"]
    assert {n.split(":")[0] for n in notes} == {"phi=0.0012 m", "phi=0.0024 m"}
    assert errs == [warnings_of(notes)]


def test_replay_prints_and_records_the_warnings_of_its_live_run(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(COARSE)
    live, replayed = tmp_path / "live", tmp_path / "replayed"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(live)]) == 0
    err = capsys.readouterr().err
    assert main(["replay", "--config", str(cfg), "--records", str(live / "records.gidat"),
                 "--out-dir", str(replayed)]) == 0
    assert err.startswith("warning: test arm: chirp undersampled")
    assert capsys.readouterr().err == err
    notes = [json.loads((d / "manifest.json").read_text())["sampling_notes"]
             for d in (live, replayed)]
    assert warnings_of(notes[0]) == err and notes[1] == notes[0]


@pytest.mark.parametrize("command", [["replay", "--records", "r.gidat"], ["speckle"]])
def test_seed_list_is_refused_where_one_seed_is_fixed(tmp_path, command, capsys):
    out = tmp_path / "out"
    assert main(command + ["--seed", "0,1", "--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_speckle_outputs_and_coherence_arithmetic(tmp_path):
    cfg_path = tmp_path / "speckle.cfg"
    cfg_path.write_text(
        "speckle_points = 48\n"
        "speckle_pitch = 40e-6\n"
        "speckle_phi_list = 5e-4, 2.5e-4\n"
        "speckle_n = 200\n"
    )
    out = tmp_path / "out"
    assert main(["speckle", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "speckle.csv", "intensity_phi0.csv", "coherence_phi0.csv",
        "intensity_phi1.csv", "coherence_phi1.csv", "manifest.json",
    }
    cols, rows = read_csv(out / "speckle.csv")
    assert cols == ["phi_m", "n", "l_c_m", "fwhm_axis0_m", "fwhm_axis1_m"]
    for row, phi in zip(rows, (5e-4, 2.5e-4)):
        assert float(row[2]) == pytest.approx(0.532e-6 * 0.060 / phi, rel=1e-12)
        assert float(row[3]) > 0 and float(row[4]) > 0
    # 48 rows of 48 values per 2D map
    grid_rows = (out / "intensity_phi0.csv").read_text().strip().splitlines()
    assert len(grid_rows) == 48
    assert len(grid_rows[0].split(",")) == 48


def test_geometry_mismatch_needs_explicit_override(tmp_path, capsys):
    cfg = write_config(tmp_path, extra="d = 0.134\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "d1 + d2" in capsys.readouterr().err
    assert main([
        "converge", "--config", str(cfg), "--out-dir", str(out),
        "--override-geometry",
    ]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--config", "does-not-exist.cfg"],
        ["converge", "--schedule", "10,x"],
        ["sweep-kappa", "--phi-list", "1e-3,?"],
        ["sweep-kappa"],  # needs at least two apertures
        ["converge", "--config", "wide.cfg"],  # aperture wider than the source grid
        ["converge", "--config", "mask.cfg"],  # mask file with the wrong row count
        ["sweep-kappa", "--phi-list", "1e-3,3e-3"],  # second aperture too wide
        ["converge", "--seed", "0,x"],
        ["converge", "--seed", "1,1"],
        ["sweep-kappa", "--config", "nmax.cfg"],  # n_max below the first checkpoint
        ["converge", "--config", "narrow.cfg"],  # window too narrow for the bands
        ["converge", "--config", "nan.cfg"],  # sigma2 = nan
        ["converge", "--config", "empty.cfg"],  # aperture holds no source pixel
        ["replay", "--records", "."],  # the records path is a directory
        ["converge", "--out-dir", "short.txt"],  # the output directory is a file
        ["converge", "--config", "inf.cfg"],  # sigma2 = inf
        ["converge", "--config", "infpitch.cfg"],  # source_pitch = inf
        ["converge", "--config", "infwave.cfg"],  # wavelength = inf
        ["sweep-kappa", "--phi-list", "0.6e-3,1.2e-3", "--tau", "inf"],
        ["speckle", "--config", "pixel.cfg"],  # one source pixel: no half-maximum crossing
        ["sweep-kappa", "--config", "tiny.cfg", "--phi-list", "0.6e-3,1.2e-3",
         "--schedule", "200,400"],  # sigma2 = 1e-200: the reconstruction underflows
    ],
)
def test_bad_invocations_exit_2(tmp_path, argv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.cfg").write_text("phi = 3e-3\n")
    (tmp_path / "short.txt").write_text("1.0\n" * 10)
    (tmp_path / "mask.cfg").write_text("mask_file = short.txt\n")
    (tmp_path / "nmax.cfg").write_text(
        "n_max = 100\nschedule = 200, 400\nphi_list = 0.6e-3, 1.2e-3\n"
    )
    (tmp_path / "narrow.cfg").write_text("window = 5, 6\n")
    (tmp_path / "nan.cfg").write_text("sigma2 = nan\n")
    (tmp_path / "empty.cfg").write_text("phi = 1e-7\n")
    (tmp_path / "inf.cfg").write_text("sigma2 = inf\n")
    (tmp_path / "infpitch.cfg").write_text("source_pitch = inf\n")
    (tmp_path / "infwave.cfg").write_text("wavelength = inf\n")
    (tmp_path / "pixel.cfg").write_text(
        "speckle_points = 49\nspeckle_pitch = 40e-6\nspeckle_phi_list = 2e-5\nspeckle_n = 200\n"
    )
    (tmp_path / "tiny.cfg").write_text("sigma2 = 1e-200\n")
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("ghostsim-*"))  # no output directory is left


@pytest.mark.parametrize("command", ["converge", "sweep-kappa", "replay"])
def test_an_opaque_mask_is_refused_before_any_draw(tmp_path, command, capsys, monkeypatch):
    live = tmp_path / "live"
    assert main(["converge", "--config", str(write_config(tmp_path)),
                 "--out-dir", str(live)]) == 0
    (tmp_path / "opaque.txt").write_text("0\n" * 141)
    cfg = write_config(
        tmp_path, name="opaque.cfg",
        extra=f"mask_file = {tmp_path / 'opaque.txt'}\nphi_list = 0.6e-3, 0.8e-3\n",
    )

    pulled = []
    draw, read = experiments.draw_source_block, experiments.read_batches

    def counting_draw(*args):
        pulled.append("draw")
        return draw(*args)

    def counting_read(*args):
        for batch in read(*args):
            pulled.append("read")
            yield batch

    monkeypatch.setattr(experiments, "draw_source_block", counting_draw)
    monkeypatch.setattr(experiments, "read_batches", counting_read)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out-dir", str(out)]
    if command == "replay":
        argv += ["--records", str(live / "records.gidat")]
    assert main(argv) == 2
    assert "error: the reference pattern is flat" in capsys.readouterr().err
    assert pulled == []
    assert not out.exists()  # so no records file either


@pytest.mark.parametrize(
    "refusal, argv",
    [
        ("pattern is flat", ["converge", "--config", "opaque.cfg", "--seed", "0,1"]),
        ("exceeds grid extent", ["converge", "--config", "wide.cfg", "--seed", "0,1"]),
        ("exceeds grid extent", ["sweep-kappa", "--config", "run.cfg",
                                 "--phi-list", "0.6e-3,3e-3"]),
        ("exceeds grid extent", ["speckle", "--config", "speckle.cfg"]),
        ("different configuration", ["replay", "--config", "run.cfg", "--seed", "1",
                                     "--records", "live/records.gidat"]),
        ("file holds 500", ["replay", "--config", "run.cfg", "--schedule", "200, 800",
                            "--records", "live/records.gidat"]),
        ("No such file", ["replay", "--config", "run.cfg", "--records", "none.gidat"]),
        ("exceeds the object grid", ["converge", "--config", "slits.cfg",
                                     "--schedule", "200"]),
        ("exceeds the object grid", ["sweep-kappa", "--config", "slits.cfg",
                                     "--phi-list", "0.6e-3,0.8e-3", "--schedule", "200"]),
        ("exceeds the object grid", ["converge", "--config", "clipped.cfg"]),
    ],
    ids=["flat-reference", "converge-too-wide", "sweep-too-wide", "speckle-too-wide",
         "foreign-records", "short-records", "missing-records", "converge-slits-off-grid",
         "sweep-slits-off-grid", "converge-slits-clipped"],
)
def test_a_refused_run_leaves_no_output_directory(tmp_path, refusal, argv, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["converge", "--config", str(cfg), "--out-dir", "live"]) == 0
    (tmp_path / "opaque.txt").write_text("0\n" * 141)
    write_config(tmp_path, name="opaque.cfg", extra="mask_file = opaque.txt\n")
    (tmp_path / "speckle.cfg").write_text(
        "speckle_points = 48\nspeckle_pitch = 40e-6\nspeckle_phi_list = 5e-4, 5e-3\n"
    )
    (tmp_path / "wide.cfg").write_text("phi = 3e-3\n")
    # both openings off the 420 um object grid; the outer edges (204 um) off a +/-175 um one
    (tmp_path / "slits.cfg").write_text("slit_width = 1e-3\nslit_separation = 2e-3\n")
    (tmp_path / "clipped.cfg").write_text("object_points = 141\nobject_pitch = 2.5e-6\n")
    capsys.readouterr()
    assert main(argv + ["--out-dir", "out"]) == 2
    assert refusal in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "seed", ["9223372036854775808", "-9223372036854775809", "18446744073709551615"]
)
def test_a_seed_past_the_header_field_exits_2_and_leaves_no_records(tmp_path, seed, capsys):
    cfg = write_config(tmp_path)
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert main(["converge", "--config", str(cfg), "--out-dir", str(rerun)]) == 0
    before = files_under(rerun)
    capsys.readouterr()
    for where in (out, rerun):
        assert main(["converge", "--config", str(cfg), "--seed", seed,
                     "--out-dir", str(where)]) == 2
        assert "signed 64-bit" in capsys.readouterr().err
    assert not (out / "records.gidat").exists()
    assert files_under(rerun) == before  # the earlier run's records and manifest included


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"ghostsim {__version__}" in capsys.readouterr().out


# Runs the CLI commands in argv[1], a JSON list of argument lists, in a fresh
# interpreter, and prints which of the modules that only a draw needs were
# loaded after ``import numpy`` and after the commands.
_LOADED_BY = """
import json
import sys

import numpy  # noqa: F401  (numpy 1.x loads numpy.random here itself)

LAZY = ("numpy.random", "concurrent.futures")
after_numpy = [m for m in LAZY if m in sys.modules]
from ghostsim.cli import main

for argv in json.loads(sys.argv[1]):
    try:
        status = main(argv)
    except SystemExit as exc:  # --version
        status = exc.code
    assert status == 0, (argv, status)
print(json.dumps([after_numpy, [m for m in LAZY if m in sys.modules]]))
"""


def loaded_by(tmp_path, *commands):
    """(after import numpy, after the commands), each a list of module names."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_replay_loads_neither_the_rng_nor_the_thread_pool(tmp_path):
    cfg = write_config(tmp_path)
    live = tmp_path / "live"
    # a run that draws loads both, so the check below is not vacuous
    _, after = loaded_by(tmp_path, ["converge", "--config", str(cfg), "--out-dir", str(live)])
    assert after == ["numpy.random", "concurrent.futures"]
    after_numpy, after = loaded_by(
        tmp_path, ["--version"],
        ["replay", "--config", str(cfg), "--records", str(live / "records.gidat"),
         "--out-dir", str(tmp_path / "again")],
    )
    assert after == after_numpy  # numpy 1.x: ["numpy.random"]; numpy 2.x: []
    assert (tmp_path / "again" / "curve.csv").read_bytes() == (live / "curve.csv").read_bytes()


def test_default_out_dir_is_named_after_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, extra="write_records = false\n")
    assert main(["converge", "--config", str(cfg)]) == 0
    assert (tmp_path / "ghostsim-converge" / "curve.csv").exists()


@pytest.mark.parametrize("name", ["convergence.cfg", "kappa.cfg", "speckle.cfg"])
def test_study_configs_load(name):
    config = load_config(STUDIES / name)
    assert config.seed == 0  # the seeds come from the command line
