import dataclasses

import pytest

from ghostsim.config import (
    ExperimentConfig,
    config_from_values,
    dump_config,
    load_config,
    parse_config_text,
)
from ghostsim.errors import ConfigError


def test_default_geometry_is_consistent():
    cfg = ExperimentConfig()
    assert cfg.d == pytest.approx(cfg.d1 + cfg.d2, rel=1e-15)
    assert cfg.slit_separation > cfg.slit_width
    assert cfg.source_grid().shape == (512,)
    assert cfg.object_grid().shape == (561,)
    assert cfg.detector_grid().shape == (256,)
    assert cfg.speckle_grid().ndim == 2


def test_reference_arm_must_span_both_hops():
    with pytest.raises(ConfigError, match="d1 \\+ d2"):
        ExperimentConfig(d=0.134)
    # explicit opt-out for deliberately broken geometry
    cfg = ExperimentConfig(d=0.134, allow_geometry_mismatch=True)
    assert cfg.d == 0.134


@pytest.mark.parametrize(
    "changes",
    [
        {"wavelength": 0.0},
        {"d1": -0.01, "d": 0.065, "allow_geometry_mismatch": True},
        {"phi": 0.0},
        {"slit_width": 400e-6},  # wider than the separation
        {"source_points": 1},
        {"schedule": ()},
        {"schedule": (1000, 1000)},
        {"schedule": (1,)},
        {"tau": 0.0},
        {"sigma2": -1.0},
        {"workers": 0},
        {"batch": 0},
        {"n_max": 1},
        {"phi_list": (1e-3, 0.0)},
        {"speckle_phi_list": (-1e-3,)},
        {"speckle_n": 1},
        {"window": (10, 5)},
        {"window": (0, 256)},
        {"schedule": (200, 400), "n_max": 100},  # below the first checkpoint
        {"window": (5, 6)},  # too narrow to split into bands
        {"window": (1, 2, 3)},
        {"sigma2": float("nan")},
        {"sigma2": float("inf")},
        {"source_pitch": float("inf")},
        {"wavelength": float("inf")},
        {"tau": float("inf")},
        {"phi_list": (1e-3, float("inf"))},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ConfigError):
        ExperimentConfig(**changes)


def test_seed_must_fit_the_record_header_field():
    for seed in (-(1 << 63), -1, (1 << 63) - 1):
        assert ExperimentConfig(seed=seed).seed == seed
    # 2^64 - 1 drew the same stream as -1: the draw keys on seed mod 2^64
    for seed in (1 << 63, -(1 << 63) - 1, (1 << 64) - 1):
        with pytest.raises(ConfigError, match="signed 64-bit"):
            ExperimentConfig(seed=seed)


def test_replace_and_to_dict():
    cfg = ExperimentConfig().replace(phi=2e-3, seed=7)
    assert cfg.phi == 2e-3 and cfg.seed == 7
    d = cfg.to_dict()
    assert d["schedule"] == list(ExperimentConfig().schedule)
    assert d["phi"] == 2e-3
    # every field is present under its own name
    assert set(d) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_parse_config_text_types_and_comments():
    text = """
    # geometry
    d1 = 0.05
    d2 = 0.05   # trailing comment
    d = 0.10
    seed = 3
    schedule = 100, 200, 400
    phi_list = 1e-3, 2e-3
    write_records = false
    mask_file = masks/slits.txt
    n_max =
    """
    values = parse_config_text(text)
    assert values["d1"] == 0.05
    assert values["seed"] == 3
    assert values["schedule"] == (100, 200, 400)
    assert values["phi_list"] == (1e-3, 2e-3)
    assert values["write_records"] is False
    assert values["mask_file"] == "masks/slits.txt"
    assert values["n_max"] is None  # empty value means unset


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("bogus_key = 1", "unknown key"),
        ("speckle_distance = 0.06", "unknown key"),  # the survey runs at d1
        ("seed 3", "expected 'key = value'"),
        ("seed = x", "bad value"),
        ("write_records = maybe", "bad value"),
        ("seed = 1\nseed = 2", "duplicate"),
    ],
)
def test_parse_config_text_rejects(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(line)


def test_config_from_values_window_rules():
    cfg = config_from_values({"window": (10, 20), "phi": None})
    assert cfg.window == (10, 20)
    assert cfg.phi == ExperimentConfig().phi  # None entries are dropped
    with pytest.raises(ConfigError, match="window"):
        config_from_values({"window": [1, 2, 3]})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_values({"frequency": 1.0})


def test_dump_config_round_trips(tmp_path):
    # tuple fields given as lists in Python are held as tuples
    for seq in (tuple, list):
        cfg = ExperimentConfig(
            phi=2.5e-3,
            phi_list=seq((1e-3, 2e-3)),
            schedule=seq((200, 500)),
            window=seq((30, 220)),
            n_max=5000,
            write_records=False,
            mask_file="m.txt",
            seed=11,
        )
        path = tmp_path / "exp.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg
        assert hash(cfg) == hash(load_config(path))


def test_every_field_is_a_key_that_parses_back_from_dump():
    # every field set away from its default and away from None
    cfg = ExperimentConfig(
        wavelength=0.6e-6, d1=0.05, d2=0.07, d=0.12,
        source_points=300, source_pitch=5e-6, object_points=301,
        object_pitch=1e-6, detector_points=128, detector_pitch=2e-6,
        slit_width=90e-6, slit_separation=250e-6, mask_file="m.txt",
        phi=1.5e-3, phi_list=(1e-3, 2e-3), sigma2=2.0, seed=-4,
        schedule=(10, 20), tau=0.1, n_max=15, window=(3, 100),
        workers=2, batch=64, write_records=False, allow_geometry_mismatch=True,
        speckle_points=64, speckle_pitch=30e-6, speckle_phi_list=(1e-3,),
        speckle_n=50,
    )
    default = ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    values = parse_config_text(dump_config(cfg))
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    for f in dataclasses.fields(ExperimentConfig):
        assert values[f.name] == getattr(cfg, f.name), f.name
        assert type(values[f.name]) is type(getattr(cfg, f.name)), f.name
    assert config_from_values(values) == cfg


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 1\ntau = 0.05\n")
    cfg = load_config(path, overrides={"seed": 9})
    assert cfg.seed == 9
    assert cfg.tau == 0.05
