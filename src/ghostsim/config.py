"""Experiment configuration: defaults, key=value file parsing, validation.

The config file is plain text, one ``key = value`` per line, ``#`` comments.
Lists are comma-separated, booleans are true/false, empty value means unset.
Unknown keys are rejected so typos cannot silently fall back to defaults.

Grid defaults are desk-scale choices made for this implementation; they are
not measured values and every one of them can be overridden.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .grids import Grid, make_grid

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of the two-arm correlation experiments.

    ``d`` must equal ``d1 + d2``: the object-free arm spans the same total
    distance as the two-hop test arm.  Breaking that on purpose (to watch the
    reconstruction degrade) requires ``allow_geometry_mismatch``.
    """

    wavelength: float = 0.532e-6
    d1: float = 0.060
    d2: float = 0.075
    d: float = 0.135

    source_points: int = 512
    source_pitch: float = 4e-6
    object_points: int = 561
    object_pitch: float = 0.75e-6
    detector_points: int = 256
    detector_pitch: float = 1.557e-6

    slit_width: float = 105e-6
    slit_separation: float = 303e-6
    mask_file: str | None = None

    phi: float = 1.72e-3
    phi_list: tuple[float, ...] | None = None
    sigma2: float = 1.0
    seed: int = 0

    schedule: tuple[int, ...] = (1000, 2000, 4000, 8000, 16000, 32000, 64000)
    tau: float = 0.07
    n_max: int | None = None
    window: tuple[int, int] | None = None

    workers: int = 1  # validated but ignored: every run folds in order on the calling thread
    batch: int = 256
    write_records: bool = True
    allow_geometry_mismatch: bool = False

    speckle_points: int = 512
    speckle_pitch: float = 40e-6
    speckle_phi_list: tuple[float, ...] = (2.5e-3, 1.25e-3, 0.625e-3, 0.3125e-3)
    speckle_n: int = 20000

    def __post_init__(self):
        for name in _TUPLES:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))
        for name in _POSITIVE:
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        for name in _POSITIVE_ENTRIES:
            values = getattr(self, name)
            if values is not None and not all(0 < v < math.inf for v in values):
                raise ConfigError(f"{name} entries must be positive and finite, got {values!r}")
        if not self.allow_geometry_mismatch:
            if abs(self.d - (self.d1 + self.d2)) > _REL_TOL * self.d:
                raise ConfigError(
                    f"d = {self.d!r} does not equal d1 + d2 = {self.d1 + self.d2!r}; "
                    "set allow_geometry_mismatch to run a broken geometry on purpose"
                )
        if self.slit_separation <= self.slit_width:
            raise ConfigError("slit_separation must exceed slit_width")
        for name in ("source_points", "object_points", "detector_points", "speckle_points"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2")
        if not self.schedule or any(
            b <= a for a, b in zip(self.schedule, self.schedule[1:])
        ):
            raise ConfigError("schedule must be a non-empty strictly increasing list")
        if self.schedule[0] < 2:
            raise ConfigError("schedule counts must be >= 2")
        if not -(1 << 63) <= self.seed < 1 << 63:  # the record header's signed 64-bit field
            raise ConfigError(f"seed must fit a signed 64-bit integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.n_max is not None and self.n_max < self.schedule[0]:
            raise ConfigError(
                f"n_max = {self.n_max} is below the first checkpoint {self.schedule[0]}"
            )
        if self.speckle_n < 2:
            raise ConfigError("speckle_n must be >= 2")
        if self.window is not None:
            if len(self.window) != 2:
                raise ConfigError("window must be exactly two indices: low, high")
            m, n = self.window
            if not (0 <= m and m + 2 <= n <= self.detector_points - 1):
                raise ConfigError(
                    f"window {self.window} must span at least 3 of the "
                    f"{self.detector_points} detector pixels"
                )

    def source_grid(self) -> Grid:
        return make_grid(1, self.source_points, self.source_pitch)

    def object_grid(self) -> Grid:
        return make_grid(1, self.object_points, self.object_pitch)

    def detector_grid(self) -> Grid:
        return make_grid(1, self.detector_points, self.detector_pitch)

    def speckle_grid(self) -> Grid:
        return make_grid(2, self.speckle_points, self.speckle_pitch)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _unwrap(hint):
    """The type of a field with its optional (``| None``) part dropped."""
    if get_origin(hint) in (Union, UnionType):
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    return hint


def _parser_for(hint):
    """Text parser for a field type: scalars, optionals and tuples of a scalar."""
    hint = _unwrap(hint)
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda raw: tuple(item(part) for part in raw.split(","))
    return _parse_bool if hint is bool else hint


_HINTS = get_type_hints(ExperimentConfig)
_PARSERS = {name: _parser_for(hint) for name, hint in _HINTS.items()}
# Tuple fields hold tuples even when given lists, so configs stay hashable.
_TUPLES = tuple(name for name, hint in _HINTS.items() if get_origin(_unwrap(hint)) is tuple)
# Every float field, and every entry of a tuple-of-floats field, must be > 0 and finite.
_POSITIVE = tuple(name for name, hint in _HINTS.items() if _unwrap(hint) is float)
_POSITIVE_ENTRIES = tuple(
    name for name, hint in _HINTS.items() if _unwrap(hint) == tuple[float, ...]
)


def parse_value(key: str, raw: str):
    """The value of config key ``key`` from its text; empty text means unset (None)."""
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config_text(text: str, source: str = "<string>") -> dict:
    """Key/value pairs from config text; raises ConfigError on unknown keys."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = parse_value(key, raw)
    return values


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Config from a file plus programmatic overrides (CLI flags win)."""
    values = parse_config_text(Path(path).read_text(), source=str(path))
    if overrides:
        values.update(overrides)
    return config_from_values(values)


def config_from_values(values: dict) -> ExperimentConfig:
    """Build a config from a plain dict, dropping unset (None) entries."""
    clean = {k: v for k, v in values.items() if v is not None}
    unknown = set(clean) - _PARSERS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(**clean)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def format_value(value) -> str:
    """The text of a value in config files and CSVs: None as empty, bools as
    true/false, floats by repr (so they parse back exactly), tuples joined
    by ", ".  Pass Python scalars: numpy 2 reprs np.float64 with its type."""
    if isinstance(value, float):  # the common case first: CSVs are mostly floats
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(format_value, value))
    return str(value)


def dump_config(config: ExperimentConfig) -> str:
    """The config as parseable key = value text (round-trips through load)."""
    return "".join(
        f"{f.name} = {format_value(getattr(config, f.name))}\n"
        for f in dataclasses.fields(config)
    )
