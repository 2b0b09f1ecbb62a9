"""Uniform centered sampling grids for 1D and 2D transverse planes.

All coordinates are in meters.  A grid axis with n points, pitch p and origin
c samples the positions c + (i - (n - 1)/2) * p, so grids are symmetric about
their origin and index -> coordinate is exact and invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    shape: tuple[int, ...]
    pitch: tuple[float, ...]
    origin: tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def npoints(self) -> int:
        return math.prod(self.shape)

    def coords(self, axis: int = 0) -> np.ndarray:
        """Sample coordinates along one axis."""
        n = self.shape[axis]
        return self.origin[axis] + (np.arange(n) - (n - 1) / 2.0) * self.pitch[axis]

    def coordinate_of(self, index: int, axis: int = 0) -> float:
        n = self.shape[axis]
        return self.origin[axis] + (index - (n - 1) / 2.0) * self.pitch[axis]

    def index_of(self, coordinate: float, axis: int = 0) -> int:
        """Nearest sample index, clamped to the grid; ties resolve to the smaller index."""
        n = self.shape[axis]
        t = (coordinate - self.origin[axis]) / self.pitch[axis] + (n - 1) / 2.0
        i = math.ceil(t - 0.5)
        return min(max(i, 0), n - 1)

    def extent(self, axis: int = 0) -> float:
        """Distance between the outermost sample centers along one axis."""
        return (self.shape[axis] - 1) * self.pitch[axis]


def _per_axis(value, dims: int, name: str) -> tuple:
    if np.isscalar(value):
        return (value,) * dims
    out = tuple(value)
    if len(out) != dims:
        raise ValueError(f"{name} must be a scalar or a length-{dims} sequence")
    return out


def make_grid(dims: int, extent_points, pitch, origin=0.0) -> Grid:
    """Build a centered grid with the given point count and pitch per axis."""
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    shape = _per_axis(extent_points, dims, "extent_points")
    pitches = _per_axis(pitch, dims, "pitch")
    origins = _per_axis(origin, dims, "origin")
    if any(int(s) != s or s < 2 for s in shape):
        raise ValueError("extent_points must be integers >= 2 in every dimension")
    if any(not (p > 0 and np.isfinite(p)) for p in pitches):
        raise ValueError("pitch must be positive and finite")
    if any(not np.isfinite(c) for c in origins):
        raise ValueError("origin must be finite")
    return Grid(
        shape=tuple(int(s) for s in shape),
        pitch=tuple(float(p) for p in pitches),
        origin=tuple(float(c) for c in origins),
    )
