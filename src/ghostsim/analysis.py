"""Pattern comparison metrics and convergence bookkeeping.

Reconstruction and reference are always min-max normalized independently over
the comparison window before any error is computed, so the figures are
insensitive to absolute intensity scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegeneratePatternError, NoPeakError
from .fields import RealPattern
from .grids import Grid


def _window_indices(length: int, window) -> tuple[int, int]:
    if window is None:
        return 0, length - 1
    m, n = int(window[0]), int(window[1])
    if not (0 <= m <= n <= length - 1):
        raise ValueError(f"window [{m}, {n}] out of range for length {length}")
    return m, n


def _subgrid(grid: Grid, m: int, n: int) -> Grid:
    count = n - m + 1
    center = grid.origin[0] + ((m + n) / 2.0 - (grid.shape[0] - 1) / 2.0) * grid.pitch[0]
    return Grid(shape=(count,), pitch=(grid.pitch[0],), origin=(center,))


def normalize_unit(pattern: RealPattern, window=None) -> RealPattern:
    """Affine rescale of the windowed samples onto [0, 1]."""
    if pattern.grid.ndim != 1:
        raise ValueError("normalize_unit operates on 1D patterns")
    m, n = _window_indices(pattern.grid.shape[0], window)
    v = pattern.samples[m : n + 1]
    lo, hi = v.min(), v.max()
    if hi == lo:
        raise DegeneratePatternError("pattern is constant over the window")
    return RealPattern(_subgrid(pattern.grid, m, n), (v - lo) / (hi - lo))


@dataclass(frozen=True, eq=False)
class BandSplit:
    """Central-third / remainder partition of a comparison window."""

    window: tuple[int, int]
    low: np.ndarray
    high: np.ndarray


def split_bands(length: int, window=None) -> BandSplit:
    """Low band = central floor(W/3) indices of the window; high = the rest.

    The low band starts ceil((W - L)/2) indices into the window, which puts
    any odd leftover sample on the left side of the high band.
    """
    m, n = _window_indices(length, window)
    w = n - m + 1
    if w < 3:
        raise ValueError(f"window of {w} samples is too small to split into bands")
    size = w // 3
    start = m + int(np.ceil((w - size) / 2.0))
    low = np.arange(start, start + size)
    high = np.concatenate([np.arange(m, start), np.arange(start + size, n + 1)])
    return BandSplit(window=(m, n), low=low, high=high)


def banded_errors(y_hat, y, window=None) -> tuple[float, float, float]:
    """(eps_global, eps_low, eps_high) of already-normalized patterns.

    All three are computed from the same residual vector, so
    W*eps_global^2 = |low|*eps_low^2 + |high|*eps_high^2 holds exactly.
    """
    a = np.asarray(y_hat, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("patterns must have equal length")
    m, n = _window_indices(a.shape[0], window)
    d = a - b
    bands = split_bands(a.shape[0], (m, n))
    eps_g = float(np.sqrt(np.mean(d[m : n + 1] ** 2)))
    eps_l = float(np.sqrt(np.mean(d[bands.low] ** 2)))
    eps_h = float(np.sqrt(np.mean(d[bands.high] ** 2)))
    return eps_g, eps_l, eps_h


def pattern_errors(
    reconstruction: RealPattern, reference: RealPattern, window=None
) -> tuple[float, float, float]:
    """Normalize both patterns over the window, then banded RMS errors."""
    if reconstruction.grid != reference.grid:
        raise ValueError("reconstruction and reference must share a grid")
    y_hat = normalize_unit(reconstruction, window)
    y = normalize_unit(reference, window)
    return banded_errors(y_hat.samples, y.samples)


def coherence_length(wavelength: float, distance: float, aperture: float) -> float:
    """Transverse coherence length lambda * z / phi at distance z from the source."""
    if min(wavelength, distance, aperture) <= 0:
        raise ValueError("wavelength, distance and aperture must be positive")
    return wavelength * distance / aperture


def kappa(feature_size: float, l_c: float) -> float:
    """Feature size in units of the coherence length."""
    if min(feature_size, l_c) <= 0:
        raise ValueError("feature_size and l_c must be positive")
    return feature_size / l_c


def half_width(pattern: RealPattern) -> float:
    """Full width at half maximum by linear interpolation around the peak.

    The global maximum must sit away from the window edges; the innermost
    half-crossing on each side is used.
    """
    if pattern.grid.ndim != 1:
        raise ValueError("half_width operates on 1D patterns")
    v = pattern.samples
    x = pattern.grid.coords(0)
    i = int(np.argmax(v))
    if i == 0 or i == v.shape[0] - 1:
        raise NoPeakError("maximum lies on the window edge")
    half = v[i] / 2.0

    def cross(j0: int, step: int) -> float:
        j = j0 + step
        while 0 <= j < v.shape[0]:
            if v[j] <= half:
                frac = (half - v[j - step]) / (v[j] - v[j - step])
                return float(x[j - step] + frac * (x[j] - x[j - step]))
            j += step
        raise NoPeakError("half-maximum crossing not inside the window")

    return cross(i, 1) - cross(i, -1)


def local_maxima(pattern: RealPattern, threshold_rel: float = 0.5) -> tuple[int, ...]:
    """Indices of interior local maxima at or above a fraction of the peak.

    A plateau of equal samples counts once, reported at its center index;
    plateaus touching a window edge are not maxima.
    """
    if pattern.grid.ndim != 1:
        raise ValueError("local_maxima operates on 1D patterns")
    if not 0.0 < threshold_rel <= 1.0:
        raise ValueError("threshold_rel must lie in (0, 1]")
    v = pattern.samples
    lim = threshold_rel * float(v.max())
    out: list[int] = []
    i = 1
    while i < v.shape[0] - 1:
        if v[i] > v[i - 1] and v[i] >= lim:
            j = i
            while j + 1 < v.shape[0] and v[j + 1] == v[i]:
                j += 1
            if j < v.shape[0] - 1 and v[i] >= v[j + 1]:
                out.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return tuple(out)


def peak_position(pattern: RealPattern, center_index: int, half_points: int) -> float:
    """Sub-pixel position of a local maximum by quadratic least squares.

    Fits a parabola to the 2*half_points + 1 samples around center_index and
    returns its vertex coordinate.  Noise-tolerant replacement for argmax:
    on a broad fringe the sample-level argmax wanders by several pixels at
    error levels where this fit stays within a fraction of one.
    """
    if pattern.grid.ndim != 1:
        raise ValueError("peak_position operates on 1D patterns")
    if half_points < 1:
        raise ValueError("half_points must be >= 1")
    lo, hi = center_index - half_points, center_index + half_points
    if lo < 0 or hi > pattern.grid.shape[0] - 1:
        raise ValueError("fit window extends past the grid edge")
    x = pattern.grid.coords(0)[lo : hi + 1]
    x0 = x[half_points]
    a, b, _ = np.polyfit(x - x0, pattern.samples[lo : hi + 1], 2)
    if not a < 0:
        raise NoPeakError("fitted curvature is not negative")
    vertex = -b / (2.0 * a)
    if abs(vertex) > half_points * pattern.grid.pitch[0]:
        raise NoPeakError("fitted vertex lies outside the window")
    return float(x0 + vertex)


@dataclass(frozen=True)
class CurvePoint:
    """Errors of the reconstruction at one scheduled sample count."""

    n: int
    eps_global: float
    eps_low: float
    eps_high: float


@dataclass(frozen=True)
class ThresholdSearch:
    """A convergence curve scanned up to its first point with eps_global <= tau.

    The curve ends at the crossing, or at the budget if tau was not reached.
    """

    tau: float
    n_budget: int
    curve: tuple[CurvePoint, ...]

    @property
    def crossing(self) -> CurvePoint:
        """The point at n_star, or the last point if tau was not reached."""
        return self.curve[-1]

    @property
    def reached(self) -> bool:
        return self.crossing.eps_global <= self.tau

    @property
    def n_star(self) -> int | None:
        return self.crossing.n if self.reached else None

    @property
    def eps_final(self) -> float:
        return self.crossing.eps_global


def min_n_to_threshold(
    points: Iterable[CurvePoint], tau: float, n_budget: int
) -> ThresholdSearch:
    """Smallest N of a convergence curve whose global error reaches tau.

    ``points`` must come in increasing N; they are consumed lazily, and none
    past the first crossing is pulled.  If no point reaches tau, the search
    reports not-reached with the final error.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    curve: list[CurvePoint] = []
    for point in points:
        curve.append(point)
        if point.eps_global <= tau:
            break
    if not curve:
        raise ValueError("no checkpoints to search")
    return ThresholdSearch(tau, n_budget, tuple(curve))
