"""Transmission objects and the analytic far-pattern reference.

The double slit has opening width a centered at +/- b/2 (center separation b),
with inclusive edges: a sample exactly on a slit boundary transmits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError, GridMismatchError
from .fields import ComplexField, RealPattern
from .grids import Grid
from .propagation import SETUP_BLOCK


@dataclass(eq=False)
class TransmissionMask:
    """Amplitude transmittance in [0, 1] on the object-plane grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != self.grid.shape:
            raise GridMismatchError(
                f"mask samples {self.samples.shape} do not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("mask samples must be finite")
        if self.samples.min() < 0.0 or self.samples.max() > 1.0:
            raise ValueError("mask samples must lie in [0, 1]")


def double_slit(a: float, b: float, grid: Grid) -> TransmissionMask:
    """Two openings of width a centered at +/- b/2; edges are inclusive.

    An outer edge past the outermost sample (on it fits) would clip the pair,
    which is scored against the unclipped reference: ``GeometryError``.
    """
    if grid.ndim != 1:
        raise ValueError("double_slit requires a 1D object grid")
    if not (np.isfinite(a) and a > 0 and np.isfinite(b) and b > 0):
        raise ValueError("slit width a and separation b must be positive")
    if b <= a:
        raise ValueError("separation b must exceed slit width a (openings must not overlap)")
    x = grid.coords(0)
    half = a / 2.0
    # the inclusion test below, at the outermost samples
    if min(x[-1] - b / 2.0, -(x[0] + b / 2.0)) < half:
        raise GeometryError(
            f"double slit (outer edges at +/-{b / 2.0 + half:.6g} m) exceeds the object "
            f"grid [{x[0]:.6g}, {x[-1]:.6g}] m"
        )
    t = (np.abs(x + b / 2.0) <= half) | (np.abs(x - b / 2.0) <= half)
    return TransmissionMask(grid, t.astype(np.float64))


def apply_mask(field_in: ComplexField, mask: TransmissionMask) -> ComplexField:
    """Multiply a field by a transmittance defined on the same grid."""
    if field_in.grid != mask.grid:
        raise GridMismatchError("field and mask grids differ")
    return ComplexField(field_in.grid, field_in.samples * mask.samples, field_in.wavelength)


def reference_double_slit(
    a: float, b: float, wavelength: float, d2: float, grid: Grid
) -> RealPattern:
    """Ideal reconstruction for the double slit on the detector grid.

    y(rho) = 1/2 * sinc(a rho / (lambda d2))^2 * (1 + cos(2 pi b rho / (lambda d2)))
    with sinc(u) = sin(pi u)/(pi u); peak value exactly 1 at rho = 0.
    """
    if grid.ndim != 1:
        raise ValueError("reference_double_slit requires a 1D detector grid")
    if b <= a or a <= 0:
        raise ValueError("need 0 < a < b")
    rho = grid.coords(0)
    u = rho / (wavelength * d2)
    y = 0.5 * np.sinc(a * u) ** 2 * (1.0 + np.cos(2.0 * np.pi * b * u))
    return RealPattern(grid, y)


def reference_from_mask(
    mask: TransmissionMask, wavelength: float, d2: float, grid_out: Grid
) -> RealPattern:
    """|T(rho/(lambda d2))|^2 by direct Fourier quadrature, min-max normalized.

    T is the Fourier transform of the transmittance; this is the ideal
    reconstruction for an arbitrary mask, usable when no closed form exists.
    A structureless transform (e.g. an opaque mask) is returned as-is, flat;
    ``GhostPipeline.from_config`` refuses it, before any draw.
    """
    if mask.grid.ndim != 1 or grid_out.ndim != 1:
        raise ValueError("reference_from_mask requires 1D grids")
    x = mask.grid.coords(0)
    rho = grid_out.coords(0)
    xi = rho / (wavelength * d2)
    samples = mask.samples * mask.grid.pitch[0]
    # a block of detector pixels at a time, each summed over every object
    # pixel: the (detector, object) phase matrix is never held whole
    t_hat = np.concatenate([
        np.exp(-2j * np.pi * xi[a : a + SETUP_BLOCK, None] * x[None, :]) @ samples
        for a in range(0, xi.size, SETUP_BLOCK)
    ])
    y = np.abs(t_hat) ** 2
    lo, hi = y.min(), y.max()
    if hi == lo:
        return RealPattern(grid_out, y)
    return RealPattern(grid_out, (y - lo) / (hi - lo))


def load_mask(path, grid: Grid) -> TransmissionMask:
    """Read a one-transmittance-per-line text file onto the object grid.

    A file that does not hold one valid transmittance per object-grid point
    is a bad input, so it raises ConfigError naming the file.
    """
    try:
        values = np.loadtxt(path, dtype=np.float64, ndmin=1)
        if values.ndim != 1:
            raise ValueError("must contain a single column")
        if values.size != grid.npoints:
            raise ValueError(
                f"{values.size} rows, object grid expects {grid.npoints}"
            )
        return TransmissionMask(grid, values)
    except ValueError as exc:
        raise ConfigError(f"mask file {path}: {exc}") from None
