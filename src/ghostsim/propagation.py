"""Paraxial Fresnel propagation between parallel transverse planes.

Amplitude convention: the 1D point response is

    h(x, y) = exp(j k z) / sqrt(j lambda z) * exp(j k (y - x)^2 / (2 z))

with 1/sqrt(j lambda z) per transverse dimension, so a 1D quadrature matrix
entry has modulus dx / sqrt(lambda z).  2D propagation is intensity only:
``fft_chirp`` is the input factor for which |fft2(E * chirp)|^2 is the
propagated intensity, on the output grid ``fft_output_grid`` whose pitch is
forced to lambda * z / (M * dx) per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError
from .fields import ComplexField
from .grids import Grid, make_grid

# Output entries per block when a set-up product is formed a block at a time
# (``GhostPipeline._operators``, ``reference_from_mask``).  Only the output
# side is split, never the side summed over, so each entry is the dense
# product's dot product.  OpenBLAS's GEMV kernels take outputs in groups of
# 4 and the remainder by another path; a multiple of 4 keeps the dense
# product's groups.  At one BLAS thread the blocked product is then the
# dense one bit for bit (checked in the tests at 46 to 1720 outputs).
SETUP_BLOCK = 64


def _check_geometry(distance: float, wavelength: float) -> None:
    if not (np.isfinite(distance) and distance > 0):
        raise ValueError("distance must be positive and finite")
    if not (np.isfinite(wavelength) and wavelength > 0):
        raise ValueError("wavelength must be positive and finite")


def fft_output_pitch(grid_in: Grid, distance: float, wavelength: float, axis: int) -> float:
    """Output pitch the one-step FFT form produces along one axis."""
    return wavelength * distance / (grid_in.shape[axis] * grid_in.pitch[axis])


def fft_output_grid(grid_in: Grid, distance: float, wavelength: float) -> Grid:
    """The only output grid the one-step FFT form can deliver for grid_in."""
    pitches = tuple(
        fft_output_pitch(grid_in, distance, wavelength, a) for a in range(grid_in.ndim)
    )
    return make_grid(grid_in.ndim, grid_in.shape, pitches)


@dataclass(eq=False)
class PropagationKernel:
    """Precomputed 1D Fresnel propagator from grid_in to grid_out at one distance."""

    grid_in: Grid
    grid_out: Grid
    distance: float
    wavelength: float
    matrix: np.ndarray = field(repr=False)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Propagate raw samples: (M,) or (M, B) arrays, batch in columns."""
        return self.matrix @ samples


def fresnel_matrix(
    x: np.ndarray, y: np.ndarray, distance: float, wavelength: float, dx: float
) -> np.ndarray:
    """The 1D direct-form matrix from samples at x (spacing dx) to points y.

    Entry [q, p] is exp(j k z) / sqrt(j lambda z) * dx * exp(j k (y_q - x_p)^2 / (2 z)),
    shape (len(y), len(x)).  Any subset of the coordinates gives the matching
    submatrix of the full grid's matrix, bit for bit.
    """
    k = 2.0 * np.pi / wavelength
    pref = np.exp(1j * k * distance) / np.sqrt(1j * wavelength * distance)
    # Built in place, so the peak memory is one matrix, not three.  The
    # factor stays the first operand: numpy's complex multiply is not
    # bitwise symmetric, and the order fixes the last bit of every entry.
    matrix = (1j * k / (2.0 * distance)) * (y[:, None] - x[None, :]) ** 2
    np.exp(matrix, out=matrix)
    np.multiply(pref * dx, matrix, out=matrix)
    return matrix


def chebyshev_factors(
    x: np.ndarray, y: np.ndarray, distance: float, wavelength: float, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """``fresnel_matrix(x, y, ...)`` factored as ``interp @ to_nodes``.

    Along y each column is a chirp.  With y mapped onto [-1, 1] (Y the
    half-span of y), its phase changes by at most
    omega = 2 pi / (lambda z) * (max|x - y_mid| + Y) * Y radians per unit,
    and its Chebyshev coefficients fall like (omega/2)^n / n!.  The node
    count m is the smallest integer above omega with (omega/2)^m / m! <= 1e-17;
    m Chebyshev points of the second kind then carry every column to about
    1e-13 of the largest entry.  m follows from the geometry alone.

    to_nodes = fresnel_matrix(x, nodes, ...) has shape (m, len(x)); interp,
    shape (len(y), m), is the real barycentric interpolation from the nodes
    to y (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).
    """
    mid = (y.max() + y.min()) / 2.0
    half = (y.max() - y.min()) / 2.0
    omega = 2.0 * np.pi / (wavelength * distance) * (np.max(np.abs(x - mid)) + half) * half
    m = max(2, math.floor(omega) + 1)
    while m * math.log(omega / 2.0) - math.lgamma(m + 1) > math.log(1e-17):
        m += 1
    nodes = mid + half * np.cos(np.pi * np.arange(m) / (m - 1))
    weights = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    offset = y[:, None] - nodes[None, :]
    # a point on a node (the span's ends, at least) takes that node's value
    hit = offset == 0.0
    offset[hit] = 1.0
    interp = weights / offset
    interp /= interp.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    interp[rows] = hit[rows]
    return fresnel_matrix(x, nodes, distance, wavelength, dx), interp


def fresnel_kernel(
    grid_in: Grid, grid_out: Grid, distance: float, wavelength: float
) -> PropagationKernel:
    """The direct-form propagator between 1D grids (2D grids: ``fft_chirp``)."""
    _check_geometry(distance, wavelength)
    if grid_in.ndim != 1 or grid_out.ndim != 1:
        raise ValueError(
            f"fresnel_kernel takes 1D grids, got {grid_in.ndim}D and {grid_out.ndim}D"
        )
    matrix = fresnel_matrix(
        grid_in.coords(0), grid_out.coords(0), distance, wavelength, grid_in.pitch[0]
    )
    return PropagationKernel(grid_in, grid_out, distance, wavelength, matrix)


def fft_chirp(grid_in: Grid, distance: float, wavelength: float) -> np.ndarray:
    """The (M0, M1) input factor of 2D intensity propagation by one FFT.

    |fft2(E * fft_chirp(...))|^2 is the Fresnel intensity on
    ``fft_output_grid(grid_in, ...)``.  The factor is the input chirp
    exp(j k x^2 / (2 z)), times the centered-DFT phase exp(j 2 pi c p / M)
    with c = (M - 1) / 2, which puts the output grid's center on the axis,
    times dx * dy / (lambda z), the modulus of the Fresnel prefactor.  The
    output-side phases and the unit-modulus part of the prefactor drop out
    of |.|^2.
    """
    _check_geometry(distance, wavelength)
    if grid_in.ndim != 2:
        raise ValueError(f"fft_chirp takes a 2D grid, got {grid_in.ndim}D")
    k = 2.0 * np.pi / wavelength
    axes = []
    for a in range(2):
        m = grid_in.shape[a]
        c = (m - 1) / 2.0
        phase = np.exp(2j * np.pi * c * np.arange(m) / m)
        axes.append(np.exp((1j * k / (2.0 * distance)) * grid_in.coords(a) ** 2) * phase)
    scale = grid_in.pitch[0] * grid_in.pitch[1] / (wavelength * distance)
    return scale * axes[0][:, None] * axes[1][None, :]


def propagate(field_in: ComplexField, kernel: PropagationKernel) -> ComplexField:
    """Apply a kernel to one field; linear in the input by construction."""
    if field_in.grid != kernel.grid_in:
        raise GridMismatchError("field grid does not match kernel input grid")
    if field_in.wavelength != kernel.wavelength:
        raise ValueError("field wavelength does not match kernel wavelength")
    return ComplexField(kernel.grid_out, kernel.apply(field_in.samples), kernel.wavelength)


def point_weights(
    grid: Grid, point: float, distance: float, wavelength: float
) -> np.ndarray:
    """Quadrature weights w with sum(w * E) = 1D field propagated to one point."""
    _check_geometry(distance, wavelength)
    if grid.ndim != 1:
        raise ValueError(f"point_weights takes a 1D grid, got {grid.ndim}D")
    point = np.array([float(point)])
    return fresnel_matrix(grid.coords(0), point, distance, wavelength, grid.pitch[0])[0]


def propagate_to_point(field_in: ComplexField, point, distance: float) -> complex:
    """Field value at a single output point; O(M), no output grid involved."""
    w = point_weights(field_in.grid, point, distance, field_in.wavelength)
    return complex(np.dot(w.ravel(), field_in.samples.ravel()))


def validate_sampling(
    x: np.ndarray, y: np.ndarray, distance: float, wavelength: float, dx: float
) -> list[str]:
    """Aliasing and paraxial checks of ``fresnel_matrix(x, y, distance,
    wavelength, dx)``; returns human-readable warnings (empty if clean).

    Along x each row is the chirp exp(j k (y - x)^2 / (2 z)), whose phase
    steps by k dx W / z between adjacent samples at W = max|y - x|, the
    largest offset the matrix holds; a step above pi aliases.  The paraxial
    form needs the half angle W / z below 0.1.
    """
    out: list[str] = []
    w = max(y.max() - x.min(), x.max() - y.min())
    step = 2.0 * np.pi / wavelength * dx * w / distance
    if step > np.pi:
        out.append(f"chirp undersampled on axis 0: edge phase step {step:.3g} rad > pi")
    angle = w / distance
    if angle > 0.1:
        out.append(f"paraxial limit strained on axis 0: half angle {angle:.3g} rad > 0.1")
    return out
