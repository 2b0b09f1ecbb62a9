"""Pseudo-thermal source: field containers and per-realization sampling.

Each source pixel inside the aperture carries an independent complex value
A * exp(j*phase) with A Rayleigh-distributed (mean square 2*sigma2) and phase
uniform on (0, 2*pi].  Pixels are statistically independent, so the field is
delta-correlated across the source plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import GeometryError, GridMismatchError
from .grids import Grid

_MASK64 = (1 << 64) - 1
_CHUNK = 32  # realizations drawn per pass of the vectorized phase/amplitude steps


@dataclass(eq=False)
class ComplexField:
    """Complex scalar field samples on a grid, tagged with the wavelength."""

    grid: Grid
    samples: np.ndarray
    wavelength: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.shape != self.grid.shape:
            raise GridMismatchError(
                f"field samples {self.samples.shape} do not match grid {self.grid.shape}"
            )
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValueError("wavelength must be positive and finite")
        if not np.isfinite(self.samples).all():
            raise ValueError("field samples must be finite")


@dataclass(eq=False)
class RealPattern:
    """Real-valued samples on a grid (intensities, correlations, references)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != self.grid.shape:
            raise GridMismatchError(
                f"pattern samples {self.samples.shape} do not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("pattern samples must be finite")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: a pure function of (seed, realization_index).

    Each index keys its own Philox generator, so streams are mutually
    independent and any realization can be drawn on any worker, in any order,
    with identical results.
    """

    seed: int
    realization_index: int

    def __post_init__(self):
        if self.realization_index < 0:
            raise ValueError("realization_index must be >= 0")

    def generator(self) -> Generator:
        key = np.array(
            [self.seed & _MASK64, self.realization_index & _MASK64], dtype=np.uint64
        )
        return Generator(Philox(key=key))


@dataclass(frozen=True)
class SourceSpec:
    """Chaotic source geometry: aperture width/diameter and amplitude scale.

    ``aperture`` is the full slit width (1D grids) or disk diameter (2D grids).
    It must fit between the outermost sample centers of the grid on every
    axis; a wider aperture would be silently truncated and is rejected.
    """

    grid: Grid
    aperture: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.aperture) and self.aperture > 0):
            raise ValueError("aperture must be positive and finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be positive and finite")
        for axis in range(self.grid.ndim):
            if self.aperture > self.grid.extent(axis):
                raise GeometryError(
                    f"aperture {self.aperture} exceeds grid extent "
                    f"{self.grid.extent(axis)} on axis {axis}"
                )

    def aperture_mask(self) -> np.ndarray:
        half = self.aperture / 2.0
        if self.grid.ndim == 1:
            return np.abs(self.grid.coords(0)) <= half
        x = self.grid.coords(0)[:, None]
        y = self.grid.coords(1)[None, :]
        return x * x + y * y <= half * half

    @cached_property
    def aperture_indices(self) -> np.ndarray:
        """Flat row-major indices of the in-aperture pixels, computed once."""
        idx = np.flatnonzero(self.aperture_mask().ravel())
        idx.flags.writeable = False  # shared by every draw from this spec
        return idx


def fill_source_block(spec: SourceSpec, seed: int, first_index: int,
                      out: np.ndarray) -> None:
    """Write realizations first_index, first_index + 1, ... into the columns of out.

    ``out`` has shape (grid.npoints, B) with row-major flat pixels along axis 0;
    only its in-aperture rows are written, so pass a zeroed block.  Column j
    is bitwise the realization drawn by ``RngStream(seed, first_index + j)``:
    one Philox is re-keyed to (seed, index) with a zero counter for every
    column, which is exactly the state ``Philox(key=...)`` starts from.  For
    each realization the amplitudes for every in-aperture pixel are drawn
    first (at unit scale), then the phases, in fixed row-major order; the
    amplitude is multiplied by sigma afterwards, so two calls with the same
    stream and different sigma2 give exactly proportional fields.
    """
    if first_index < 0:
        raise ValueError("first_index must be >= 0")
    idx = spec.aperture_indices
    count = out.shape[1]
    bitgen = Philox()
    rng = Generator(bitgen)
    key = np.zeros(2, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # buffer empty: the next draw runs Philox on counter 0
        "has_uint32": 0,
        "uinteger": 0,
    }
    key[0] = seed & _MASK64
    sigma = np.sqrt(spec.sigma2)
    rows = min(_CHUNK, count)
    amp = np.empty((rows, idx.size))
    phase = np.empty((rows, idx.size))
    z = np.empty((rows, idx.size), dtype=np.complex128)
    for a in range(0, count, _CHUNK):
        k = min(_CHUNK, count - a)
        for r in range(k):
            key[1] = (first_index + a + r) & _MASK64
            bitgen.state = state
            amp[r] = rng.rayleigh(size=idx.size)
            rng.random(out=phase[r])
        u, zk, ak = phase[:k], z[:k], amp[:k]
        np.subtract(1.0, u, out=u)
        u *= 2.0 * np.pi  # uniform on (0, 2*pi]
        # exp(0 + j*phase) as the complex exp, which is what exp(1j * phase)
        # computes; cos/sin would match it bitwise only on some libm builds.
        zk.real = 0.0
        zk.imag = u
        np.exp(zk, out=zk)
        ak *= sigma
        zk *= ak
        out[idx, a : a + k] = zk.T


def draw_source_samples(spec: SourceSpec, stream: RngStream) -> np.ndarray:
    """Raw complex samples of one realization (zeros outside the aperture)."""
    out = np.zeros((spec.grid.npoints, 1), dtype=np.complex128)
    fill_source_block(spec, stream.seed, stream.realization_index, out)
    return out.reshape(spec.grid.shape)


def sample_source(spec: SourceSpec, stream: RngStream, wavelength: float) -> ComplexField:
    """One pseudo-thermal realization of the source as a ComplexField."""
    return ComplexField(spec.grid, draw_source_samples(spec, stream), wavelength)


def intensity(field: ComplexField) -> RealPattern:
    """|E|^2 sample by sample."""
    s = field.samples
    return RealPattern(field.grid, s.real * s.real + s.imag * s.imag)
