"""Pseudo-thermal source: field containers and per-realization sampling.

Each source pixel inside the aperture carries an independent circular
Gaussian value: real and imaginary parts are i.i.d. N(0, sigma2), which is
exactly a Rayleigh amplitude (mean square 2*sigma2) times a uniform phase.
Pixels are statistically independent, so the field is delta-correlated
across the source plane.  Pixels outside the aperture are zero and are not
drawn at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import GeometryError, GridMismatchError
from .grids import Grid

_MASK64 = (1 << 64) - 1

# Version of the map from (seed, realization_index) to source samples.  Any
# change to the numbers a given stream produces must bump it.
STREAM_VERSION = 2


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
        if self.aperture_indices.size == 0:
            raise GeometryError(f"aperture {self.aperture} holds no sample of the grid")

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


def draw_source_block(spec: SourceSpec, seed: int, first_index: int,
                      count: int, *, out: np.ndarray | None = None,
                      claim=None) -> np.ndarray:
    """Realizations first_index, ..., first_index + count - 1 as a compact block.

    Returns a C-ordered (count, n_in) complex128 array holding only the
    in-aperture pixels, in the row-major order of ``spec.aperture_indices``.
    Row j is bitwise ``sqrt(sigma2) * g.standard_normal(2 * n_in)`` viewed as
    complex128 (real and imaginary parts interleaved), where ``g`` is
    ``RngStream(seed, first_index + j).generator()``: one Philox is re-keyed
    to (seed, index) with a zero counter and an empty buffer for every row,
    which is exactly the state ``Philox(key=...)`` starts from.

    With ``out``, a writeable C-contiguous (count, n_in) complex128 array such
    as a run of rows of a larger block, the rows are drawn into it and it is
    returned; any other ``out`` raises ``ValueError``.  With ``claim``, such
    as a ``deque.popleft`` of row offsets, only the rows it hands out until
    it raises IndexError are drawn, and scaled, each on its own: threads may
    fill disjoint rows of one block at the same time, and row j is the same
    whichever thread fills it.  Without it every row is drawn, in order.
    """
    if first_index < 0:
        raise ValueError("first_index must be >= 0")
    shape = (count, spec.aperture_indices.size)
    if out is None:
        block = np.empty(shape, dtype=np.complex128)
    elif (isinstance(out, np.ndarray) and out.shape == shape
          and out.dtype == np.complex128 and out.flags.c_contiguous
          and out.flags.writeable):
        block = out
    else:
        raise ValueError(f"out must be a writeable C-contiguous {shape} complex128 array")
    parts = block.view(np.float64)
    # Scaling the float64 parts is exact per part, so sigma2 = 4 gives exactly
    # twice the sigma2 = 1 block, and a factor of 1 changes nothing.
    scale = np.sqrt(spec.sigma2)
    # Any seed will do: the state is replaced before every row.  A fixed one
    # spares reading OS entropy for a generator whose state is thrown away.
    bitgen = Philox(0)
    rng = Generator(bitgen)
    # Python ints, not uint64 arrays, which the state setter reads slower.  The
    # buffer is empty (buffer_pos 4): the next draw runs Philox on counter 0.
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if claim is None:
        claim = deque(range(count)).popleft
    while True:
        try:
            r = claim()
        except IndexError:  # every row is claimed
            return block
        key[1] = (first_index + r) & _MASK64
        bitgen.state = state
        row = rng.standard_normal(out=parts[r])
        if scale != 1.0:
            row *= scale


def draw_source_samples(spec: SourceSpec, stream: RngStream) -> np.ndarray:
    """Raw complex samples of one realization (zeros outside the aperture)."""
    out = np.zeros(spec.grid.npoints, dtype=np.complex128)
    out[spec.aperture_indices] = draw_source_block(
        spec, stream.seed, stream.realization_index, 1
    )[0]
    return out.reshape(spec.grid.shape)


def sample_source(spec: SourceSpec, stream: RngStream, wavelength: float) -> ComplexField:
    """One pseudo-thermal realization of the source as a ComplexField."""
    return ComplexField(spec.grid, draw_source_samples(spec, stream), wavelength)


def intensity(field: ComplexField) -> RealPattern:
    """|E|^2 sample by sample."""
    s = field.samples
    return RealPattern(field.grid, s.real * s.real + s.imag * s.imag)
