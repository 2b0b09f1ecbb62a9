"""Streaming intensity-correlation estimation.

The estimator is the biased (1/N) sample covariance of a scalar detector
intensity i1 against every pixel of a reference pattern i2:

    G(q) = (1/N) sum_n i1_n i2_n(q) - (1/N^2) (sum_n i1_n) (sum_n i2_n(q))

No Bessel correction is applied.  Batches are folded in order into float64
sums with compensated (error-carrying) accumulation, so long runs and their
checkpoints stay accurate to the last few ulps.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchRangeError, GridMismatchError, InsufficientSamplesError
from .fields import RealPattern
from .grids import Grid
from .records import record_rows


def _two_sum(a, b):
    """Knuth TwoSum: s = fl(a + b) and the exact rounding error."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


def _check_batch(i1, i2):
    if not (np.isfinite(i1).all() and np.isfinite(i2).all()):
        raise BatchRangeError("intensities must be finite")
    if np.any(i1 < 0.0) or np.any(i2 < 0.0):
        raise BatchRangeError("negative intensity rejected")


class CorrelationAccumulator:
    """Compensated running sums (n, s1, s2[q], s12[q]) for the covariance estimator."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0
        self._s1 = 0.0
        self._c1 = 0.0
        self._s2 = np.zeros(grid.shape, dtype=np.float64)
        self._c2 = np.zeros(grid.shape, dtype=np.float64)
        self._s12 = np.zeros(grid.shape, dtype=np.float64)
        self._c12 = np.zeros(grid.shape, dtype=np.float64)

    def _add(self, d1: float, d2: np.ndarray, d12: np.ndarray, n: int) -> None:
        self._s1, e1 = _two_sum(self._s1, d1)
        self._c1 += e1
        self._s2, e2 = _two_sum(self._s2, d2)
        self._c2 += e2
        self._s12, e12 = _two_sum(self._s12, d12)
        self._c12 += e12
        self.count += n

    def fold_batch(self, i1: np.ndarray, i2: np.ndarray) -> None:
        """Fold a batch: i1 shape (B,), i2 shape (B, *grid.shape).

        Live runs and replay pass the two column views of one C-ordered
        (B, 1 + P) record block.  They are reduced where they lie: i2 enters
        the GEMV as a matrix with leading dimension 1 + P, and is not copied.
        Equivalent to folding one-row batches up to float rounding; the
        batch is reduced with fixed-shape numpy sums, then the three batch
        totals enter the compensated accumulators.  The batch is
        checked in the same pass: a minimum below zero (or NaN) catches
        negative, NaN and -inf intensities, and a sum that is not finite, the
        cross sum included, catches +inf and overflow.  A rejected batch
        raises ``BatchRangeError`` and leaves the sums untouched.
        """
        i1 = np.asarray(i1, dtype=np.float64)
        i2 = np.asarray(i2, dtype=np.float64)
        n = i1.shape[0]
        if i2.shape != (n,) + self.grid.shape:
            raise GridMismatchError("batch shapes do not match accumulator grid")
        # the block behind two record-row views is checked in one pass over
        # contiguous memory; over the strided i2 alone numpy loops row by row
        rows = record_rows(i1, i2)
        parts = (i1, i2) if rows is None else (rows,)
        ok = all(part.min(initial=0.0) >= 0.0 for part in parts)
        s1 = float(i1.sum())
        s2 = i2.sum(axis=0)
        # a 2D grid (speckle) folds as (B, pixels); the reshape is a view
        s12 = np.ascontiguousarray(i1) @ i2.reshape(n, s2.size)
        if not (ok and np.isfinite(s1) and np.isfinite(s2).all()
                and np.isfinite(s12).all()):
            _check_batch(i1, i2)  # raises naming the bad value, if there is one
            raise BatchRangeError("batch sums overflow float64")
        self._add(s1, s2, s12.reshape(s2.shape), n)

    def copy(self) -> "CorrelationAccumulator":
        out = CorrelationAccumulator(self.grid)
        out.count = self.count
        out._s1, out._c1 = self._s1, self._c1
        out._s2, out._c2 = self._s2.copy(), self._c2.copy()
        out._s12, out._c12 = self._s12.copy(), self._c12.copy()
        return out

    @property
    def sum1(self) -> float:
        return self._s1 + self._c1

    @property
    def sum2(self) -> np.ndarray:
        return self._s2 + self._c2

    @property
    def sum12(self) -> np.ndarray:
        return self._s12 + self._c12

    @property
    def mean1(self) -> float:
        if self.count < 1:
            raise InsufficientSamplesError("no samples accumulated")
        return self.sum1 / self.count

    @property
    def mean2(self) -> np.ndarray:
        if self.count < 1:
            raise InsufficientSamplesError("no samples accumulated")
        return self.sum2 / self.count

    def finalize(self) -> RealPattern:
        """The covariance pattern G; needs at least two realizations."""
        n = self.count
        if n < 2:
            raise InsufficientSamplesError(f"need >= 2 realizations, have {n}")
        g = self.sum12 / n - (self.sum1 * self.sum2) / (float(n) * float(n))
        return RealPattern(self.grid, g)


def coherence_map(acc: CorrelationAccumulator) -> RealPattern:
    """Covariance normalized by the product of means: cov / (mean1 * mean2).

    For chaotic light this estimates the squared degree of coherence against
    the reference pixel, equal to 1 where the pattern pixel coincides with it.
    """
    g = acc.finalize().samples
    m1 = acc.mean1
    m2 = acc.mean2
    if m1 == 0.0 or np.any(m2 == 0.0):
        raise ZeroDivisionError("coherence map undefined where mean intensity is zero")
    return RealPattern(acc.grid, g / (m1 * m2))
