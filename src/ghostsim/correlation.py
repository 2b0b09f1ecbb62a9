"""Streaming intensity-correlation estimation.

The estimator is the biased (1/N) sample covariance of a scalar detector
intensity i1 against every pixel of a reference pattern i2:

    G(q) = (1/N) sum_n i1_n i2_n(q) - (1/N^2) (sum_n i1_n) (sum_n i2_n(q))

No Bessel correction is applied.  Batches are folded in order into float64
sums with compensated (error-carrying) accumulation, so long runs and their
checkpoints stay accurate to the last few ulps.  The sums are one vector
[s1 | s2 | s12], checked and added whole, so a further sum widens it.
"""

from __future__ import annotations

import numpy as np

from .errors import (BatchRangeError, DegeneratePatternError, GridMismatchError,
                     InsufficientSamplesError)
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
    """Compensated running sums (n, s1, s2[q], s12[q]) for the covariance estimator,
    held as one vector [s1 | s2 | s12] of length 1 + 2P and its TwoSum errors."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0
        self._sums = np.zeros(1 + 2 * grid.npoints, dtype=np.float64)
        self._errs = np.zeros_like(self._sums)

    def fold_batch(self, i1: np.ndarray, i2: np.ndarray) -> None:
        """Fold a batch: i1 shape (B,), i2 shape (B, *grid.shape).

        Live runs and replay pass the two column views of one C-ordered
        (B, 1 + P) record block.  They are reduced where they lie: i2 enters
        the GEMV as a matrix with leading dimension 1 + P, and is not copied.
        Equivalent to folding one-row batches up to float rounding; the
        batch is reduced with fixed-shape numpy sums into one vector of its
        three totals, which enters the compensated sums.  The batch is
        checked in the same pass: a minimum below zero (or NaN) catches
        negative, NaN and -inf intensities, and a total that is not finite,
        the cross sum included, catches +inf and overflow.  A rejected batch
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
        # an overflow is refused by the check below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = i2.sum(axis=0).ravel()
            # a 2D grid (speckle) folds as (B, pixels); the reshape is a view
            s12 = np.ascontiguousarray(i1) @ i2.reshape(n, s2.size)
            totals = np.concatenate(([i1.sum()], s2, s12))
        if not (ok and np.isfinite(totals).all()):
            _check_batch(i1, i2)  # raises naming the bad value, if there is one
            raise BatchRangeError("batch sums overflow float64")
        self._sums, err = _two_sum(self._sums, totals)
        self._errs += err
        self.count += n

    def copy(self) -> "CorrelationAccumulator":
        out = CorrelationAccumulator(self.grid)
        out.count = self.count
        out._sums, out._errs = self._sums.copy(), self._errs.copy()
        return out

    def _total(self, part: slice) -> np.ndarray:
        """The compensated sums of one part of the layout, on the grid."""
        return (self._sums[part] + self._errs[part]).reshape(self.grid.shape)

    @property
    def sum1(self) -> float:
        return float(self._sums[0] + self._errs[0])

    @property
    def sum2(self) -> np.ndarray:
        return self._total(slice(1, 1 + self.grid.npoints))

    @property
    def sum12(self) -> np.ndarray:
        return self._total(slice(1 + self.grid.npoints, None))

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


def check_normal_means(means: np.ndarray) -> None:
    """Refuse mean-intensity products below float64's normal range.

    The cross products i1 * i2 that G sums are about as large as
    mean1 * mean2; below ``np.finfo(float).tiny`` they are subnormal and
    carry fewer significant bits, so the estimate loses precision silently.
    Raises ``DegeneratePatternError``.
    """
    low = float(np.min(means))
    if low < np.finfo(np.float64).tiny:
        raise DegeneratePatternError(
            f"the mean intensities multiply to {low:.3g}, below float64's normal range"
        )


def coherence_map(acc: CorrelationAccumulator) -> RealPattern:
    """Covariance normalized by the product of means: cov / (mean1 * mean2).

    For chaotic light this estimates the squared degree of coherence against
    the reference pixel, equal to 1 where the pattern pixel coincides with it.
    Means that multiply to zero raise ``ZeroDivisionError``, and to a
    subnormal number ``DegeneratePatternError`` (``check_normal_means``).
    """
    g = acc.finalize().samples
    # the product, not each mean: two tiny means multiply to an underflowed 0
    means = acc.mean1 * acc.mean2
    if np.any(means == 0.0):
        raise ZeroDivisionError("the mean intensities multiply to zero")
    check_normal_means(means)
    return RealPattern(acc.grid, g / means)
