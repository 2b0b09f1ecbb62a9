import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostsim.correlation import CorrelationAccumulator, coherence_map
from ghostsim.errors import (BatchRangeError, DegeneratePatternError, GridMismatchError,
                             InsufficientSamplesError)
from ghostsim.grids import make_grid

GRID2 = make_grid(1, 2, 1e-6)


def fold_one(acc, i1, i2):
    """Fold one realization: a one-row batch of scalar i1 and the pixels i2."""
    acc.fold_batch(np.array([i1], dtype=float), np.array([i2], dtype=float))


def test_worked_example():
    # pairs (1,2) and (3,4): s1=4, s2=6, s12=14, G = 14/2 - 4*6/4 = 1 exactly
    acc = CorrelationAccumulator(GRID2)
    fold_one(acc, 1.0, [2.0, 2.0])
    fold_one(acc, 3.0, [4.0, 4.0])
    assert acc.count == 2
    assert acc.sum1 == 4.0
    assert np.array_equal(acc.sum2, [6.0, 6.0])
    assert np.array_equal(acc.sum12, [14.0, 14.0])
    assert acc.mean1 == 2.0
    assert np.array_equal(acc.finalize().samples, [1.0, 1.0])


def test_finalize_needs_two():
    acc = CorrelationAccumulator(GRID2)
    with pytest.raises(InsufficientSamplesError):
        acc.finalize()
    with pytest.raises(InsufficientSamplesError):
        acc.mean1
    fold_one(acc, 1.0, [1.0, 1.0])
    with pytest.raises(InsufficientSamplesError):
        acc.finalize()
    fold_one(acc, 2.0, [2.0, 2.0])
    acc.finalize()


def test_one_row_fold_validation():
    acc = CorrelationAccumulator(GRID2)
    with pytest.raises(GridMismatchError):
        fold_one(acc, 1.0, np.zeros(3))
    with pytest.raises(BatchRangeError):
        fold_one(acc, -1.0, [1.0, 1.0])
    with pytest.raises(BatchRangeError):
        fold_one(acc, 1.0, [1.0, -2.0])
    with pytest.raises(GridMismatchError):
        acc.fold_batch(np.ones(4), np.ones((4, 3)))
    assert acc.count == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("arm", ["i1", "i2"])
def test_fold_batch_rejects_bad_values_and_keeps_sums(bad, arm):
    acc = CorrelationAccumulator(GRID2)
    acc.fold_batch(np.array([1.0, 2.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    before = (acc.count, acc.sum1, acc.sum2.copy(), acc.sum12.copy())
    i1 = np.array([1.0, 2.0, 3.0])
    i2 = np.ones((3, 2))
    if arm == "i1":
        i1[1] = bad
    else:
        i2[2, 1] = bad
    with pytest.raises(ValueError):
        acc.fold_batch(i1, i2)
    assert acc.count == before[0]
    assert acc.sum1 == before[1]
    assert np.array_equal(acc.sum2, before[2])
    assert np.array_equal(acc.sum12, before[3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_fold_batch_refuses_bad_values_in_record_row_views(bad, column):
    # the batch is checked over the block behind the views, whichever column holds the value
    acc = CorrelationAccumulator(GRID2)
    acc.fold_batch(np.array([1.0, 2.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    before = (acc.count, acc.sum1, acc.sum2.copy(), acc.sum12.copy())
    rows = np.ones((5, 3))
    rows[3, column] = bad
    with pytest.raises(ValueError):
        acc.fold_batch(rows[1:4, 0], rows[1:4, 1:])
    assert acc.count == before[0]
    assert acc.sum1 == before[1]
    assert np.array_equal(acc.sum2, before[2])
    assert np.array_equal(acc.sum12, before[3])
    # a bad value in a row outside the views is not part of the batch
    acc.fold_batch(rows[:3, 0], rows[:3, 1:])
    assert acc.count == before[0] + 3


def test_fold_batch_refuses_an_overflowing_cross_sum_and_keeps_sums():
    # every value and both plain sums are finite; only i1 @ i2 = 2e400 overflows
    acc = CorrelationAccumulator(make_grid(1, 3, 1e-6))
    acc.fold_batch(np.array([1.0, 2.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    before = (acc.count, acc.sum1, acc.sum2.copy(), acc.sum12.copy())
    rows = np.full((2, 4), 1e200)
    with pytest.raises(ValueError, match="overflow"):
        acc.fold_batch(rows[:, 0], rows[:, 1:])
    assert acc.count == before[0]
    assert acc.sum1 == before[1]
    assert np.array_equal(acc.sum2, before[2])
    assert np.array_equal(acc.sum12, before[3])


def test_sums_keep_the_grid_shape_and_scalars_are_python_floats():
    # a 2D grid folds as (B, pixels); the sums come back on the grid
    grid = make_grid(2, (3, 4), 1e-6)
    rows = np.arange(2 * 13, dtype=float).reshape(2, 13)
    acc = CorrelationAccumulator(grid)
    acc.fold_batch(rows[:, 0], rows[:, 1:].reshape(2, 3, 4))
    assert acc.sum2.shape == acc.sum12.shape == acc.mean2.shape == (3, 4)
    assert np.array_equal(acc.sum2, rows[:, 1:].sum(axis=0).reshape(3, 4))
    assert np.array_equal(acc.sum12, (rows[:, :1] * rows[:, 1:]).sum(axis=0).reshape(3, 4))
    # a numpy scalar would print as np.float64(...) in a config or CSV value
    assert type(acc.sum1) is float and type(acc.mean1) is float
    assert acc.sum1 == 13.0 and acc.mean1 == 6.5


positive = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    st.lists(st.tuples(positive, positive, positive), min_size=2, max_size=40)
)
@settings(max_examples=60, deadline=None)
def test_matches_two_pass_covariance(rows):
    acc = CorrelationAccumulator(GRID2)
    for i1, a, b in rows:
        fold_one(acc, i1, [a, b])
    n = len(rows)
    i1s = [r[0] for r in rows]
    for q in range(2):
        i2s = [r[1 + q] for r in rows]
        s12 = math.fsum(x * y for x, y in zip(i1s, i2s))
        want = s12 / n - (math.fsum(i1s) * math.fsum(i2s)) / (n * n)
        got = acc.finalize().samples[q]
        scale = abs(s12) / n + abs(math.fsum(i1s) * math.fsum(i2s)) / (n * n) + 1e-300
        assert abs(got - want) <= 1e-12 * scale


def test_fold_batch_matches_updates():
    rng = np.random.default_rng(13)
    n = 257
    i1 = rng.exponential(size=n)
    i2 = rng.exponential(size=(n, 2))
    one = CorrelationAccumulator(GRID2)
    for k in range(n):
        fold_one(one, i1[k], i2[k])
    batched = CorrelationAccumulator(GRID2)
    batched.fold_batch(i1[:100], i2[:100])
    batched.fold_batch(i1[100:], i2[100:])
    assert batched.count == one.count
    assert batched.sum1 == pytest.approx(one.sum1, rel=1e-12)
    g_b = batched.finalize().samples
    g_o = one.finalize().samples
    assert np.max(np.abs(g_b - g_o)) <= 1e-12 * max(np.max(np.abs(g_o)), 1e-300)


def test_fold_batch_is_deterministic():
    rng = np.random.default_rng(14)
    i1 = rng.exponential(size=64)
    i2 = rng.exponential(size=(64, 2))
    a = CorrelationAccumulator(GRID2)
    b = CorrelationAccumulator(GRID2)
    a.fold_batch(i1, i2)
    b.fold_batch(i1, i2)
    assert a.sum1 == b.sum1
    assert np.array_equal(a.sum12, b.sum12)


@pytest.mark.parametrize("points", [64, 256])
@pytest.mark.parametrize("n", [1, 7, 128, 256])
def test_fold_batch_on_record_row_views_equals_contiguous_copies(n, points):
    rows = np.random.default_rng(n * points).exponential(size=(n, 1 + points))
    grid = make_grid(1, points, 1e-6)
    views = CorrelationAccumulator(grid)
    views.fold_batch(rows[:, 0], rows[:, 1:])
    copies = CorrelationAccumulator(grid)
    copies.fold_batch(rows[:, 0].copy(), rows[:, 1:].copy())
    assert views.count == copies.count == n
    assert views.sum1 == copies.sum1
    assert np.array_equal(views.sum2, copies.sum2)
    assert np.array_equal(views.sum12, copies.sum12)


def test_copy_is_independent():
    acc = CorrelationAccumulator(GRID2)
    fold_one(acc, 1.0, [2.0, 2.0])
    dup = acc.copy()
    fold_one(dup, 3.0, [4.0, 4.0])
    assert acc.count == 1
    assert dup.count == 2
    assert acc.sum1 == 1.0


def test_scaling_moves_through_estimator():
    rng = np.random.default_rng(15)
    i1 = rng.exponential(size=500)
    i2 = rng.exponential(size=(500, 2))
    base = CorrelationAccumulator(GRID2)
    base.fold_batch(i1, i2)
    scaled = CorrelationAccumulator(GRID2)
    scaled.fold_batch(4.0 * i1, 4.0 * i2)
    g0 = base.finalize().samples
    g1 = scaled.finalize().samples
    assert np.allclose(g1, 16.0 * g0, rtol=1e-12)


def test_coherence_map_synthetic_chaotic_light():
    # pixel 0 carries the same exponential intensity as the scalar arm
    # (coherence 1); pixel 1 is independent (coherence 0)
    rng = np.random.default_rng(16)
    n = 20_000
    z = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
    w = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)
    i1 = np.abs(z) ** 2
    i2 = np.stack([i1, np.abs(w) ** 2], axis=1)
    acc = CorrelationAccumulator(GRID2)
    acc.fold_batch(i1, i2)
    cmap = coherence_map(acc).samples
    assert cmap[0] == pytest.approx(1.0, abs=0.05)
    assert abs(cmap[1]) < 3.0 * np.sqrt(20.0 / n)


def test_coherence_map_normalization_is_scale_free():
    rng = np.random.default_rng(17)
    i1 = rng.exponential(size=300)
    i2 = rng.exponential(size=(300, 2))
    a = CorrelationAccumulator(GRID2)
    a.fold_batch(i1, i2)
    b = CorrelationAccumulator(GRID2)
    b.fold_batch(7.0 * i1, 0.25 * i2)
    ca = coherence_map(a).samples
    cb = coherence_map(b).samples
    assert np.allclose(ca, cb, rtol=1e-12)


def test_coherence_map_rejects_zero_mean():
    acc = CorrelationAccumulator(GRID2)
    fold_one(acc, 0.0, [1.0, 1.0])
    fold_one(acc, 0.0, [2.0, 2.0])
    with pytest.raises(DegeneratePatternError, match="the mean intensities multiply to zero"):
        coherence_map(acc)
