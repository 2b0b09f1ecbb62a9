import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostsim.analysis import (
    CurvePoint,
    banded_errors,
    coherence_length,
    half_width,
    kappa,
    local_maxima,
    min_n_to_threshold,
    normalize_unit,
    pattern_errors,
    peak_position,
    rms_error,
    split_bands,
)
from ghostsim.errors import DegeneratePatternError, NoPeakError
from ghostsim.fields import RealPattern
from ghostsim.grids import make_grid


def pattern(values, pitch=1e-6):
    values = np.asarray(values, dtype=float)
    return RealPattern(make_grid(1, values.size, pitch), values)


def test_normalize_unit_basic():
    out = normalize_unit(pattern([2.0, 4.0, 6.0]))
    assert np.array_equal(out.samples, [0.0, 0.5, 1.0])


def test_normalize_unit_window_and_subgrid():
    p = pattern([9.0, 9.0, 1.0, 2.0, 3.0])  # grid coords -2..2 um
    out = normalize_unit(p, window=(2, 4))
    assert np.array_equal(out.samples, [0.0, 0.5, 1.0])
    assert out.grid.shape == (3,)
    assert out.grid.coords(0) == pytest.approx([0.0, 1e-6, 2e-6], abs=1e-18)


def test_normalize_unit_degenerate():
    with pytest.raises(DegeneratePatternError):
        normalize_unit(pattern([5.0, 5.0, 5.0]))
    with pytest.raises(DegeneratePatternError):
        normalize_unit(pattern([1.0, 5.0, 5.0]), window=(1, 2))


def test_rms_error_known_value():
    got = rms_error([0.0, 0.0, 0.0], [3.0, 4.0, 0.0])
    assert got == pytest.approx(np.sqrt(25.0 / 3.0), rel=1e-15)
    assert rms_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rms_error([0, 1, 5], [0, 1, 9], window=(0, 1)) == 0.0
    with pytest.raises(ValueError):
        rms_error([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rms_error([1.0, 2.0], [1.0, 2.0], window=(1, 2))


def test_split_bands_examples():
    nine = split_bands(9)
    assert nine.low.tolist() == [3, 4, 5]
    assert nine.high.tolist() == [0, 1, 2, 6, 7, 8]
    ten = split_bands(10)
    assert ten.low.tolist() == [4, 5, 6]
    assert ten.high.tolist() == [0, 1, 2, 3, 7, 8, 9]
    windowed = split_bands(20, window=(5, 13))
    assert windowed.low.tolist() == [8, 9, 10]
    assert windowed.high.tolist() == [5, 6, 7, 11, 12, 13]
    with pytest.raises(ValueError):
        split_bands(2)
    with pytest.raises(ValueError):
        split_bands(10, window=(4, 5))


def test_split_bands_cover_window():
    for length in range(3, 40):
        s = split_bands(length)
        both = np.sort(np.concatenate([s.low, s.high]))
        assert both.tolist() == list(range(length))
        assert s.low.size == length // 3


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=60))
@settings(max_examples=60, deadline=None)
def test_band_errors_partition_identity(rows):
    a = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    eps_g, eps_l, eps_h = banded_errors(a, b)
    s = split_bands(a.size)
    w = a.size
    lhs = w * eps_g**2
    rhs = s.low.size * eps_l**2 + s.high.size * eps_h**2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_banded_errors_values():
    a = np.zeros(9)
    b = np.zeros(9)
    b[4] = 3.0  # low band only
    eps_g, eps_l, eps_h = banded_errors(a, b)
    assert eps_h == 0.0
    assert eps_l == pytest.approx(np.sqrt(9.0 / 3.0), rel=1e-15)
    assert eps_g == pytest.approx(np.sqrt(9.0 / 9.0), rel=1e-15)


def test_pattern_errors_scale_invariant():
    rng = np.random.default_rng(21)
    base = rng.random(32)
    rec = pattern(3.5 * base + 0.2)
    ref = pattern(base)
    eps_g, eps_l, eps_h = pattern_errors(rec, ref)
    assert eps_g < 1e-14
    assert eps_l < 1e-14
    assert eps_h < 1e-14
    with pytest.raises(ValueError):
        pattern_errors(pattern(base), RealPattern(make_grid(1, 32, 2e-6), base))


def test_coherence_length_values():
    lam, d1 = 0.532e-6, 0.060
    assert coherence_length(lam, d1, 1720e-6) == pytest.approx(1.85581e-5, rel=1e-4)
    assert coherence_length(lam, d1, 1840e-6) == pytest.approx(1.73478e-5, rel=1e-4)
    assert kappa(105e-6, coherence_length(lam, d1, 1720e-6)) == pytest.approx(5.658, rel=1e-3)
    assert kappa(105e-6, coherence_length(lam, d1, 1840e-6)) == pytest.approx(6.0525, rel=1e-3)
    with pytest.raises(ValueError):
        coherence_length(lam, 0.0, 1e-3)
    with pytest.raises(ValueError):
        kappa(0.0, 1e-5)


def test_half_width_triangle():
    got = half_width(pattern([0.0, 1.0, 2.0, 1.0, 0.0]))
    assert got == pytest.approx(2e-6, rel=1e-12)


def test_half_width_gaussian():
    w = 50e-6
    grid = make_grid(1, 512, 1e-6)
    v = np.exp(-grid.coords(0) ** 2 / w**2)
    got = half_width(RealPattern(grid, v))
    assert got == pytest.approx(2.0 * w * np.sqrt(np.log(2.0)), rel=1e-3)


def test_half_width_failures():
    with pytest.raises(NoPeakError):
        half_width(pattern([0.0, 1.0, 2.0, 3.0]))  # peak on edge
    with pytest.raises(NoPeakError):
        half_width(pattern([0.9, 1.0, 0.95]))  # no half crossing in window


def test_local_maxima_plateaus_and_threshold():
    p = pattern([0.0, 1.0, 0.2, 0.3, 0.1, 0.8, 0.8, 0.8, 0.0, 1.0])
    assert local_maxima(p, threshold_rel=0.5) == (1, 6)
    assert local_maxima(p, threshold_rel=0.25) == (1, 3, 6)
    # plateau touching the edge is not a maximum
    assert local_maxima(pattern([1.0, 1.0, 0.0, 0.4, 0.0])) == ()
    # rising shoulder plateau is not a maximum
    assert local_maxima(pattern([0.0, 0.6, 0.6, 1.0, 0.0])) == (3,)


def test_local_maxima_validation():
    with pytest.raises(ValueError):
        local_maxima(pattern([0.0, 1.0, 0.0]), threshold_rel=0.0)
    grid2 = make_grid(2, 4, 1e-6)
    with pytest.raises(ValueError):
        local_maxima(RealPattern(grid2, np.zeros((4, 4))))


def test_peak_position_exact_on_quadratic():
    x = make_grid(1, 41, 1e-6).coords(0)
    x_true = 3.7e-6
    p = pattern(5.0 - 2e11 * (x - x_true) ** 2)
    assert peak_position(p, 20, 10) == pytest.approx(x_true, abs=1e-12)


def test_peak_position_cosine_fringe_with_noise():
    # fringe period and noise level sized like a reconstruction readout
    grid = make_grid(1, 256, 1.557e-6)
    x = grid.coords(0)
    period = 131.7e-6
    x_true = 4.2e-6
    rng = np.random.default_rng(11)
    y = np.cos(np.pi * (x - x_true) / period) ** 2 + 0.04 * rng.standard_normal(x.size)
    p = RealPattern(grid, y)
    center = int(np.argmin(np.abs(x - x_true)))
    got = peak_position(p, center, 21)
    assert abs(got - x_true) < 0.5 * grid.pitch[0]


def test_peak_position_failures():
    x = make_grid(1, 21, 1e-6).coords(0)
    valley = pattern(1e11 * x**2)
    with pytest.raises(NoPeakError):
        peak_position(valley, 10, 5)
    with pytest.raises(NoPeakError):
        # true peak sits at x=0, far outside a 2-point window at index 18
        peak_position(pattern(np.cos(np.pi * x / 500e-6) ** 2), 18, 2)
    with pytest.raises(ValueError):
        peak_position(valley, 1, 5)  # window past the edge
    with pytest.raises(ValueError):
        peak_position(valley, 10, 0)


def curve(eps_by_n):
    return [CurvePoint(n, e, e / 2.0, e * 1.5) for n, e in eps_by_n.items()]


def test_threshold_search_stops_at_the_crossing():
    eps = {10: 0.5, 20: 0.2, 40: 0.05, 80: 0.04, 160: 0.01}
    points = iter(curve(eps))
    res = min_n_to_threshold(points, 0.07, 160)
    assert res.reached
    assert res.n_star == 40
    assert res.eps_final == 0.05
    assert res.n_budget == 160
    assert [p.n for p in res.curve] == [10, 20, 40]
    assert [p.n for p in points] == [80, 160]  # nothing past the crossing is pulled


def test_threshold_search_crossing_at_budget():
    eps = {10: 0.5, 20: 0.06}
    res = min_n_to_threshold(curve(eps), 0.07, 20)
    assert res.reached
    assert res.n_star == 20


def test_threshold_search_not_reached():
    eps = {10: 0.5, 20: 0.3}
    res = min_n_to_threshold(curve(eps), 0.07, 20)
    assert not res.reached
    assert res.n_star is None
    assert res.eps_final == 0.3


def test_threshold_search_crossing_point():
    eps = {10: 0.5, 20: 0.06, 40: 0.08}
    res = min_n_to_threshold(curve(eps), 0.07, 40)
    assert res.crossing == curve(eps)[1]  # the point at n_star, not the last one
    assert res.crossing.n == 20 and res.crossing.eps_global == 0.06
    missed = min_n_to_threshold(curve(eps), 0.01, 40)
    assert missed.crossing == curve(eps)[-1]
    assert missed.crossing.n == 40


def test_threshold_search_monotone_in_tau():
    eps = {10: 0.5, 20: 0.2, 40: 0.05, 80: 0.01}
    loose = min_n_to_threshold(curve(eps), 0.3, 80)
    tight = min_n_to_threshold(curve(eps), 0.05, 80)
    assert loose.n_star <= tight.n_star


def test_threshold_search_validation():
    with pytest.raises(ValueError):
        min_n_to_threshold(curve({10: 0.5}), 0.0, 10)
    with pytest.raises(ValueError):
        min_n_to_threshold([], 0.1, 10)
