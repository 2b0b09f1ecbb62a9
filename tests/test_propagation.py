import numpy as np
import pytest

from ghostsim.errors import GridMismatchError
from ghostsim.fields import ComplexField
from ghostsim.grids import Grid, make_grid
from ghostsim.propagation import (
    chebyshev_factors,
    fft_chirp,
    fft_output_grid,
    fft_output_pitch,
    fresnel_kernel,
    fresnel_matrix,
    point_weights,
    propagate,
    propagate_to_point,
    validate_sampling,
)

LAM = 0.532e-6
K = 2.0 * np.pi / LAM


def gaussian_input(w0, n=512):
    grid = make_grid(1, n, 9.0 * w0 / n)
    return ComplexField(grid, np.exp(-grid.coords(0) ** 2 / w0**2), LAM)


def gaussian_closed_form(y, z, w0):
    # paraxial beam launched from a real Gaussian waist exp(-x^2/w0^2)
    zr = np.pi * w0**2 / LAM
    return np.exp(1j * K * z) / np.sqrt(1 + 1j * z / zr) * np.exp(
        1j * K * y**2 / (2.0 * (z - 1j * zr))
    )


def beam_radius(z, w0):
    zr = np.pi * w0**2 / LAM
    return w0 * np.sqrt(1.0 + (z / zr) ** 2)


def test_direct_matrix_entry_modulus():
    z = 0.060
    grid_in = make_grid(1, 16, 1e-6)
    grid_out = make_grid(1, 8, 2e-6)
    kern = fresnel_kernel(grid_in, grid_out, z, LAM)
    expected = 1e-6 / np.sqrt(LAM * z)
    assert np.abs(kern.matrix) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("w0", [30e-6, 50e-6, 100e-6])
@pytest.mark.parametrize("z", [0.020, 0.060])
def test_gaussian_beam_matches_closed_form(w0, z):
    field = gaussian_input(w0)
    wz = beam_radius(z, w0)
    grid_out = make_grid(1, 256, 5.0 * wz / 256)
    kern = fresnel_kernel(field.grid, grid_out, z, LAM)
    x, dx = field.grid.coords(0), field.grid.pitch[0]
    assert validate_sampling(x, grid_out.coords(0), z, LAM, dx) == []
    got = propagate(field, kern).samples
    want = gaussian_closed_form(grid_out.coords(0), z, w0)
    assert np.max(np.abs(got - want)) < 0.01 * np.max(np.abs(want))


def test_gaussian_amplitude_profile():
    w0, z = 50e-6, 0.040
    field = gaussian_input(w0)
    wz = beam_radius(z, w0)
    grid_out = make_grid(1, 200, 4.0 * wz / 200)
    out = propagate(field, fresnel_kernel(field.grid, grid_out, z, LAM))
    want = np.sqrt(w0 / wz) * np.exp(-grid_out.coords(0) ** 2 / wz**2)
    assert np.max(np.abs(np.abs(out.samples) - want)) < 0.01 * want.max()


def test_two_hops_compose_to_one():
    w0 = 60e-6
    field = gaussian_input(w0)
    w_mid = beam_radius(0.030, w0)
    w_end = beam_radius(0.060, w0)
    grid_mid = make_grid(1, 512, 6.0 * w_mid / 512)
    grid_out = make_grid(1, 256, 4.0 * w_end / 256)
    mid = propagate(field, fresnel_kernel(field.grid, grid_mid, 0.030, LAM))
    two = propagate(mid, fresnel_kernel(grid_mid, grid_out, 0.030, LAM))
    one = propagate(field, fresnel_kernel(field.grid, grid_out, 0.060, LAM))
    peak = np.max(np.abs(one.samples))
    assert np.max(np.abs(two.samples - one.samples)) < 0.01 * peak


def test_far_field_slit_nulls():
    # 100 um slit at 1 m: |E|^2 ~ sinc^2 with first null at lambda z / a
    a, z = 100e-6, 1.0
    grid_in = make_grid(1, 400, 0.25e-6)
    samples = (np.abs(grid_in.coords(0)) <= a / 2).astype(complex)
    grid_out = make_grid(1, 1024, 20e-6)
    out = propagate(ComplexField(grid_in, samples, LAM), fresnel_kernel(grid_in, grid_out, z, LAM))
    ii = np.abs(out.samples) ** 2
    null = LAM * z / a
    j = grid_out.index_of(null)
    lo, hi = j - 2, j + 3
    j_min = lo + int(np.argmin(ii[lo:hi]))
    assert abs(grid_out.coordinate_of(j_min) - null) <= grid_out.pitch[0]
    assert ii[j_min] < 1e-3 * ii.max()


def test_kernel_is_linear():
    grid_in = make_grid(1, 64, 2e-6)
    grid_out = make_grid(1, 32, 4e-6)
    kern = fresnel_kernel(grid_in, grid_out, 0.05, LAM)
    rng = np.random.default_rng(3)
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    g = rng.normal(size=64) + 1j * rng.normal(size=64)
    alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = kern.apply(alpha * f + beta * g)
    rhs = alpha * kern.apply(f) + beta * kern.apply(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


def test_kernel_apply_is_repeatable():
    grid_in = make_grid(1, 128, 2e-6)
    grid_out = make_grid(1, 64, 4e-6)
    kern = fresnel_kernel(grid_in, grid_out, 0.05, LAM)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(128, 16)) + 1j * rng.normal(size=(128, 16))
    assert np.array_equal(kern.apply(batch), kern.apply(batch))
    one = batch[:, 0].copy()
    assert np.array_equal(kern.apply(one), kern.apply(one))


def test_batch_apply_matches_column_apply():
    grid_in = make_grid(1, 64, 2e-6)
    grid_out = make_grid(1, 48, 3e-6)
    kern = fresnel_kernel(grid_in, grid_out, 0.05, LAM)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(64, 7)) + 1j * rng.normal(size=(64, 7))
    out = kern.apply(batch)
    for b in range(7):
        col = kern.apply(batch[:, b].copy())
        assert np.max(np.abs(out[:, b] - col)) < 1e-12 * np.max(np.abs(col))


def test_point_value_matches_brute_sum():
    grid = make_grid(1, 33, 1.5e-6)
    rng = np.random.default_rng(6)
    samples = rng.normal(size=33) + 1j * rng.normal(size=33)
    field = ComplexField(grid, samples, LAM)
    z, y0 = 0.060, 3.7e-6
    pref = np.exp(1j * K * z) / np.sqrt(1j * LAM * z) * grid.pitch[0]
    brute = complex(0.0)
    for x, s in zip(grid.coords(0), samples):
        brute += pref * np.exp(1j * K * (y0 - x) ** 2 / (2.0 * z)) * s
    got = propagate_to_point(field, y0, z)
    assert abs(got - brute) <= 1e-13 * abs(brute)


def test_point_weights_match_matrix_row():
    grid_in = make_grid(1, 64, 2e-6)
    grid_out = make_grid(1, 2, 5e-6)  # output sample centers at -2.5 and +2.5 um
    kern = fresnel_kernel(grid_in, grid_out, 0.05, LAM)
    w = point_weights(grid_in, grid_out.coordinate_of(1), 0.05, LAM)
    row = kern.matrix[1]
    assert np.max(np.abs(w - row)) <= 1e-13 * np.max(np.abs(row))


def test_point_response_is_symmetric():
    # even field about the axis: response at +y equals response at -y
    grid = make_grid(1, 65, 1e-6)
    x = grid.coords(0)
    field = ComplexField(grid, np.exp(-x**2 / (20e-6) ** 2), LAM)
    plus = propagate_to_point(field, 12e-6, 0.05)
    minus = propagate_to_point(field, -12e-6, 0.05)
    assert abs(plus - minus) <= 1e-13 * abs(plus)


def test_fft_pitch_is_forced():
    grid_in = make_grid(2, 64, 40e-6)
    z = 0.060
    forced = fft_output_pitch(grid_in, z, LAM, 0)
    assert forced == pytest.approx(LAM * z / (64 * 40e-6), rel=1e-15)
    grid_out = fft_output_grid(grid_in, z, LAM)
    assert grid_out.shape == grid_in.shape and grid_out.pitch == (forced, forced)
    assert fft_chirp(grid_in, z, LAM).shape == grid_in.shape


def fft_intensity(samples, grid_in, z):
    amps = np.fft.fft2(samples * fft_chirp(grid_in, z, LAM))
    return amps.real**2 + amps.imag**2


def test_fft_matches_brute_force_quadrature():
    m, z = 32, 0.050
    grid_in = make_grid(2, m, 50e-6)
    grid_out = fft_output_grid(grid_in, z, LAM)
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    got = fft_intensity(samples, grid_in, z)

    x = grid_in.coords(0)[:, None]
    y = grid_in.coords(1)[None, :]
    pref = np.exp(1j * K * z) / (1j * LAM * z) * grid_in.pitch[0] * grid_in.pitch[1]
    want = np.empty((m, m))
    for p, u in enumerate(grid_out.coords(0)):
        for q, v in enumerate(grid_out.coords(1)):
            chirp = np.exp(1j * K * ((u - x) ** 2 + (v - y) ** 2) / (2.0 * z))
            want[p, q] = abs(pref * np.sum(chirp * samples)) ** 2
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(want)


def test_fft_gaussian_beam_2d():
    w0, z = 200e-6, 0.300
    grid_in = make_grid(2, 512, 10e-6)
    x = grid_in.coords(0)[:, None]
    y = grid_in.coords(1)[None, :]
    samples = np.exp(-(x**2 + y**2) / w0**2)
    grid_out = fft_output_grid(grid_in, z, LAM)
    got = fft_intensity(samples, grid_in, z)
    wz = beam_radius(z, w0)
    u = grid_out.coords(0)[:, None]
    v = grid_out.coords(1)[None, :]
    want = (w0 / wz) ** 2 * np.exp(-2.0 * (u**2 + v**2) / wz**2)
    keep = want > 1e-6  # compare where the beam actually lives
    assert np.max(np.abs(got - want)[keep]) < 0.01 * want.max()


def test_propagate_rejects_mismatches():
    grid_in = make_grid(1, 16, 1e-6)
    grid_out = make_grid(1, 16, 2e-6)
    kern = fresnel_kernel(grid_in, grid_out, 0.05, LAM)
    wrong_grid = make_grid(1, 16, 1.5e-6)
    with pytest.raises(GridMismatchError):
        propagate(ComplexField(wrong_grid, np.zeros(16, complex), LAM), kern)
    with pytest.raises(ValueError):
        propagate(ComplexField(grid_in, np.zeros(16, complex), 0.633e-6), kern)
    with pytest.raises(ValueError):
        fresnel_kernel(grid_in, grid_out, -0.05, LAM)
    with pytest.raises(ValueError):
        fresnel_kernel(grid_in, make_grid(2, 16, 1e-6), 0.05, LAM)
    square = make_grid(2, 16, 1e-6)
    with pytest.raises(ValueError):
        fresnel_kernel(square, square, 0.05, LAM)  # 2D grids go through fft_chirp
    with pytest.raises(ValueError):
        fft_chirp(grid_in, 0.05, LAM)


def test_default_experiment_kernels_sample_cleanly():
    source = make_grid(1, 512, 4e-6)
    obj = make_grid(1, 561, 0.75e-6)
    det = make_grid(1, 256, 1.557e-6)
    x = source.coords(0)
    assert validate_sampling(x, obj.coords(0), 0.060, LAM, 4e-6) == []
    assert validate_sampling(x, det.coords(0), 0.135, LAM, 4e-6) == []


def test_validate_sampling_flags_bad_geometry():
    coarse = make_grid(1, 64, 40e-6).coords(0)
    msgs = validate_sampling(coarse, coarse, 0.005, LAM, 40e-6)
    assert any("chirp" in m for m in msgs)
    near = make_grid(1, 512, 10e-6).coords(0)
    msgs = validate_sampling(near, near, 0.01, LAM, 10e-6)
    assert any("paraxial" in m for m in msgs)


def test_validate_sampling_reads_the_largest_offset_of_its_coordinates():
    # the chirp aliases once W = max|y - x| passes lambda z / (2 dx) = 1.6 mm
    x = make_grid(1, 640, 10e-6).coords(0)  # +-3.2 mm
    central = x[np.abs(x) <= 0.5e-3]
    for y in (0.5e-3, 2e-3, -2e-3):
        w = abs(y) + central.max()  # central is symmetric about the axis
        step = 2.0 * np.pi / LAM * 10e-6 * w / 0.06
        want = [f"chirp undersampled on axis 0: edge phase step {step:.3g} rad > pi"]
        got = validate_sampling(central, np.array([y]), 0.06, LAM, 10e-6)
        assert got == (want if w > 1.6e-3 else [])
    # the whole grid against the axis alone aliases: its edge is 3.2 mm out
    assert len(validate_sampling(x, np.zeros(1), 0.06, LAM, 10e-6)) == 1


@pytest.mark.parametrize("pitch", [1.0, 1e-5])
def test_chebyshev_nodes_stop_at_the_detector_pixel_count(pitch):
    # the default reference arm's chirp over 256 pixels at these pitches would
    # want about 1.4e12 and 357 nodes: the pixels themselves are the nodes
    x = make_grid(1, 512, 4e-6).coords(0)
    x = x[np.abs(x) <= 0.86e-3]
    y = make_grid(1, 256, pitch).coords(0)
    to_nodes, interp = chebyshev_factors(x, y, 0.135, LAM, 4e-6)
    assert np.array_equal(interp, np.eye(256))
    assert np.array_equal(to_nodes, fresnel_matrix(x, y, 0.135, LAM, 4e-6))
