import sys
import threading
from collections import deque

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import integrate

from ghostsim.errors import GeometryError, GridMismatchError
from ghostsim.fields import (
    ComplexField,
    RealPattern,
    RngStream,
    SourceSpec,
    draw_source_block,
    draw_source_samples,
    intensity,
    sample_source,
)
from ghostsim.grids import make_grid

WAVELENGTH = 0.532e-6


def rayleigh_pdf(x, sigma):
    return (x / sigma**2) * np.exp(-(x**2) / (2.0 * sigma**2))


def test_rayleigh_moment_oracle():
    # independent check of the closed-form moments the sampling tests rely on
    total, _ = integrate.quad(rayleigh_pdf, 0, np.inf, args=(1.0,))
    m1, _ = integrate.quad(lambda x: x * rayleigh_pdf(x, 1.0), 0, np.inf)
    m2, _ = integrate.quad(lambda x: x * x * rayleigh_pdf(x, 1.0), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert m1 == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-10)
    assert m2 == pytest.approx(2.0, abs=1e-10)


def _gather_draws(sigma2, n_draws, seed=11):
    grid = make_grid(1, 512, 4e-6)
    spec = SourceSpec(grid, aperture=1.6e-3, sigma2=sigma2)
    per = int(spec.aperture_mask().sum())
    vals = []
    idx = 0
    while per * len(vals) < n_draws:
        s = draw_source_samples(spec, RngStream(seed, idx))
        vals.append(s[spec.aperture_mask()])
        idx += 1
    return np.concatenate(vals)[:n_draws]


def test_amplitude_moments_match_rayleigh():
    draws = _gather_draws(sigma2=1.0, n_draws=50_000)
    amp = np.abs(draws)
    assert np.mean(amp) == pytest.approx(np.sqrt(np.pi / 2.0), rel=0.02)
    assert np.mean(amp**2) == pytest.approx(2.0, rel=0.02)


def test_intensity_is_negative_exponential():
    draws = _gather_draws(sigma2=1.0, n_draws=50_000)
    ii = np.abs(draws) ** 2
    assert np.var(ii) / np.mean(ii) ** 2 == pytest.approx(1.0, rel=0.05)


def test_phases_are_uniform():
    draws = _gather_draws(sigma2=1.0, n_draws=50_000)
    mean_phasor = np.mean(draws / np.abs(draws))
    assert abs(mean_phasor) < 3.0 / np.sqrt(draws.size)


def test_zero_outside_aperture():
    grid = make_grid(1, 64, 1e-6)
    spec = SourceSpec(grid, aperture=20e-6)
    s = draw_source_samples(spec, RngStream(0, 0))
    mask = spec.aperture_mask()
    assert np.all(s[~mask] == 0.0)
    assert np.all(s[mask] != 0.0)


def test_disk_aperture_on_2d_grid():
    grid = make_grid(2, 32, 1e-6)
    spec = SourceSpec(grid, aperture=10e-6)
    mask = spec.aperture_mask()
    x = grid.coords(0)[:, None]
    y = grid.coords(1)[None, :]
    assert np.array_equal(mask, x * x + y * y <= 25e-12)
    s = draw_source_samples(spec, RngStream(1, 5))
    assert np.all(s[~mask] == 0.0)


def test_aperture_wider_than_grid_rejected():
    grid = make_grid(1, 64, 1e-6)  # extent 63 um
    with pytest.raises(GeometryError):
        SourceSpec(grid, aperture=64e-6)
    SourceSpec(grid, aperture=63e-6)  # exactly the extent is fine


def test_sigma_scales_field_exactly():
    grid = make_grid(1, 128, 1e-6)
    s1 = draw_source_samples(SourceSpec(grid, 100e-6, sigma2=1.0), RngStream(7, 3))
    s4 = draw_source_samples(SourceSpec(grid, 100e-6, sigma2=4.0), RngStream(7, 3))
    assert np.array_equal(s4, 2.0 * s1)


def test_same_stream_same_bits():
    grid = make_grid(1, 128, 1e-6)
    spec = SourceSpec(grid, 100e-6)
    a = draw_source_samples(spec, RngStream(42, 9))
    b = draw_source_samples(spec, RngStream(42, 9))
    assert np.array_equal(a, b)
    c = draw_source_samples(spec, RngStream(42, 10))
    assert not np.array_equal(a, c)
    d = draw_source_samples(spec, RngStream(43, 9))
    assert not np.array_equal(a, d)


def test_streams_are_thread_independent():
    grid = make_grid(1, 128, 1e-6)
    spec = SourceSpec(grid, 100e-6)
    expected = [draw_source_samples(spec, RngStream(3, i)) for i in range(8)]
    got = [None] * 8

    def work(i):
        got[i] = draw_source_samples(spec, RngStream(3, i))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for a, b in zip(expected, got):
        assert np.array_equal(a, b)


def test_realizations_are_uncorrelated():
    grid = make_grid(1, 64, 1e-6)
    spec = SourceSpec(grid, 50e-6)
    n = 10_000
    pixel = 32
    ia = np.empty(n)
    ib = np.empty(n)
    for i in range(n):
        ia[i] = np.abs(draw_source_samples(spec, RngStream(5, i))[pixel]) ** 2
        ib[i] = np.abs(draw_source_samples(spec, RngStream(5, n + i))[pixel]) ** 2
    r = np.corrcoef(ia, ib)[0, 1]
    assert abs(r) <= 3.0 / np.sqrt(n)


def test_sample_source_wraps_field():
    grid = make_grid(1, 64, 1e-6)
    f = sample_source(SourceSpec(grid, 50e-6), RngStream(0, 0), WAVELENGTH)
    assert isinstance(f, ComplexField)
    assert f.wavelength == WAVELENGTH
    assert f.samples.shape == (64,)


def test_intensity_values():
    grid = make_grid(1, 2, 1e-6)
    f = ComplexField(grid, np.array([3 + 4j, 1 - 1j]), WAVELENGTH)
    out = intensity(f)
    assert isinstance(out, RealPattern)
    assert np.array_equal(out.samples, [25.0, 2.0])


def test_field_validation():
    grid = make_grid(1, 4, 1e-6)
    with pytest.raises(GridMismatchError):
        ComplexField(grid, np.zeros(5, dtype=complex), WAVELENGTH)
    with pytest.raises(ValueError):
        ComplexField(grid, np.array([np.nan + 0j, 0, 0, 0]), WAVELENGTH)
    with pytest.raises(ValueError):
        ComplexField(grid, np.zeros(4, dtype=complex), -1.0)
    with pytest.raises(GridMismatchError):
        RealPattern(grid, np.zeros(3))
    with pytest.raises(ValueError):
        RealPattern(grid, np.array([0.0, 1.0, np.inf, 0.0]))


def test_source_spec_validation():
    grid = make_grid(1, 64, 1e-6)
    with pytest.raises(ValueError):
        SourceSpec(grid, aperture=-1e-6)
    with pytest.raises(ValueError):
        SourceSpec(grid, aperture=10e-6, sigma2=0.0)
    with pytest.raises(GeometryError, match="holds no sample"):
        SourceSpec(grid, aperture=0.5e-6)  # between the two central samples
    with pytest.raises(ValueError):
        RngStream(0, -1)


# -- stream v2: bitwise oracles against numpy's own Philox ---------------------


def _slit_spec(sigma2=1.0):
    return SourceSpec(make_grid(1, 128, 1e-6), 100e-6, sigma2)


def _disk_spec(sigma2=1.0):
    return SourceSpec(make_grid(2, 24, 1e-6), 16e-6, sigma2)


def _per_index_generators(spec, seed, first, count):
    """The stream-v2 definition written out with one fresh Generator per index."""
    n_in = int(spec.aperture_mask().sum())
    rows = [
        np.sqrt(spec.sigma2)
        * RngStream(seed, first + j).generator().standard_normal(2 * n_in).view(np.complex128)
        for j in range(count)
    ]
    return np.stack(rows)


def _stacked(spec, seed, first, count):
    cols = [draw_source_samples(spec, RngStream(seed, first + j)).ravel()
            for j in range(count)]
    return np.stack(cols)


BATCH_COUNTS = (1, 2, 33)


@pytest.mark.parametrize("make_spec", [_slit_spec, _disk_spec], ids=["slit", "disk"])
@pytest.mark.parametrize("first", [0, 3 * 2**40, 2**63], ids=["0", "sweep-stride", "2^63"])
@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
def test_batch_draw_matches_single_draws_bitwise(make_spec, first, seed):
    spec = make_spec()
    idx = spec.aperture_indices
    for count in BATCH_COUNTS:
        got = draw_source_block(spec, seed, first, count)
        assert got.shape == (count, idx.size) and got.flags.c_contiguous
        assert got.tobytes() == _per_index_generators(spec, seed, first, count).tobytes()
        assert got.tobytes() == _stacked(spec, seed, first, count)[:, idx].tobytes()


@pytest.mark.parametrize("make_spec", [_slit_spec, _disk_spec], ids=["slit", "disk"])
def test_batch_draw_sigma_scales_exactly(make_spec):
    s1 = draw_source_block(make_spec(1.0), 7, 3, 33)
    s4 = draw_source_block(make_spec(4.0), 7, 3, 33)
    assert np.array_equal(s4, 2.0 * s1)
    assert s4.tobytes() == _per_index_generators(make_spec(4.0), 7, 3, 33).tobytes()


def test_batch_draw_writes_only_aperture_rows():
    # the compact block holds exactly the aperture pixels; scattered back onto
    # the grid it is the single-realization draw, zero outside the aperture
    for spec in (_slit_spec(), _disk_spec()):
        inside = spec.aperture_mask().ravel()
        assert np.array_equal(spec.aperture_indices, np.flatnonzero(inside))
        block = draw_source_block(spec, 1, 0, 5)
        assert block.shape == (5, int(inside.sum()))
        full = _stacked(spec, 1, 0, 5)
        assert np.all(full[:, ~inside] == 0.0)
        assert np.array_equal(full[:, inside], block)


def test_golden_vector_seed0_index0():
    # First 4 complex samples of (seed 0, index 0) at sigma2 = 1.  These pin
    # numpy's Philox and ziggurat normals: if either changes, every record
    # changes, and this must fail rather than let the numbers drift.
    want = [
        "0x1.463cb3872ecbdp-3", "-0x1.c6313809c831cp+0",
        "0x1.5396485e717b0p+0", "0x1.346e5e799d961p+0",
        "-0x1.40566d93c8100p-5", "-0x1.09f1537b13e67p-1",
        "-0x1.1d00f5f1c2bfdp+0", "-0x1.c4730912b6056p+0",
    ]
    block = draw_source_block(_slit_spec(), 0, 0, 1)
    assert [float(x).hex() for x in block[0, :4].view(np.float64)] == want


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
def test_rekeyed_rows_equal_a_fresh_philox_at_the_key_extremes(seed):
    # the re-key writes the key as Python ints; the top of the 64-bit range
    # must reach Philox as the same words as a uint64 key array
    spec = _slit_spec()
    for index in (0, 1, 7, 2**40 + 3, 2**64 - 1):
        key = np.array([seed & (2**64 - 1), index], dtype=np.uint64)
        want = Generator(Philox(key=key)).standard_normal(2 * spec.aperture_indices.size)
        assert draw_source_block(spec, seed, index, 1).tobytes() == want.tobytes()


def test_a_claimed_draw_writes_and_scales_only_the_claimed_rows():
    spec = _slit_spec(4.0)
    whole = draw_source_block(spec, 5, 11, 6)
    block = np.full_like(whole, 7.0)
    claims = deque([4, 1, 2])
    got = draw_source_block(spec, 5, 11, 6, out=block, claim=claims.popleft)
    assert got is block and not claims
    for r in range(6):
        want = whole[r] if r in (1, 2, 4) else np.full_like(whole[r], 7.0)
        assert block[r].tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 3, 64])
def test_four_threads_claiming_one_deque_from_both_ends_fill_the_serial_block(count):
    # two threads pop the head and two the tail, on a short switch interval
    spec = _disk_spec(4.0)
    first, seed = 9, 3
    whole = draw_source_block(spec, seed, first, count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            block = np.full_like(whole, np.nan)
            claims = deque(range(count))
            barrier = threading.Barrier(4, timeout=30)

            def work(claim):
                barrier.wait()
                draw_source_block(spec, seed, first, count, out=block, claim=claim)

            threads = [threading.Thread(target=work, args=(claim,))
                       for claim in (claims.popleft, claims.pop) * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not claims
            assert block.tobytes() == whole.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_batch_draw_rejects_negative_index():
    with pytest.raises(ValueError):
        draw_source_block(_slit_spec(), 0, -1, 2)


def test_batch_draw_concurrent_threads_match_serial():
    spec = _slit_spec()
    jobs = [(5, 0, 103), (5, 2**40, 65)]
    serial = [draw_source_block(spec, *job) for job in jobs]
    for _ in range(3):
        got = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs), timeout=30)

        def work(k):
            barrier.wait()
            got[k] = draw_source_block(spec, *jobs[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for a, b in zip(serial, got):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make_spec", [_slit_spec, _disk_spec], ids=["slit", "disk"])
def test_a_block_drawn_in_two_parts_on_two_threads_equals_one_draw(make_spec):
    spec = make_spec(4.0)
    count, first, seed = 33, 2**40 + 5, 7
    whole = draw_source_block(spec, seed, first, count)
    for split in (0, 1, count // 2, count):
        for head_on_thread in (False, True):
            block = np.full_like(whole, np.nan)
            head = lambda: draw_source_block(spec, seed, first, split, out=block[:split])
            tail = lambda: draw_source_block(spec, seed, first + split, count - split,
                                             out=block[split:])
            other = threading.Thread(target=head if head_on_thread else tail)
            other.start()
            got = (tail if head_on_thread else head)()
            other.join(timeout=60)
            assert not other.is_alive()
            assert got.base is block
            assert block.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        np.empty((4, 100), dtype=np.complex128),  # one row too many
        np.empty((3, 99), dtype=np.complex128),  # one pixel short
        np.empty((3, 100), dtype=np.complex64),
        np.empty((3, 200), dtype=np.float64),  # the parts, not complex samples
        np.empty((100, 3), dtype=np.complex128).T,  # not C-contiguous
        np.empty((3, 200), dtype=np.complex128)[:, ::2],
        np.zeros((3, 100), dtype=np.complex128).tolist(),
    ],
    ids=["rows", "pixels", "complex64", "float64", "transposed", "strided", "list"],
)
def test_draw_into_a_bad_out_is_refused(bad):
    spec = _slit_spec()
    assert spec.aperture_indices.size == 100
    with pytest.raises(ValueError, match="out must be"):
        draw_source_block(spec, 1, 0, 3, out=bad)


def test_draw_into_a_read_only_out_is_refused():
    frozen = np.zeros((3, 100), dtype=np.complex128)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="out must be"):
        draw_source_block(_slit_spec(), 1, 0, 3, out=frozen)
    assert not frozen.any()


def test_more_threads_than_cores_fill_disjoint_rows_of_one_block():
    # four threads on a short switch interval, each drawing every fourth run of rows
    spec = _disk_spec()
    count, first, seed = 64, 9, 3
    whole = draw_source_block(spec, seed, first, count)
    runs = [(lo, lo + 4) for lo in range(0, count, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            block = np.full_like(whole, np.nan)

            def work(k):
                for lo, hi in runs[k::4]:
                    draw_source_block(spec, seed, first + lo, hi - lo, out=block[lo:hi])

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert block.tobytes() == whole.tobytes()
    finally:
        sys.setswitchinterval(interval)
