import numpy as np
import pytest

from ghostsim.errors import GeometryError, GridMismatchError
from ghostsim.fields import ComplexField
from ghostsim.grids import make_grid
from ghostsim.objects import (
    TransmissionMask,
    apply_mask,
    double_slit,
    load_mask,
    reference_double_slit,
    reference_from_mask,
)

LAM = 0.532e-6
A = 105e-6
B = 303e-6
D2 = 0.075


def test_double_slit_edges_are_inclusive():
    # 1 um pitch, 409 points: slit edges at +/-99 and +/-204 um sit on samples
    grid = make_grid(1, 409, 1e-6)
    t = double_slit(A, B, grid).samples
    x = grid.coords(0)
    for edge in (99e-6, 204e-6):
        assert t[grid.index_of(edge)] == 1.0
        assert t[grid.index_of(-edge)] == 1.0
    assert t[grid.index_of(98e-6)] == 0.0
    assert t[grid.index_of(0.0)] == 0.0
    assert x[0] == pytest.approx(-204e-6, rel=1e-12)  # grid ends exactly at the outer edges
    # each opening spans 106 samples (inclusive edges), two openings
    assert int(t.sum()) == 212
    assert np.array_equal(t, t[::-1])


def test_double_slit_on_default_object_grid():
    grid = make_grid(1, 561, 0.75e-6)
    t = double_slit(A, B, grid).samples
    assert t[grid.index_of(204e-6)] == 1.0
    assert t[grid.index_of(99e-6)] == 1.0
    assert t[grid.index_of(204.75e-6)] == 0.0
    assert int(t.sum()) == 2 * 141


def test_double_slit_rejects_bad_geometry():
    grid = make_grid(1, 64, 1e-6)
    with pytest.raises(ValueError):
        double_slit(10e-6, 10e-6, grid)
    with pytest.raises(ValueError):
        double_slit(10e-6, 5e-6, grid)
    with pytest.raises(ValueError):
        double_slit(-1e-6, 5e-6, grid)
    with pytest.raises(ValueError):
        double_slit(1e-6, 2e-6, make_grid(2, 8, 1e-6))
    # openings past the outermost samples: wholly, or the outer edges only
    # (204 um against a +/-175 um grid), which would be scored unclipped
    for a, b, grid_ in ((1e-3, 2e-3, make_grid(1, 561, 0.75e-6)),
                        (A, B, make_grid(1, 141, 2.5e-6)),
                        (A, B, make_grid(1, 3, 0.75e-6)),
                        (A, B, make_grid(1, 409, 1e-6, origin=0.5e-6))):
        with pytest.raises(GeometryError, match="exceeds the object grid"):
            double_slit(a, b, grid_)


def test_apply_mask():
    grid = make_grid(1, 8, 1e-6)
    mask = TransmissionMask(grid, np.array([0, 1, 0.5, 1, 1, 0, 0, 1], float))
    field = ComplexField(grid, np.full(8, 2.0 + 0j), LAM)
    out = apply_mask(field, mask)
    assert np.array_equal(out.samples, 2.0 * mask.samples)
    with pytest.raises(GridMismatchError):
        apply_mask(ComplexField(make_grid(1, 8, 2e-6), np.ones(8, complex), LAM), mask)


def test_mask_value_range_enforced():
    grid = make_grid(1, 4, 1e-6)
    with pytest.raises(ValueError):
        TransmissionMask(grid, np.array([0.0, 0.5, 1.0, 1.1]))
    with pytest.raises(ValueError):
        TransmissionMask(grid, np.array([0.0, -0.1, 1.0, 1.0]))


def test_reference_peak_and_zeros():
    grid = make_grid(1, 256, 1.557e-6)
    y = reference_double_slit(A, B, LAM, D2, grid).samples
    # rho = 0 is not a sample on an even grid; evaluate on an odd grid too
    odd = make_grid(1, 257, 1.557e-6)
    y_odd = reference_double_slit(A, B, LAM, D2, odd).samples
    assert y_odd[128] == 1.0
    assert y.max() <= 1.0
    # cosine null: rho = lambda d2 / (2 b); sinc null: rho = lambda d2 / a
    for null in (LAM * D2 / (2 * B), LAM * D2 / A):
        probe = make_grid(1, 3, 1e-9, origin=null)
        vals = reference_double_slit(A, B, LAM, D2, probe).samples
        assert vals[1] < 1e-12


def test_reference_fringe_zero_spacing():
    # fringe zeros sit exactly at odd multiples of half the period
    # lambda d2 / b, unshifted by the sinc envelope (unlike the maxima)
    grid = make_grid(1, 2048, 0.25e-6)
    y = reference_double_slit(A, B, LAM, D2, grid).samples
    x = grid.coords(0)
    period = LAM * D2 / B
    found = []
    for m in (0, 1):
        target = (m + 0.5) * period
        j = grid.index_of(target)
        window = slice(j - 4, j + 5)
        j_min = j - 4 + int(np.argmin(y[window]))
        assert y[j_min] < 1e-3
        assert abs(x[j_min] - target) <= grid.pitch[0]
        found.append(x[j_min])
    assert abs((found[1] - found[0]) - period) <= 2 * grid.pitch[0]


def test_reference_is_even():
    grid = make_grid(1, 501, 1.5e-6)
    y = reference_double_slit(A, B, LAM, D2, grid).samples
    assert np.max(np.abs(y - y[::-1])) < 1e-12


def test_reference_from_mask_matches_closed_form():
    obj = make_grid(1, 561, 0.75e-6)
    det = make_grid(1, 256, 1.557e-6)
    mask = double_slit(A, B, obj)
    numeric = reference_from_mask(mask, LAM, D2, det).samples
    closed = reference_double_slit(A, B, LAM, D2, det).samples
    closed = (closed - closed.min()) / (closed.max() - closed.min())
    assert np.max(np.abs(numeric - closed)) < 0.01


def test_blocked_mask_reference_equals_the_dense_transform_bitwise(at_one_blas_thread):
    # the two unequal openings of the CI's mask file, on the default grids;
    # the dense transform is the whole (detector, object) phase matrix at once
    out = at_one_blas_thread("""
import numpy as np
from ghostsim.grids import make_grid
from ghostsim.objects import TransmissionMask, reference_from_mask
obj, det = make_grid(1, 561, 0.75e-6), make_grid(1, 256, 1.557e-6)
t = np.zeros(561)
t[240:260] = 1.0
t[300:310] = 1.0
xi = det.coords(0) / (0.532e-6 * 0.075)
phases = np.exp(-2j * np.pi * xi[:, None] * obj.coords(0)[None, :])
y = np.abs(phases @ (t * obj.pitch[0])) ** 2
dense = (y - y.min()) / (y.max() - y.min())
got = reference_from_mask(TransmissionMask(obj, t), 0.532e-6, 0.075, det).samples
print(got.tobytes() == dense.tobytes())
""")
    assert out == "True"


def test_reference_validation():
    grid = make_grid(1, 16, 1e-6)
    with pytest.raises(ValueError):
        reference_double_slit(B, A, LAM, D2, grid)
    with pytest.raises(ValueError):
        reference_double_slit(A, B, LAM, D2, make_grid(2, 4, 1e-6))


def test_reference_from_opaque_mask_is_flat_zero():
    obj = make_grid(1, 33, 1e-6)
    det = make_grid(1, 16, 1.557e-6)
    mask = TransmissionMask(obj, np.zeros(33))
    ref = reference_from_mask(mask, LAM, D2, det)
    assert np.array_equal(ref.samples, np.zeros(16))


def test_load_mask_roundtrip(tmp_path):
    grid = make_grid(1, 32, 1e-6)
    t = double_slit(8e-6, 16e-6, grid)
    path = tmp_path / "mask.txt"
    np.savetxt(path, t.samples)
    back = load_mask(path, grid)
    assert np.array_equal(back.samples, t.samples)
    assert back.grid == grid


def test_load_mask_errors(tmp_path):
    grid = make_grid(1, 8, 1e-6)
    short = tmp_path / "short.txt"
    np.savetxt(short, np.zeros(5))
    with pytest.raises(ValueError):
        load_mask(short, grid)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0\n2.0\n0.0\n0.0\n0.0\n0.0\n0.0\n0.0\n")
    with pytest.raises(ValueError):
        load_mask(bad, grid)
