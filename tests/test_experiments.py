import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostsim.analysis import half_width, normalize_unit, pattern_errors
from ghostsim.config import ExperimentConfig
from ghostsim.correlation import coherence_map
from ghostsim import analysis, experiments
from ghostsim.errors import BatchRangeError, ConfigError, GeometryError, RecordFormatError
from ghostsim.experiments import (
    GhostPipeline,
    batch_bounds,
    iter_checkpoints,
    record_header_for,
    replay_converge,
    run_converge,
    run_kappa_sweep,
    run_speckle,
    run_threshold,
    sampling_notes,
)
from ghostsim.fields import (
    RealPattern,
    RngStream,
    SourceSpec,
    draw_source_block,
    draw_source_samples,
    sample_source,
)
from ghostsim.objects import apply_mask, double_slit
from ghostsim.propagation import (
    fft_chirp,
    fft_output_grid,
    fresnel_kernel,
    propagate,
    propagate_to_point,
)
from ghostsim.records import RecordWriter, open_records
from ghostsim.analysis import split_bands


def small_config(**overrides):
    """Geometrically valid but cheap: ~130 source points, 64 detector pixels."""
    base = dict(
        source_points=128,
        source_pitch=8e-6,
        object_points=141,
        object_pitch=3e-6,
        detector_points=64,
        detector_pitch=6e-6,
        phi=0.8e-3,
        schedule=(200, 500),
        batch=128,
        write_records=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_collapsed_pipeline_matches_stepwise_chain():
    cfg = small_config()
    pipe = GhostPipeline.from_config(cfg)
    source = cfg.source_grid()
    obj = cfg.object_grid()
    field = sample_source(pipe.source_spec, RngStream(cfg.seed, 5), cfg.wavelength)

    to_object = fresnel_kernel(source, obj, cfg.d1, cfg.wavelength)
    to_detector = fresnel_kernel(source, cfg.detector_grid(), cfg.d, cfg.wavelength)
    masked = apply_mask(
        propagate(field, to_object),
        double_slit(cfg.slit_width, cfg.slit_separation, obj),
    )
    amp1 = propagate_to_point(masked, 0.0, cfg.d2)
    want_i1 = abs(amp1) ** 2
    want_i2 = np.abs(propagate(field, to_detector).samples) ** 2

    (got_i1,), (got_i2,) = pipe.batch_intensities(5, 6)
    assert got_i1 == pytest.approx(want_i1, rel=1e-10)
    np.testing.assert_allclose(got_i2, want_i2, rtol=1e-10, atol=0.0)


def test_batch_intensities_match_columnwise_construction():
    # The batch (128, 200) is cut short by the checkpoint at 200.  The
    # reference is built column by column from single draws, pruned to the
    # aperture pixels, through the same GEMV and the reference arm's two
    # factors: complex to the nodes, then one real GEMM from the nodes on
    # the stacked real and imaginary parts.
    cfg = small_config()
    pipe = GhostPipeline.from_config(cfg)
    a, b = list(batch_bounds(500, cfg.schedule, cfg.batch))[1]
    assert (a, b) == (128, 200)
    index_base = 3 << 40
    inside = pipe.source_spec.aperture_indices
    assert pipe.test_weights.shape == inside.shape
    m = pipe.ref_nodes.shape[1]
    assert pipe.ref_nodes.shape == (inside.size, m)
    assert pipe.ref_interp.shape == (m, cfg.detector_points)
    assert pipe.ref_interp.dtype == np.float64
    fields = np.zeros((b - a, inside.size), dtype=np.complex128)
    for j in range(b - a):
        stream = RngStream(cfg.seed, index_base + a + j)
        fields[j] = draw_source_samples(pipe.source_spec, stream)[inside]
    a1 = fields @ pipe.test_weights
    want_i1 = a1.real * a1.real + a1.imag * a1.imag
    z = fields @ pipe.ref_nodes
    parts = np.concatenate((z.real, z.imag)) @ pipe.ref_interp
    re, im = parts[: b - a], parts[b - a :]
    want_i2 = re * re + im * im

    i1, i2 = pipe.batch_intensities(a, b, index_base)
    assert np.array_equal(i1, want_i1)
    assert np.array_equal(i2, want_i2)
    # the two column views of one C-ordered (B, 1 + P) record block
    rows = i1.base
    assert rows is i2.base and rows.flags.c_contiguous
    assert rows.shape == (b - a, 1 + cfg.detector_points)
    assert np.array_equal(rows, np.column_stack((want_i1, want_i2)))
    assert (i1.ctypes.data, i2.ctypes.data) == (rows.ctypes.data, rows.ctypes.data + 8)


KAPPA_UNIT = 3.04e-4  # wavelength * d1 / slit_width at the defaults


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(),
        *(ExperimentConfig(source_pitch=10e-6, phi=k * KAPPA_UNIT) for k in (4, 8, 12, 16)),
        ExperimentConfig(phi=2.5 * KAPPA_UNIT),
        small_config(),
        ExperimentConfig(d=0.150, allow_geometry_mismatch=True),
    ],
    ids=["default", "kappa4", "kappa8", "kappa12", "kappa16", "kappa2.5", "small", "mismatch"],
)
def test_reference_factors_match_the_dense_kernel(cfg):
    pipe = GhostPipeline.from_config(cfg)
    inside = pipe.source_spec.aperture_indices
    dense = fresnel_kernel(cfg.source_grid(), cfg.detector_grid(), cfg.d, cfg.wavelength)
    k = dense.matrix[:, inside]
    lg = (pipe.ref_nodes @ pipe.ref_interp).T
    assert np.max(np.abs(lg - k)) <= 1e-12 * np.max(np.abs(k))
    assert pipe.ref_nodes.shape[1] < cfg.detector_points

    _, m2 = pipe.asymptotic_means()
    want_m2 = 2.0 * cfg.sigma2 * np.sum(np.abs(k) ** 2, axis=1)
    np.testing.assert_allclose(m2, want_m2, rtol=1e-12, atol=0.0)
    gamma = 2.0 * cfg.sigma2 * (k.conj() @ pipe.test_weights)
    want = gamma.real**2 + gamma.imag**2
    got = pipe.asymptotic_pattern().samples
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


@pytest.mark.parametrize(
    "overrides, n_in",
    [
        ({}, 430),
        ({"source_pitch": 10e-6, "phi": 4 * KAPPA_UNIT}, 122),
        ({"source_points": 2048, "source_pitch": 1e-6}, 1720),
        ({"source_pitch": 10e-6, "phi": 1.5 * KAPPA_UNIT}, 46),  # one block, cut short
    ],
    ids=["default", "kappa4", "pitch1um", "below-block"],
)
def test_blocked_test_weights_equal_the_dense_product_bitwise(at_one_blas_thread, overrides,
                                                              n_in):
    out = at_one_blas_thread(f"""
import numpy as np
from ghostsim.config import ExperimentConfig
from ghostsim.experiments import GhostPipeline
from ghostsim.propagation import fresnel_matrix, point_weights
cfg = ExperimentConfig(**{overrides!r})
pipe = GhostPipeline.from_config(cfg)
x = cfg.source_grid().coords(0)[pipe.source_spec.aperture_indices]
obj = cfg.object_grid()
seen = point_weights(obj, 0.0, cfg.d2, cfg.wavelength) * pipe.mask.samples
rows = np.flatnonzero(seen)
dense = seen[rows] @ fresnel_matrix(x, obj.coords(0)[rows], cfg.d1, cfg.wavelength,
                                    cfg.source_pitch)
print(x.size, pipe.test_weights.tobytes() == dense.tobytes())
""")
    assert out == f"{n_in} True"


def test_the_operator_build_at_a_fine_source_pitch_peaks_under_4_mb():
    # 1720 in-aperture pixels against 282 seen object rows: the dense
    # (rows, n_in) propagator alone would be 7.8 MB
    pipe = GhostPipeline.from_config(ExperimentConfig(source_points=2048, source_pitch=1e-6))
    tracemalloc.start()
    try:
        pipe.test_weights
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pipe.test_weights.size == 1720
    assert peak < 4e6


def test_sampled_amplitude_covariance_matches_the_pipeline_covariance():
    # the amplitudes [a1, z] of 10^5 realizations, through the two products
    # the pipeline computes; for circular Gaussian amplitudes the sample mean
    # of conj(w_i) w_j has variance C_ii C_jj / N
    pipe = GhostPipeline.from_config(small_config(sigma2=2.5, seed=17))
    c = pipe.covariance
    assert c.shape == (1 + pipe.ref_nodes.shape[1],) * 2
    assert np.max(np.abs(c - c.conj().T)) <= 1e-14 * np.max(np.abs(c))
    total, chunk = 100_000, 10_000
    sample = np.zeros_like(c)
    for start in range(0, total, chunk):
        block = draw_source_block(pipe.source_spec, 17, start, chunk)
        w = np.column_stack((block @ pipe.test_weights, block @ pipe.ref_nodes))
        sample += w.conj().T @ w
    sample /= total
    diag = c.diagonal().real
    stderr = np.sqrt(np.outer(diag, diag) / total)
    assert np.max(np.abs(sample - c) / stderr) < 5.0


def test_run_realization_deterministic_across_calls():
    # one realization at a time, through the batch path every run takes
    pipe = GhostPipeline.from_config(small_config())
    i1a, p2a = pipe.batch_intensities(3, 4)
    i1b, p2b = pipe.batch_intensities(3, 4)
    assert np.array_equal(i1a, i1b)
    assert np.array_equal(p2a, p2b)
    i1c, p2c = pipe.batch_intensities(4, 5)
    assert i1c[0] != i1a[0]
    assert not np.array_equal(p2c, p2a)


def test_an_opaque_mask_is_refused_when_the_pipeline_is_built(tmp_path):
    mask_path = tmp_path / "opaque.txt"
    np.savetxt(mask_path, np.zeros(141))
    cfg = small_config(mask_file=str(mask_path), schedule=(64, 200))
    with pytest.raises(ConfigError, match="reference pattern is flat"):
        GhostPipeline.from_config(cfg)


def test_sampling_notes_check_the_aperture_pixels_only():
    # the kappa study's 10 um source: its 5.12 mm grid read whole gives a
    # 5.44 rad test-arm step at every aperture; the apertures' own pixels
    # alias only from phi 3.04 mm on
    cfg = ExperimentConfig(source_points=512, source_pitch=10e-6)
    assert sampling_notes(cfg.replace(phi=1.216e-3)) == ()
    assert sampling_notes(cfg.replace(phi=2.432e-3)) == ()
    assert sampling_notes(cfg.replace(phi=3.648e-3)) == (
        "test arm: chirp undersampled on axis 0: edge phase step 3.99 rad > pi",)
    # an aperture spanning its 30 um grid reads every pixel, as the grid check did
    coarse = small_config(source_pitch=30e-6)
    assert sampling_notes(coarse.replace(phi=coarse.source_grid().extent(0))) == (
        "test arm: chirp undersampled on axis 0: edge phase step 12.5 rad > pi",
        "reference arm: chirp undersampled on axis 0: edge phase step 5.5 rad > pi",
    )


def test_each_checkpoint_normalizes_once_and_the_reference_once_per_pipeline(monkeypatch):
    calls = []
    normalize = analysis.normalize_unit

    def counting(*args, **kwargs):
        calls.append(args)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(analysis, "normalize_unit", counting)
    monkeypatch.setattr(experiments, "normalize_unit", counting)
    cfg = small_config(schedule=(64, 200, 500), window=(8, 55))
    res = run_converge(cfg)
    assert len(calls) == len(cfg.schedule) + 1
    assert res.reference.grid == res.snapshots[0][1].grid
    assert res.reference.grid.shape == (48,)


def test_mean_reference_intensity_is_flat_while_covariance_carries_fringes():
    # 10^4 realizations on the full-size geometry: the time-averaged reference
    # intensity shows no structure, the covariance shows the full fringe set.
    cfg = ExperimentConfig(schedule=(10_000,), write_records=False)
    pipe = GhostPipeline.from_config(cfg)
    (_, acc), = iter_checkpoints(pipe, cfg.schedule)

    mean2 = acc.mean2
    assert np.std(mean2) / np.mean(mean2) < 0.05
    m1_exact, m2_exact = pipe.asymptotic_means()
    assert acc.mean1 == pytest.approx(m1_exact, rel=0.06)
    np.testing.assert_allclose(mean2, m2_exact, rtol=0.06)

    g = normalize_unit(acc.finalize())
    assert g.samples.min() == 0.0 and g.samples.max() == 1.0
    # fringe contrast: the dimmest pixel of the mean is nowhere near that range
    assert (mean2.max() - mean2.min()) / mean2.max() < 0.1

    # the Monte Carlo pattern heads toward the closed-form limit
    eps_g, _, _ = pattern_errors(acc.finalize(), pipe.asymptotic_pattern())
    assert eps_g < 0.15


@given(
    marks=st.lists(st.integers(min_value=2, max_value=300), min_size=1, max_size=5),
    batch=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_batch_bounds_partition_and_respect_marks(marks, batch):
    schedule = tuple(sorted(set(marks)))
    total = schedule[-1]
    bounds = list(batch_bounds(total, schedule, batch))
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    for (a0, b0), (a1, _) in zip(bounds, bounds[1:]):
        assert b0 == a1 and b0 > a0
    ends = {b for _, b in bounds}
    assert set(schedule) <= ends
    assert all(b - a <= batch for a, b in bounds)


def test_iter_checkpoints_is_lazy():
    cfg = small_config(schedule=(200, 100_000_000))
    pipe = GhostPipeline.from_config(cfg)
    tracemalloc.start()
    try:
        it = iter_checkpoints(pipe, cfg.schedule)
        n, acc = next(it)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == acc.count == 200
    # the 781,250 batches of the budget are not cut before the first is drawn
    assert peak < 5_000_000
    it.close()  # abandoning must not run the huge remainder


@pytest.fixture
def drawn_rows(monkeypatch):
    """(realization index, thread) of every row the pipeline draws.

    A row is drawn when the draw's ``claim`` hands it out, or, for a draw
    without one, when it is one of the rows the draw covers.  Each thread's
    rows are listed in the order it drew them.
    """
    rows = []
    draw = experiments.draw_source_block

    def counting(spec, seed, first_index, count, *, claim=None, **kwargs):
        on = threading.get_ident()
        if claim is None:
            rows.extend((first_index + r, on) for r in range(count))
            return draw(spec, seed, first_index, count, **kwargs)

        def counted():
            r = claim()  # an empty deque raises here: no row is drawn
            rows.append((first_index + r, on))
            return r

        return draw(spec, seed, first_index, count, claim=counted, **kwargs)

    monkeypatch.setattr(experiments, "draw_source_block", counting)
    return rows


def test_threshold_search_draws_nothing_past_the_crossing(drawn_rows):
    # tau = 1 crosses at the first checkpoint, 200: no batch past it is drawn.
    cfg = small_config(schedule=(200, 400, 800, 1600), tau=1.0)
    search = run_threshold(cfg)
    assert search.n_star == 200
    assert [p.n for p in search.curve] == [200]
    # every index up to the crossing is drawn exactly once, by whichever thread
    assert sorted(i for i, _ in drawn_rows) == list(range(200))


def test_run_threshold_cuts_the_schedule_at_n_max(drawn_rows):
    cfg = small_config(schedule=(200, 400, 800), tau=1e-6, n_max=500)
    search = run_threshold(cfg)
    assert not search.reached
    assert search.n_budget == 400
    assert [p.n for p in search.curve] == [200, 400]
    assert sorted(i for i, _ in drawn_rows) == list(range(400))


def test_threshold_search_leaves_no_thread_behind():
    before = threading.active_count()
    search = run_threshold(small_config(schedule=(200, 400, 800, 1600), tau=1.0))
    assert search.n_star == 200
    assert threading.active_count() == before


def test_fold_checkpoints_records_exactly_the_batches_it_folds(tmp_path):
    cfg = small_config(detector_points=3)
    grid = cfg.detector_grid()
    rows = [np.arange(k, k + 4 * n, dtype=float).reshape(n, 4) for k, n in ((1, 2), (5, 3))]
    # finite values whose cross sum i1 @ i2 = 2e400 overflows: refused
    rows.append(np.full((2, 4), 1e200))
    header = record_header_for(cfg)
    with RecordWriter(tmp_path / "folded.gidat", header) as writer:
        folded = experiments.fold_checkpoints(
            grid, ((r[:, 0], r[:, 1:]) for r in rows), (2, 5, 7), writer
        )
        assert [n for n, _ in itertools.islice(folded, 2)] == [2, 5]
        with pytest.raises(BatchRangeError, match="overflow"):
            next(folded)
    with RecordWriter(tmp_path / "by_hand.gidat", header) as writer:
        for r in rows[:2]:
            writer.append(r[:, 0], r[:, 1:])
    assert open_records(tmp_path / "folded.gidat").n_records == 5
    assert (tmp_path / "folded.gidat").read_bytes() == (tmp_path / "by_hand.gidat").read_bytes()


def test_overlapped_run_equals_a_serial_fold(tmp_path, monkeypatch, drawn_rows):
    # checkpoints that cut batches short: 0-128 | 128-200 | 200-256 | ... | 768-777
    cfg = small_config(schedule=(200, 500, 777), batch=128)
    pipe = GhostPipeline.from_config(cfg)
    bounds = list(batch_bounds(777, cfg.schedule, cfg.batch))
    header = record_header_for(cfg)
    with RecordWriter(tmp_path / "serial.gidat", header) as writer:
        def serial():
            for a, b in bounds:
                i1, i2 = pipe.batch_intensities(a, b)
                writer.append(i1, i2)
                yield i1, i2

        want = experiments._convergence_result(
            pipe, experiments.fold_checkpoints(pipe.detector_grid, serial(), cfg.schedule)
        )
    drawn_rows.clear()

    computed_on = []
    intensities = GhostPipeline.intensities

    def spying_intensities(self, block):
        computed_on.append(threading.get_ident())
        return intensities(self, block)

    monkeypatch.setattr(GhostPipeline, "intensities", spying_intensities)
    with RecordWriter(tmp_path / "live.gidat", header) as writer:
        got = run_converge(cfg, record_writer=writer, pipeline=pipe)

    assert got.curve == want.curve
    assert [n for n, _ in got.snapshots] == [n for n, _ in want.snapshots]
    for (_, a), (_, b) in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a.samples, b.samples)
    live = (tmp_path / "live.gidat").read_bytes()
    assert live == (tmp_path / "serial.gidat").read_bytes()
    # every batch is computed on the one worker thread
    caller = threading.get_ident()
    assert len(computed_on) == len(bounds)
    assert len(set(computed_on)) == 1 and computed_on[0] != caller
    # every realization is drawn exactly once, the calling thread's rows form
    # a head of every block, drawn forwards, and the worker's its tail, drawn
    # backwards; where the head ends varies from run to run
    assert sorted(i for i, _ in drawn_rows) == list(range(777))
    assert {on for _, on in drawn_rows} <= {caller, computed_on[0]}
    for a, b in bounds:
        head = [i for i, on in drawn_rows if a <= i < b and on == caller]
        tail = [i for i, on in drawn_rows if a <= i < b and on != caller]
        cut = a + len(head)
        assert head == list(range(a, cut))
        assert tail == list(range(b - 1, cut - 1, -1))


def test_the_worker_computes_the_next_batch_while_the_fold_holds_one():
    # marks at 200 and 500 cut 0-128 | 128-200 | 200-256 | 256-384 | 384-500 | 500-512 | 512-640
    cfg = small_config(schedule=(200, 500, 640), batch=128)
    pipe = GhostPipeline.from_config(cfg)
    bounds = list(batch_bounds(640, cfg.schedule, cfg.batch))
    called = [threading.Event() for _ in bounds]  # intensities called for batch k
    calls = itertools.count()

    def spied(block):
        called[next(calls)].set()
        return pipe.intensities(block)

    before = threading.active_count()
    batches = experiments._live_batches(pipe.source_spec, cfg.seed, spied, iter(bounds),
                                        set(cfg.schedule), 0)
    for k, (i1, i2) in enumerate(batches):
        a, b = bounds[k]
        assert len(i1) == len(i2) == b - a
        if k + 1 == len(bounds):
            continue
        if b in cfg.schedule:
            # past a mark nothing is computed, or drawn, before the fold pulls it
            assert not called[k + 1].wait(timeout=0.2)
        else:
            # held here, batch k lets the worker start batch k + 1
            assert called[k + 1].wait(timeout=10)
    assert all(event.is_set() for event in called)
    assert threading.active_count() == before


def test_the_producer_reads_at_most_two_bounds_ahead():
    cfg = small_config(schedule=(200, 500, 640), batch=128)
    pipe = GhostPipeline.from_config(cfg)
    bounds = list(batch_bounds(640, cfg.schedule, cfg.batch))
    read = 0

    def counted():
        nonlocal read
        for bound in bounds:
            read += 1
            yield bound

    batches = experiments._live_batches(pipe.source_spec, cfg.seed, pipe.intensities,
                                        counted(), set(cfg.schedule), 0)
    for j, _ in enumerate(batches):
        if bounds[j][1] in cfg.schedule:
            # past a mark the next bound is read only when the fold pulls it
            assert read == j + 1
        else:
            assert read <= j + 3
    assert read == len(bounds)


@pytest.mark.parametrize("j", [0, 2, 3])  # batches that end short of a mark
def test_abandoning_the_producer_mid_run_draws_at_most_two_blocks_ahead(drawn_rows, j):
    cfg = small_config(schedule=(200, 500, 640), batch=128)
    pipe = GhostPipeline.from_config(cfg)
    bounds = list(batch_bounds(640, cfg.schedule, cfg.batch))
    before = threading.active_count()
    batches = experiments._live_batches(pipe.source_spec, cfg.seed, pipe.intensities,
                                        iter(bounds), set(cfg.schedule), 0)
    for _ in range(j + 1):
        next(batches)
    batches.close()  # while the fold holds batch j
    assert threading.active_count() == before
    # each row once; the jobs already queued run to completion on shutdown, and no more
    assert sorted(i for i, _ in drawn_rows) == list(range(len(drawn_rows)))
    assert max(i for i, _ in drawn_rows) < bounds[j + 2][1]


def test_a_failing_draw_ahead_raises_from_run_converge(monkeypatch):
    caller = threading.get_ident()
    draw = experiments.draw_source_block

    def failing(spec, seed, first_index, count, **kwargs):
        # block 1 on the calling thread, drawn while the worker computes batch 0
        if first_index == 128 and threading.get_ident() == caller:
            raise RuntimeError("draw failed")
        return draw(spec, seed, first_index, count, **kwargs)

    monkeypatch.setattr(experiments, "draw_source_block", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        run_converge(small_config(schedule=(200, 500), batch=128))
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [0, 1], ids=["pulled-by-the-fold", "drawn-ahead"])
def test_a_failing_draw_on_the_worker_raises_from_run_converge(monkeypatch, block):
    cfg = small_config(schedule=(200, 500), batch=128)
    a, b = list(batch_bounds(500, cfg.schedule, cfg.batch))[block]
    caller = threading.get_ident()
    failed_at = []
    worker_claimed = threading.Event()
    draw = experiments.draw_source_block

    def failing(spec, seed, first_index, count, *, claim, **kwargs):
        def claiming():
            if threading.get_ident() == caller:
                # the calling thread waits, so the worker fails on a row of
                # the block rather than finding every row claimed
                assert worker_claimed.wait(timeout=60)
                return claim()
            r = claim()
            failed_at.append(first_index + r)
            worker_claimed.set()
            raise RuntimeError("draw failed")

        return draw(spec, seed, first_index, count,
                    claim=claiming if first_index == a else claim, **kwargs)

    monkeypatch.setattr(experiments, "draw_source_block", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        run_converge(cfg)
    assert failed_at == [b - 1]  # the worker claims from the tail
    assert threading.active_count() == before


def test_a_failure_on_the_worker_raises_from_run_converge(monkeypatch):
    failed_on = []

    def failing(self, block):
        failed_on.append(threading.get_ident())
        raise RuntimeError("intensities failed")

    monkeypatch.setattr(GhostPipeline, "intensities", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="intensities failed"):
        run_converge(small_config(schedule=(200, 500), batch=128))
    assert failed_on and failed_on[0] != threading.get_ident()
    assert threading.active_count() == before


@pytest.fixture
def operator_builds(monkeypatch):
    """The thread of every ``chebyshev_factors`` call: one per operator build."""
    builds = []
    factors = experiments.chebyshev_factors

    def counting(*args):
        builds.append(threading.get_ident())
        return factors(*args)

    monkeypatch.setattr(experiments, "chebyshev_factors", counting)
    return builds


def test_operators_are_built_once_per_pipeline_on_the_worker(operator_builds):
    cfg = small_config(schedule=(200, 500), batch=128)
    pipe = GhostPipeline.from_config(cfg)
    assert operator_builds == []  # from_config builds none
    run_converge(cfg, pipeline=pipe)
    assert len(operator_builds) == 1 and operator_builds[0] != threading.get_ident()
    pipe.covariance  # reads the operators the run built
    assert len(operator_builds) == 1
    operator_builds.clear()
    run_kappa_sweep(small_config(phi_list=(0.4e-3, 0.8e-3), schedule=(200, 400), tau=1.0))
    assert len(operator_builds) == 2


def test_a_failing_operator_build_on_the_worker_raises_from_run_converge(monkeypatch):
    caller = threading.get_ident()
    failed_on = []

    def failing(*args):
        failed_on.append(threading.get_ident())
        raise RuntimeError("build failed")

    monkeypatch.setattr(experiments, "chebyshev_factors", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="build failed"):
        run_converge(small_config(schedule=(200, 500), batch=128))
    assert len(failed_on) == 1 and failed_on[0] != caller
    assert threading.active_count() == before


def test_run_converge_shapes_and_normalization():
    cfg = small_config(window=(8, 55))
    res = run_converge(cfg)
    assert [p.n for p in res.curve] == [200, 500]
    assert len(res.snapshots) == 2
    for n, snap in res.snapshots:
        assert snap.grid.shape == (48,)  # window subgrid
        assert snap.samples.min() == 0.0 and snap.samples.max() == 1.0
    assert res.reference.grid == res.snapshots[0][1].grid


def test_replay_reproduces_live_run_bitwise(tmp_path):
    cfg = small_config(schedule=(200, 500), batch=128)
    path = tmp_path / "records.gidat"
    with RecordWriter(path, record_header_for(cfg)) as writer:
        live = run_converge(cfg, record_writer=writer)
    replayed = replay_converge(cfg, path)
    assert replayed.curve == live.curve
    for (n_a, snap_a), (n_b, snap_b) in zip(live.snapshots, replayed.snapshots):
        assert n_a == n_b
        assert np.array_equal(snap_a.samples, snap_b.samples)
    assert np.array_equal(replayed.reference.samples, live.reference.samples)


def test_replay_of_longer_records_folds_only_the_schedule_prefix(tmp_path):
    cfg = small_config(schedule=(200, 500), batch=128)
    path = tmp_path / "records.gidat"
    with RecordWriter(path, record_header_for(cfg)) as writer:
        run_converge(cfg.replace(schedule=(200, 500, 900)), record_writer=writer)
    live = run_converge(cfg)
    replayed = replay_converge(cfg, path)
    assert replayed.curve == live.curve
    assert len(replayed.snapshots) == len(live.snapshots) == 2
    for (n_a, snap_a), (n_b, snap_b) in zip(live.snapshots, replayed.snapshots):
        assert n_a == n_b
        assert np.array_equal(snap_a.samples, snap_b.samples)


def test_replay_rejects_foreign_or_short_records(tmp_path):
    cfg = small_config(schedule=(200,))
    path = tmp_path / "records.gidat"
    with RecordWriter(path, record_header_for(cfg)) as writer:
        run_converge(cfg, record_writer=writer)
    with pytest.raises(RecordFormatError, match="different configuration"):
        replay_converge(cfg.replace(seed=cfg.seed + 1), path)
    with pytest.raises(RecordFormatError, match="schedule needs"):
        replay_converge(cfg.replace(schedule=(200, 500)), path)


def _as_version1(path):
    """Rewrite a record file's header in the version 1 layout (no batch)."""
    blob = bytearray(path.read_bytes())
    blob[6] = 1
    blob[20:24] = bytes(4)
    path.write_bytes(bytes(blob))


def test_replay_checks_batch_on_v2_files_only(tmp_path):
    cfg = small_config(schedule=(200, 500), batch=128)
    path = tmp_path / "records.gidat"
    with RecordWriter(path, record_header_for(cfg)) as writer:
        live = run_converge(cfg, record_writer=writer)
    with pytest.raises(RecordFormatError, match="batch"):
        replay_converge(cfg.replace(batch=100), path)

    _as_version1(path)
    replayed = replay_converge(cfg, path)
    assert replayed.curve == live.curve
    for (_, snap_a), (_, snap_b) in zip(live.snapshots, replayed.snapshots):
        assert np.array_equal(snap_a.samples, snap_b.samples)
    # a version 1 file carries no batch, so a different batch is not caught
    assert replay_converge(cfg.replace(batch=100), path).curve != live.curve


def test_sweep_kappa_arithmetic_and_stream_separation():
    cfg = small_config(phi_list=(0.4e-3, 0.8e-3), schedule=(200, 400), tau=1e-9)
    points = run_kappa_sweep(cfg)
    assert [p.phi for p in points] == [0.4e-3, 0.8e-3]
    for p in points:
        l_c = cfg.wavelength * cfg.d1 / p.phi
        assert p.kappa == pytest.approx(cfg.slit_width / l_c, rel=1e-12)
        assert not p.search.reached  # tau is unreachably small
        assert p.search.n_budget == 400
    # disjoint realization-index blocks: same aperture, different stream base
    twin = run_kappa_sweep(cfg.replace(phi_list=(0.4e-3, 0.4e-3)))
    a, b = twin[0].search.curve[-1], twin[1].search.curve[-1]
    assert a.eps_global != b.eps_global


def test_sweep_with_permissive_tau_stops_at_first_checkpoint():
    cfg = small_config(phi_list=(0.4e-3, 0.8e-3), schedule=(200, 400), tau=1.0)
    for p in run_kappa_sweep(cfg):
        assert p.search.reached and p.search.n_star == 200


def test_sweep_needs_at_least_two_apertures():
    with pytest.raises(ConfigError, match="two apertures"):
        run_kappa_sweep(small_config(phi_list=(0.4e-3,)))
    with pytest.raises(ConfigError, match="two apertures"):
        run_kappa_sweep(small_config())


def test_run_threshold_matches_first_sweep_entry():
    cfg = small_config(phi_list=(0.4e-3, 0.8e-3), schedule=(200, 400))
    sweep = run_kappa_sweep(cfg)
    single = run_threshold(cfg.replace(phi=0.4e-3))
    assert single == sweep[0].search  # same stream base, bitwise same numbers


def test_bands_rows_satisfy_partition_identity():
    cfg = small_config(phi_list=(0.4e-3, 0.8e-3), schedule=(200, 400), tau=1.0)
    points = run_kappa_sweep(cfg)
    bands = split_bands(cfg.detector_points)
    width = cfg.detector_points
    for p in points:
        row = p.search.crossing
        lhs = width * row.eps_global**2
        rhs = (
            len(bands.low) * row.eps_low**2 + len(bands.high) * row.eps_high**2
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert row.n == 200 and p.search.reached


def test_speckle_survey_smoke():
    cfg = ExperimentConfig(
        speckle_points=48,
        speckle_pitch=40e-6,
        speckle_phi_list=(5e-4, 2.5e-4),
        speckle_n=400,
        write_records=False,
    )
    points = run_speckle(cfg)
    assert [p.phi for p in points] == [5e-4, 2.5e-4]
    for p in points:
        assert p.n == 400
        assert p.snapshot.grid.ndim == 2
        assert p.coherence.grid == p.snapshot.grid
        assert p.fwhm_axis0 > 0.0 and p.fwhm_axis1 > 0.0
        # peak of the squared coherence factor sits at the reference pixel
        assert p.coherence.samples[p.ref_index] == pytest.approx(
            p.coherence.samples.max()
        )
    # halving the aperture doubles the coherence scale, so widths must grow
    assert points[1].fwhm_axis0 > points[0].fwhm_axis0
    assert points[1].fwhm_axis1 > points[0].fwhm_axis1


# run_speckle's batch at 48 px is 4_194_304 // 48**2 = 1820 realizations, so
# 2000 cuts into 0-1820 | 1820-2000, a short last batch, and 4000 into three
# batches, so that both of its alternating output buffers are used again
@pytest.mark.parametrize("n, count", [(2000, 2), (4000, 3)], ids=["2-batches", "3-batches"])
def test_speckle_through_the_live_driver_equals_a_serial_fold(monkeypatch, n, count):
    cfg = ExperimentConfig(
        speckle_points=48,
        speckle_pitch=40e-6,
        speckle_phi_list=(5e-4, 2.5e-4),
        speckle_n=n,
        write_records=False,
    )
    m = cfg.speckle_points
    bounds = list(batch_bounds(n, (n,), 4_194_304 // (m * m)))
    assert len(bounds) == count and bounds[-1][1] - bounds[-1][0] < bounds[0][1]
    grid_in = cfg.speckle_grid()
    grid_out = fft_output_grid(grid_in, cfg.d1, cfg.wavelength)
    chirp = fft_chirp(grid_in, cfg.d1, cfg.wavelength).ravel()
    r0, r1 = grid_out.index_of(0.0, 0), grid_out.index_of(0.0, 1)

    def serial(spec, index_base):
        inside = spec.aperture_indices
        for a, b in bounds:
            fields = np.zeros((b - a, m * m), dtype=np.complex128)
            fields[:, inside] = draw_source_block(spec, cfg.seed, index_base + a, b - a) \
                * chirp[inside]
            amps = np.fft.fft2(fields.reshape(b - a, m, m))
            i2 = amps.real * amps.real + amps.imag * amps.imag
            yield i2[:, r0, r1], i2

    live = experiments._live_batches
    computed_on, bounds_seen = [], []

    def spying(spec, seed, intensities, run_bounds, *args):
        def spied(block):
            computed_on.append(threading.get_ident())
            return intensities(block)
        run_bounds = list(run_bounds)
        bounds_seen.append(run_bounds)
        return live(spec, seed, spied, run_bounds, *args)

    monkeypatch.setattr(experiments, "_live_batches", spying)
    before = threading.active_count()
    points = run_speckle(cfg)
    assert threading.active_count() == before
    assert bounds_seen == [bounds, bounds]
    assert len(computed_on) == 2 * len(bounds)
    assert threading.get_ident() not in computed_on

    for k, (phi, p) in enumerate(zip(cfg.speckle_phi_list, points)):
        spec = SourceSpec(grid_in, phi, cfg.sigma2)
        batches = list(serial(spec, k * experiments._STREAM_STRIDE))
        (_, acc), = experiments.fold_checkpoints(grid_out, batches, (n,))
        want = coherence_map(acc)
        assert p.coherence.samples.tobytes() == want.samples.tobytes()
        assert p.snapshot.samples.tobytes() == batches[0][1][0].tobytes()


def _half_max_slopes(cut):
    """|slope| per pixel of the segment that holds each half-maximum crossing
    ``half_width`` finds, right side then left."""
    v = cut.samples
    i = int(np.argmax(v))
    right = i + int(np.argmax(v[i:] <= v[i] / 2.0))
    left = i - int(np.argmax(v[i::-1] <= v[i] / 2.0))
    return v[right - 1] - v[right], v[left + 1] - v[left]


def test_speckle_coherence_maps_converge_to_the_van_cittert_zernike_limit():
    # The chirp has constant modulus, so on the grid the covariance of the
    # field at two output pixels is the DFT of the aperture indicator at
    # their offset, and the map's exact limit is |fft2(indicator)|^2 / n_in^2,
    # rolled to the reference pixel: the sampled jinc^2.
    n = 4000
    cfg = ExperimentConfig(speckle_points=48, speckle_pitch=40e-6,
                           speckle_phi_list=(5e-4, 2.5e-4), speckle_n=n, write_records=False)
    m = cfg.speckle_points
    # The estimator's spread is about 2/sqrt(N) at the peak (var(I)/mean(I)^2
    # of exponential speckle) and 1/sqrt(N) away from it: c = 10 is 5 of the
    # peak's standard deviations, a margin for the maximum over 2 * 48^2 pixels.
    c = 10.0
    for p in run_speckle(cfg):
        spec = SourceSpec(cfg.speckle_grid(), p.phi, cfg.sigma2)
        indicator = np.zeros(m * m)
        indicator[spec.aperture_indices] = 1.0
        power = np.abs(np.fft.fft2(indicator.reshape(m, m))) ** 2
        limit = RealPattern(p.coherence.grid, np.roll(
            power / spec.aperture_indices.size ** 2, p.ref_index, axis=(0, 1)))
        assert np.max(np.abs(p.coherence.samples - limit.samples)) <= c / np.sqrt(n)
        for axis, fwhm in enumerate((p.fwhm_axis0, p.fwhm_axis1)):
            cut = experiments._axis_cut(limit, p.ref_index, axis, 64)
            # a pixel near half maximum is off by at most 2/sqrt(N) in one
            # standard deviation and the half level by 1/sqrt(N); each shifts
            # a crossing by its error over the limit's slope there.  The
            # bound is 4 of those deviations, both crossings added.
            spread = np.hypot(2.0, 1.0) / np.sqrt(n)
            tol = 4.0 * sum(spread / s for s in _half_max_slopes(cut)) * cut.grid.pitch[0]
            assert abs(fwhm - half_width(cut)) <= tol


def test_speckle_refuses_a_too_wide_aperture_before_any_draw(monkeypatch):
    calls = []
    draw = experiments.draw_source_block

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(experiments, "draw_source_block", counting)
    # the 48 px grid spans 1.92 mm: the first aperture fits, the second does not
    cfg = ExperimentConfig(speckle_points=48, speckle_phi_list=(5e-4, 5e-3), speckle_n=64)
    with pytest.raises(GeometryError):
        run_speckle(cfg)
    assert calls == []


def test_sigma2_scaling_leaves_normalized_outputs_identical():
    base = small_config(schedule=(200, 500))
    res1 = run_converge(base)
    res4 = run_converge(base.replace(sigma2=4.0))
    assert res1.curve == res4.curve  # errors are scale-free, bitwise
    for (_, a), (_, b) in zip(res1.snapshots, res4.snapshots):
        assert np.array_equal(a.samples, b.samples)
