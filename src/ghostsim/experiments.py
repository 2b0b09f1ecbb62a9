"""Experiment pipelines: correlation reconstruction runs and speckle surveys.

The per-realization pipeline is collapsed before the Monte Carlo loop.  With
K1 the source-to-object matrix, t the transmittance, k2 the object-to-point
quadrature weights and K the source-to-detector matrix, each realization E
needs only

    i1 = |(k2 * t) @ K1 @ E|^2 = |v @ E|^2        (scalar arm)
    i2 = |K @ E|^2                                 (reference arm)

Source pixels outside the aperture are always zero, so v and K keep only the
in-aperture columns and the draw produces only those pixels.  K is smooth
across the detector, so it is held as the propagator to a few dozen
Chebyshev nodes followed by a real interpolation to the detector pixels:
a batch of realizations is one complex GEMM to the nodes, then one real GEMM
from them per chunk of at most ``OUTPUT_BLOCK`` rows, so the batch's whole
(2B, P) product is never held.  ``GhostPipeline`` builds v and K on first
use, so a live run builds them with its first batch and replay, which folds
stored intensities, never does.

Every run is one fold: ``fold_checkpoints`` folds batches cut lazily by
``batch_bounds`` (fixed by the schedule and the batch size alone) in index
order into one accumulator on the calling thread, records each batch it
accepts, and hands the accumulator out at each scheduled N to be scored.
Live runs, replay, threshold search and speckle differ only in where the
batches come from.  Live runs and speckle share one producer,
``_live_batches``, and both threads draw every source block.  One worker
thread runs its jobs in the order they are queued: its rows of block k,
claimed from the tail of one deque, batch k's intensities, its rows of
block k + 1.  The calling thread claims rows of block k from the head and
then folds, records and scores batch k - 1.  Every row comes from its own
re-keyed stream, so which thread draws it, which varies from run to run,
changes no number.  Nothing is computed or drawn ahead past a checkpoint.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .analysis import (
    CurvePoint,
    ThresholdSearch,
    banded_errors,
    coherence_length,
    half_width,
    kappa,
    min_n_to_threshold,
    normalize_unit,
)
from .analysis import pattern_errors  # noqa: F401  (perfbench/tracing.py wraps it here)
from .config import ExperimentConfig
from .correlation import CorrelationAccumulator, check_normal_means, coherence_map
from .errors import ConfigError, DegeneratePatternError, NoPeakError, RecordFormatError
from .fields import STREAM_VERSION, RealPattern, SourceSpec, draw_source_block
from .fields import draw_source_samples  # noqa: F401  (perfbench/tracing.py wraps it here)
from .grids import Grid
from .objects import (TransmissionMask, double_slit, load_mask, reference_double_slit,
                      reference_from_mask)
from .propagation import (
    OUTPUT_BLOCK,
    chebyshev_factors,
    fft_chirp,
    fft_output_grid,
    fresnel_matrix,
    point_weights,
    validate_sampling,
)
from .propagation import fresnel_kernel  # noqa: F401  (perfbench/tracing.py wraps it here)
from .records import RecordHeader, RecordWriter, UnfinishedHeader, open_records, read_batches

_STREAM_STRIDE = 1 << 40  # realization-index block reserved per sweep entry
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


@dataclass(eq=False)
class GhostPipeline:
    """One geometry's source, mask and normalized reference, checked when it is
    made, and the operators of its two arms, built on first use.

    ``from_config`` refuses a bad aperture, mask or reference before any draw
    and builds no operator, so replay, which reads only the reference, never
    builds one; a live run builds them on its worker thread with batch 0.
    ``sampling_notes(config)`` checks their sampling from the config alone.
    """

    config: ExperimentConfig
    source_spec: SourceSpec
    detector_grid: Grid
    mask: TransmissionMask  # on the object grid: the test arm sees through it
    reference: RealPattern  # normalized over the comparison window, on its subgrid

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "GhostPipeline":
        obj = config.object_grid()
        det = config.detector_grid()
        spec = SourceSpec(config.source_grid(), config.phi, config.sigma2)
        if config.mask_file is not None:
            mask = load_mask(config.mask_file, obj)
            reference = reference_from_mask(mask, config.wavelength, config.d2, det)
        else:
            mask = double_slit(config.slit_width, config.slit_separation, obj)
            reference = reference_double_slit(
                config.slit_width, config.slit_separation,
                config.wavelength, config.d2, det,
            )
        try:  # a flat reference (an opaque mask) leaves nothing to reconstruct
            reference = normalize_unit(reference, config.window)
        except DegeneratePatternError:
            raise ConfigError("the reference pattern is flat over the comparison "
                              "window (an opaque mask?): nothing to reconstruct") from None
        return cls(config=config, source_spec=spec, detector_grid=det, mask=mask,
                   reference=reference)

    @functools.cached_property
    def _operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(test_weights, ref_nodes, ref_interp), built together on first read."""
        config, source, obj = self.config, self.source_spec.grid, self.mask.grid
        lam = config.wavelength
        x = source.coords(0)[self.source_spec.aperture_indices]
        # only the object pixels the point detector sees through the mask
        seen = point_weights(obj, 0.0, config.d2, lam) * self.mask.samples
        rows = np.flatnonzero(seen)
        weights, y = seen[rows], obj.coords(0)[rows]
        # a block of source pixels at a time, each summed over every seen row:
        # the (rows, n_in) propagator is never held whole
        v = np.concatenate([
            weights @ fresnel_matrix(x[a : a + OUTPUT_BLOCK], y, config.d1, lam, source.pitch[0])
            for a in range(0, x.size, OUTPUT_BLOCK)
        ])
        to_nodes, interp = chebyshev_factors(x, self.detector_grid.coords(0), config.d, lam,
                                             source.pitch[0])
        return v, to_nodes.T, interp.T

    @property
    def test_weights(self) -> np.ndarray:
        """v on the in-aperture pixels, shape (n_in,)."""
        return self._operators[0]

    @property
    def ref_nodes(self) -> np.ndarray:
        """K from the in-aperture pixels to m nodes, shape (n_in, m)."""
        return self._operators[1]

    @property
    def ref_interp(self) -> np.ndarray:
        """Real interpolation from the nodes, shape (m, P)."""
        return self._operators[2]

    def batch_intensities(
        self, start: int, stop: int, index_base: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intensity pairs for realization indices [start, stop)."""
        return self.intensities(draw_source_block(
            self.source_spec, self.config.seed, index_base + start, stop - start
        ))

    def intensities(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Intensity pairs of a ``draw_source_block`` block of B realizations.

        Returns i1 (B,) and i2 (B, P) as the two column views of one C-ordered
        (B, 1 + P) block laid out as a record row: i1 in column 0, the P
        pixels of i2 after it.  Replay reads the records back into the same
        layout, so both fold the same arrays bitwise.

        The amplitudes at the nodes, z (B, m), are formed whole.  The real
        GEMM from them, its square and the sum into i2 run over ceil(B / 64)
        near-equal chunks of rows, each written into its rows of the block:
        a batch of at most 64 rows is one chunk, and no chunk of a longer one
        has fewer than 32 rows (see ``OUTPUT_BLOCK`` for why).  At one BLAS
        thread each chunk is its rows of the whole stacked product bit for bit.
        """
        b = len(block)
        rows = np.empty((b, 1 + self.detector_grid.npoints))
        i1, i2 = rows[:, 0], rows[:, 1:]
        a1 = block @ self.test_weights
        np.add(a1.real * a1.real, a1.imag * a1.imag, out=i1)
        z = block @ self.ref_nodes
        # each chunk's real and imaginary parts stacked, (2c, m), through one real GEMM
        n = max(1, -(-b // OUTPUT_BLOCK))  # an empty block is one empty chunk
        for lo, hi in itertools.pairwise(j * b // n for j in range(n + 1)):
            a2 = np.concatenate((z[lo:hi].real, z[lo:hi].imag)) @ self.ref_interp
            # re*re + im*im, rounded as that expression, with one temporary fewer
            np.multiply(a2, a2, out=a2)
            np.add(a2[: hi - lo], a2[hi - lo :], out=i2[lo:hi])
        return i1, i2

    @functools.cached_property
    def covariance(self) -> np.ndarray:
        """C = 2 sigma2 * A^H A, with A = [v | K_nodes], shape (1 + m, 1 + m).

        A realization's amplitudes w = [a1, z] = E @ A are circular Gaussian
        with E[conj(w_i) w_j] = C[i, j], so every infinite-N statistic of
        the two arms is read off C.  Built on first use; no run path needs it.
        """
        a = np.column_stack((self.test_weights, self.ref_nodes))
        return (2.0 * self.config.sigma2) * (a.conj().T @ a)

    def asymptotic_pattern(self) -> RealPattern:
        """Exact infinite-N covariance pattern of (i1, i2): |E[conj(a1) a2]|^2,
        so the Monte Carlo limit is available in closed form for calibration."""
        gamma = self.covariance[0, 1:] @ self.ref_interp
        return RealPattern(self.detector_grid, gamma.real**2 + gamma.imag**2)

    def asymptotic_means(self) -> tuple[float, np.ndarray]:
        """Exact infinite-N mean intensities (scalar arm, reference arm)."""
        c, interp = self.covariance, self.ref_interp
        return c[0, 0].real, np.sum(interp * (c[1:, 1:] @ interp), axis=0).real


def sampling_notes(config: ExperimentConfig) -> tuple[str, ...]:
    """Sampling warnings of the operators a ``GhostPipeline`` builds:
    ``validate_sampling`` of the aperture's source coordinates, the only ones
    they read, against the object grid at d1 and the detector grid at d."""
    source = config.source_grid()
    x = source.coords(0)[SourceSpec(source, config.phi, config.sigma2).aperture_indices]
    arms = (("test arm", config.object_grid(), config.d1),
            ("reference arm", config.detector_grid(), config.d))
    return tuple(
        f"{label}: {msg}"
        for label, grid, z in arms
        for msg in validate_sampling(x, grid.coords(0), z, config.wavelength, source.pitch[0])
    )


def batch_bounds(total: int, schedule, batch: int) -> Iterator[tuple[int, int]]:
    """Fixed batch boundaries, yielded in order: every multiple of ``batch``
    plus every checkpoint, up to ``total``.

    Determined by the run configuration alone, so live runs and replay fold
    the same batches in the same order.  Lazy: a budget of any size costs
    nothing before its first batch.
    """
    a = 0
    for mark in sorted({n for n in schedule if n < total} | {total}):
        while a < mark:
            b = min(mark, (a // batch + 1) * batch)
            yield a, b
            a = b


def fold_checkpoints(
    grid: Grid, batches: Iterable[tuple[np.ndarray, np.ndarray]], schedule,
    record_writer: RecordWriter | None = None,
) -> Iterator[tuple[int, CorrelationAccumulator]]:
    """Fold (i1, i2) batches in order; yield (n, snapshot) at each scheduled n.

    The batches must be cut by ``batch_bounds`` so every checkpoint falls on
    a batch end.  Each batch the fold accepts goes to ``record_writer`` before
    its checkpoint is yielded, so every folded batch, and no refused one, is
    recorded.  Lazy: no batch is pulled past the checkpoint last yielded.
    """
    marks = set(schedule)
    acc = CorrelationAccumulator(grid)
    for i1, i2 in batches:
        acc.fold_batch(i1, i2)
        if record_writer is not None:
            record_writer.append(i1, i2)
        del i1, i2  # so the next batch can reuse their memory
        if acc.count in marks:
            yield acc.count, acc.copy()


def _live_batches(spec: SourceSpec, seed: int, intensities, bounds, marks, index_base: int):
    """The batches ``intensities(block)`` makes of the blocks over ``bounds``.

    Both threads draw every block, into one of two reused buffers, claiming
    its row offsets from one deque: the calling thread from the head, the one
    worker thread from the tail, so the split follows what each has time
    for.  The worker runs its jobs in the order they are queued: its rows of
    block k, batch k's intensities, then, unless block k ends at a mark, its
    rows of block k + 1.  Meanwhile the calling thread draws its rows of
    block k and hands batch k - 1 to the fold, which also records it.  It
    takes batch k - 1 and the worker's rows of block k before it queues
    batch k, so a failure on the worker raises before more is queued.  Past a
    mark nothing is drawn ahead: a search that stops at a mark draws nothing
    it does not fold.  Batch k + 1 is computed while the fold holds batch k,
    so ``intensities`` must not hand out the same output buffers for two
    batches in a row.  ``bounds`` is read at most two bounds ahead.
    """
    # imported here, not with the module: replay never draws
    from concurrent.futures import ThreadPoolExecutor

    width = spec.aperture_indices.size
    buffers = [np.empty((0, width), dtype=np.complex128)] * 2
    bounds = iter(bounds)

    with ThreadPoolExecutor(max_workers=1) as worker:

        def start(k: int):
            """Read block k's bound and queue the worker's draw of its rows,
            claimed from the tail, into buffer k % 2.  Returns the bound's end,
            the block, that job and the calling thread's draw, claimed from the
            head; None past the last bound."""
            bound = next(bounds, None)
            if bound is None:
                return None
            a, b = bound
            if len(buffers[k % 2]) < b - a:
                buffers[k % 2] = np.empty((b - a, width), dtype=np.complex128)
            block = buffers[k % 2][: b - a]
            rows = deque(range(b - a))
            draw = functools.partial(draw_source_block, spec, seed, index_base + a, b - a,
                                     out=block)
            theirs = worker.submit(draw, claim=rows.pop)
            return b, block, theirs, functools.partial(draw, claim=rows.popleft)

        job = started = None  # batch k - 1 until the fold gets it; block k once started
        for k in itertools.count():
            if started is None:  # block k was not drawn ahead: batch k - 1 goes to the fold first
                if job is not None:
                    held, job = job.result(), None
                    yield held
                    del held
                started = start(k)
                if started is None:
                    return
            b, block, theirs, mine = started
            mine()
            # batch k - 1, then the worker's rows of block k: a failure on the
            # worker raises here, before anything more is queued
            held = None if job is None else job.result()
            theirs.result()
            job = worker.submit(intensities, block)  # drops batch k - 1's Future
            started = None if b in marks else start(k + 1)
            if held is not None:
                yield held
                del held


def iter_checkpoints(
    pipeline: GhostPipeline,
    schedule,
    *,
    index_base: int = 0,
    record_writer: RecordWriter | None = None,
) -> Iterator[tuple[int, CorrelationAccumulator]]:
    """Run the Monte Carlo and yield an accumulator snapshot at each checkpoint."""
    schedule = tuple(int(n) for n in schedule)
    bounds = batch_bounds(schedule[-1], schedule, pipeline.config.batch)
    batches = _live_batches(pipeline.source_spec, pipeline.config.seed, pipeline.intensities,
                            bounds, set(schedule), index_base)
    return fold_checkpoints(pipeline.detector_grid, batches, schedule, record_writer)


@dataclass(frozen=True)
class ConvergenceResult:
    """Error curve plus normalized reconstruction snapshots per checkpoint."""

    curve: tuple[CurvePoint, ...]
    snapshots: tuple[tuple[int, RealPattern], ...]
    reference: RealPattern  # normalized over the comparison window
    stream: int = STREAM_VERSION  # source stream of the folded intensities
    notes: tuple[str, ...] = ()  # warnings about the inputs, for the caller to show


def _score(pipeline: GhostPipeline, n: int, acc: CorrelationAccumulator):
    """The reconstruction at a checkpoint, normalized over the comparison window
    once, and its errors against the pipeline's reference, normalized alike.
    A reconstruction whose products i1 * i2 were subnormal is refused."""
    try:  # from_config refuses a flat reference, so a flat g means G underflowed
        g = normalize_unit(acc.finalize(), pipeline.config.window)
    except DegeneratePatternError:
        raise DegeneratePatternError(f"the reconstruction at N={n} is constant over the "
                                     "comparison window") from None
    try:
        check_normal_means(acc.mean1 * acc.mean2)
    except DegeneratePatternError as exc:
        raise DegeneratePatternError(f"the reconstruction at N={n}: {exc}") from None
    return g, CurvePoint(n, *banded_errors(g.samples, pipeline.reference.samples))


def _convergence_result(pipeline: GhostPipeline, checkpoints, stream: int = STREAM_VERSION,
                        notes: tuple[str, ...] = ()) -> ConvergenceResult:
    curve: list[CurvePoint] = []
    snaps: list[tuple[int, RealPattern]] = []
    for n, acc in checkpoints:
        g, point = _score(pipeline, n, acc)
        curve.append(point)
        snaps.append((n, g))
    return ConvergenceResult(
        curve=tuple(curve),
        snapshots=tuple(snaps),
        reference=pipeline.reference,
        stream=stream,
        notes=notes,
    )


def run_converge(config: ExperimentConfig, record_writer: RecordWriter | None = None,
                 pipeline: GhostPipeline | None = None) -> ConvergenceResult:
    """Single-aperture run over the whole schedule with pattern snapshots."""
    pipe = pipeline if pipeline is not None else GhostPipeline.from_config(config)
    return _convergence_result(
        pipe, iter_checkpoints(pipe, config.schedule, record_writer=record_writer)
    )


@dataclass(frozen=True)
class KappaPoint:
    """Threshold search outcome for one aperture diameter."""

    phi: float
    kappa: float | None  # None for a mask file: kappa is the two-slit width over l_c
    search: ThresholdSearch


def run_threshold(config: ExperimentConfig, *, index_base: int = 0,
                  pipeline: GhostPipeline | None = None) -> ThresholdSearch:
    """Threshold search for a single aperture; config.phi is the aperture.

    The schedule is cut at n_max, and the fold stops at the first checkpoint
    whose error reaches tau.
    """
    pipe = pipeline if pipeline is not None else GhostPipeline.from_config(config)
    schedule = [n for n in config.schedule if config.n_max is None or n <= config.n_max]
    points = (
        _score(pipe, n, acc)[1]
        for n, acc in iter_checkpoints(pipe, schedule, index_base=index_base)
    )
    return min_n_to_threshold(points, config.tau, schedule[-1])


def run_kappa_sweep(config: ExperimentConfig) -> list[KappaPoint]:
    """Minimal-N search per aperture in phi_list; independent streams per entry.

    Each point's kappa is the slit width over the coherence length, and None
    with a mask file, whose openings ``slit_width`` does not describe."""
    if config.phi_list is None or len(config.phi_list) < 2:
        raise ConfigError("sweep requires phi_list with at least two apertures")
    # every pipeline is made, so a bad aperture or reference is refused, before
    # any search; each is let go, with the operators its search built, once
    # that search returns
    pipes = deque(GhostPipeline.from_config(config.replace(phi=phi))
                  for phi in config.phi_list)
    out: list[KappaPoint] = []
    for i in range(len(pipes)):
        pipe = pipes.popleft()
        cfg = pipe.config
        k = None
        if cfg.mask_file is None:
            k = kappa(cfg.slit_width, coherence_length(cfg.wavelength, cfg.d1, cfg.phi))
        search = run_threshold(cfg, index_base=i * _STREAM_STRIDE, pipeline=pipe)
        out.append(KappaPoint(phi=cfg.phi, kappa=k, search=search))
    return out


@dataclass(frozen=True)
class SpecklePoint:
    """Coherence survey at one aperture: snapshot, coherence map, widths."""

    phi: float
    n: int
    l_c: float
    fwhm_axis0: float
    fwhm_axis1: float
    ref_index: tuple[int, int]
    snapshot: RealPattern
    coherence: RealPattern


def _axis_cut(map2d: RealPattern, ref_index: tuple[int, int], axis: int, half: int) -> RealPattern:
    r = ref_index[axis]
    n_axis = map2d.grid.shape[axis]
    half = min(half, r, n_axis - 1 - r)
    lo, hi = r - half, r + half
    if axis == 0:
        values = map2d.samples[lo : hi + 1, ref_index[1]]
    else:
        values = map2d.samples[ref_index[0], lo : hi + 1]
    cut_grid = Grid(
        shape=(2 * half + 1,),
        pitch=(map2d.grid.pitch[axis],),
        origin=(map2d.grid.coordinate_of(r, axis),),
    )
    return RealPattern(cut_grid, np.ascontiguousarray(values))


def run_speckle(config: ExperimentConfig) -> list[SpecklePoint]:
    """Instantaneous speckle and coherence maps at the object plane (distance d1).

    For each aperture: N realizations are propagated on the 2D grid, the
    scalar channel is the intensity at the pixel nearest the axis, and the
    normalized covariance against that pixel estimates the squared coherence
    factor, whose width is compared to wavelength * d1 / aperture.  The
    batches come from ``_live_batches``, as in a live run.  Only intensities
    are needed, so each field is the compact in-aperture block times its
    entries of ``fft_chirp``, through ``fft2``, taken as its two 1D passes
    over the lit rows, a few fields at a time, and |.|^2; the snapshot is the
    first realization.  The worker computes batch k + 1 while the fold reads
    batch k, so the |.|^2 of two batches in a row go to two buffers, used in
    turn: up to 32 MB each, the second touched only by an aperture's second
    batch.
    """
    grid_in = config.speckle_grid()
    # refuse a too-wide or empty aperture before any field is drawn
    specs = [SourceSpec(grid_in, phi, config.sigma2) for phi in config.speckle_phi_list]
    lam = config.wavelength
    z = config.d1
    grid_out = fft_output_grid(grid_in, z, lam)
    chirp = fft_chirp(grid_in, z, lam).ravel()
    ref_index = (grid_out.index_of(0.0, 0), grid_out.index_of(0.0, 1))
    m = config.speckle_points
    per_batch = max(1, 4_194_304 // (m * m))
    # fields per pass through the two FFTs: about 1 MB of complex buffer, which
    # stays in cache (one field at 256^2)
    chunk = max(1, 65_536 // (m * m))
    schedule = (config.speckle_n,)
    # the schedule's one mark is its end, so the first batch is the longest;
    # two batches alternate, as the fold holds one while the next is computed
    power_buffers = [np.empty((min(per_batch, config.speckle_n), m, m)) for _ in range(2)]
    out: list[SpecklePoint] = []
    for k, (phi, spec) in enumerate(zip(config.speckle_phi_list, specs)):
        inside = spec.aperture_indices
        weights = chirp[inside]
        # fft2 is the FFT along the last axis, then along axis 1.  Along the
        # last axis only the rows [r0, r1) the aperture lights are nonzero, so
        # only they are transformed, into rows of a buffer whose other rows
        # stay zero: the same transforms of the same numbers, bit for bit.
        r0, r1 = inside[0] // m, inside[-1] // m + 1
        lit = np.zeros((chunk, r1 - r0, m), dtype=np.complex128)
        lit_pixels = lit.reshape(chunk, -1)
        lit_inside = inside - r0 * m
        rows = np.zeros((chunk, m, m), dtype=np.complex128)
        snapshot: RealPattern | None = None
        powers = itertools.cycle(power_buffers)

        def intensities(block):
            nonlocal snapshot
            b = len(block)
            power = next(powers)
            block *= weights
            for j in range(0, b, chunk):
                c = min(chunk, b - j)
                lit_pixels[:c, lit_inside] = block[j : j + c]
                rows[:c, r0:r1] = np.fft.fft(lit[:c], axis=-1)
                amps = np.fft.fft(rows[:c], axis=1)
                # re*re + im*im, rounded as the plain expression, into power
                np.multiply(amps.real, amps.real, out=power[j : j + c])
                power[j : j + c] += np.multiply(amps.imag, amps.imag, out=amps.imag)
            i2 = power[:b]
            if snapshot is None:
                snapshot = RealPattern(grid_out, i2[0].copy())
            return i2[:, ref_index[0], ref_index[1]], i2

        bounds = batch_bounds(config.speckle_n, schedule, per_batch)
        batches = _live_batches(spec, config.seed, intensities, bounds, set(schedule),
                                k * _STREAM_STRIDE)
        (_, acc), = fold_checkpoints(grid_out, batches, schedule)
        half = 64
        try:
            cmap = coherence_map(acc)
            fwhm0 = half_width(_axis_cut(cmap, ref_index, 0, half))
            fwhm1 = half_width(_axis_cut(cmap, ref_index, 1, half))
        except (DegeneratePatternError, NoPeakError) as exc:  # the means underflowed, or no peak
            raise type(exc)(f"phi={phi:.6g} m: coherence map: {exc}") from None
        out.append(
            SpecklePoint(
                phi=phi,
                n=config.speckle_n,
                l_c=coherence_length(lam, z, phi),
                fwhm_axis0=fwhm0,
                fwhm_axis1=fwhm1,
                ref_index=ref_index,
                snapshot=snapshot,
                coherence=cmap,
            )
        )
    return out


def record_header_for(config: ExperimentConfig) -> RecordHeader:
    """The header of a run's records: every header field the config shares,
    the detector origin and pitch of its grid, and no records yet."""
    det = config.detector_grid()
    shared = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(RecordHeader) if f.name in _CONFIG_FIELDS
    }
    return RecordHeader(**{
        **shared,
        "n_records": 0,
        "detector_pitch": det.pitch[0],
        "detector_origin": det.origin[0],
    })


def replay_converge(config: ExperimentConfig, records_path) -> ConvergenceResult:
    """Recompute the convergence outputs from stored records, bitwise.

    The stored intensities are streamed, one batch in memory at a time, and
    folded with the same batch boundaries the live run used, so every
    accumulator state, pattern and error matches the live run to the last
    bit.  Version 1 files did not store the batch, so their batch is not
    checked: they replay bitwise only under the live run's batch.  A file
    left by a run that never closed its writer (``UnfinishedHeader``) replays
    its whole rows, with a note naming their count.
    """
    header = open_records(records_path)
    expect = record_header_for(config)
    unchecked = {"n_records"} | ({"batch"} if header.batch is None else set())
    mismatched = [
        f.name for f in dataclasses.fields(RecordHeader)
        if f.name not in unchecked and getattr(header, f.name) != getattr(expect, f.name)
    ]
    if mismatched:
        raise RecordFormatError(
            f"records were made with a different configuration: {mismatched}"
        )
    total = config.schedule[-1]
    held = f"{header.n_records} records"
    notes = ()
    if isinstance(header, UnfinishedHeader):
        held = f"{header.n_records} whole records of an unfinished run"
        notes = (f"{records_path} is unfinished (its header counts 0 records): "
                 f"replaying its {header.n_records} whole records",)
    if header.n_records < total:
        raise RecordFormatError(f"schedule needs {total} records, file holds {held}")
    pipe = GhostPipeline.from_config(config)
    bounds = batch_bounds(total, config.schedule, config.batch)
    batches = read_batches(records_path, header.detector_points, bounds)
    return _convergence_result(
        pipe, fold_checkpoints(pipe.detector_grid, batches, config.schedule),
        stream=header.version, notes=notes,
    )
