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
a batch of realizations is one complex GEMM to the nodes and one real GEMM
from them.

Every run is one fold: ``fold_checkpoints`` folds batches cut by
``batch_bounds`` (fixed by the schedule and the batch size alone) in index
order into one accumulator on the calling thread, records each batch it
accepts, and hands the accumulator out at each scheduled N to be scored.
Live runs, replay, threshold search and speckle differ only in where the
batches come from.  Live runs and speckle share one producer,
``_live_batches``, which overlaps two batches, and both threads draw every
source block: one worker thread computes the intensities of batch k and then
claims rows of block k + 1 from the tail of one deque, the calling thread
from its head; the calling thread then folds, records and scores batch k.
Every row comes from its own re-keyed stream, so which thread draws it,
which varies from run to run, changes no number.  Nothing is drawn ahead
past a checkpoint, and the numbers, and their order, do not change.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .analysis import (
    CurvePoint,
    ThresholdSearch,
    coherence_length,
    half_width,
    kappa,
    min_n_to_threshold,
    normalize_unit,
    pattern_errors,
)
from .config import ExperimentConfig
from .correlation import CorrelationAccumulator, coherence_map
from .errors import ConfigError, DegeneratePatternError, NoPeakError, RecordFormatError
from .fields import STREAM_VERSION, RealPattern, SourceSpec, draw_source_block
from .fields import draw_source_samples  # noqa: F401  (perfbench/tracing.py wraps it here)
from .grids import Grid
from .objects import double_slit, load_mask, reference_double_slit, reference_from_mask
from .propagation import (
    chebyshev_factors,
    fft_chirp,
    fft_output_grid,
    fresnel_matrix,
    point_weights,
    validate_sampling,
)
from .propagation import fresnel_kernel  # noqa: F401  (perfbench/tracing.py wraps it here)
from .records import RecordHeader, RecordWriter, open_records, read_batches

_STREAM_STRIDE = 1 << 40  # realization-index block reserved per sweep entry
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


@dataclass(eq=False)
class GhostPipeline:
    """Precomputed operators for one geometry: build once, run millions."""

    config: ExperimentConfig
    source_spec: SourceSpec
    detector_grid: Grid
    test_weights: np.ndarray  # v on the in-aperture pixels, shape (n_in,)
    ref_nodes: np.ndarray  # K from the in-aperture pixels to m nodes, shape (n_in, m)
    ref_interp: np.ndarray  # real interpolation from the nodes, shape (m, P)
    reference: RealPattern
    sampling_notes: tuple[str, ...]

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "GhostPipeline":
        source = config.source_grid()
        obj = config.object_grid()
        det = config.detector_grid()
        spec = SourceSpec(source, config.phi, config.sigma2)
        if config.mask_file is not None:
            mask = load_mask(config.mask_file, obj)
            reference = reference_from_mask(mask, config.wavelength, config.d2, det)
        else:
            mask = double_slit(config.slit_width, config.slit_separation, obj)
            reference = reference_double_slit(
                config.slit_width, config.slit_separation,
                config.wavelength, config.d2, det,
            )
        lam = config.wavelength
        x = source.coords(0)[spec.aperture_indices]
        # only the object pixels the point detector sees through the mask
        seen = point_weights(obj, 0.0, config.d2, lam) * mask.samples
        rows = np.flatnonzero(seen)
        v = seen[rows] @ fresnel_matrix(x, obj.coords(0)[rows], config.d1, lam, source.pitch[0])
        to_nodes, interp = chebyshev_factors(x, det.coords(0), config.d, lam, source.pitch[0])
        notes = tuple(
            f"{label}: {msg}"
            for label, grid, z in (("test arm", obj, config.d1), ("reference arm", det, config.d))
            for msg in validate_sampling(source, grid, z, lam)
        )
        return cls(
            config=config,
            source_spec=spec,
            detector_grid=det,
            test_weights=v,
            ref_nodes=to_nodes.T,
            ref_interp=interp.T,
            reference=reference,
            sampling_notes=notes,
        )

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
        """
        b = len(block)
        rows = np.empty((b, 1 + self.detector_grid.npoints))
        i1, i2 = rows[:, 0], rows[:, 1:]
        a1 = block @ self.test_weights
        np.add(a1.real * a1.real, a1.imag * a1.imag, out=i1)
        z = block @ self.ref_nodes
        # the real and imaginary parts stacked, (2B, m), through one real GEMM
        a2 = np.concatenate((z.real, z.imag)) @ self.ref_interp
        # re*re + im*im, rounded as that expression, with one temporary fewer
        np.multiply(a2, a2, out=a2)
        np.add(a2[:b], a2[b:], out=i2)
        return i1, i2

    def unit_reference(self) -> RealPattern:
        """The reference normalized over the comparison window; a flat one
        (an opaque mask) leaves nothing to reconstruct and is refused."""
        try:
            return normalize_unit(self.reference, self.config.window)
        except DegeneratePatternError:
            raise ConfigError("the reference pattern is flat over the comparison "
                              "window (an opaque mask?): nothing to reconstruct") from None

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


def batch_bounds(total: int, schedule, batch: int) -> list[tuple[int, int]]:
    """Fixed batch boundaries: every multiple of ``batch`` plus every checkpoint.

    Determined by the run configuration alone, so live runs and replay fold
    the same batches in the same order.
    """
    cuts = sorted(
        {n for n in schedule if n <= total}
        | set(range(batch, total, batch))
        | {total}
    )
    return list(zip([0] + cuts[:-1], cuts))


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
    for.  The worker computes the intensities of batch k and then claims rows
    of block k + 1, while the calling thread claims them from the first on;
    it then waits for the worker and hands batch k to the fold, which also
    records it: this producer only produces.  After a batch that ends at a
    mark nothing is drawn ahead: both threads draw the next block when the
    fold pulls it, so a search that stops at a mark draws nothing it does not
    fold.  Batch k + 1 is computed once the fold pulls it, so ``intensities``
    may reuse its output buffers.
    """
    sizes = [b - a for a, b in bounds]
    blocks = [np.empty((max(sizes), spec.aperture_indices.size), dtype=np.complex128)
              for _ in range(2)]

    def draw(k: int, claim) -> None:
        """Draw the rows of block k that ``claim`` hands out."""
        draw_source_block(spec, seed, index_base + bounds[k][0], sizes[k],
                          out=blocks[k % 2][: sizes[k]], claim=claim)

    def compute(k: int, next_rows: deque | None) -> tuple[np.ndarray, np.ndarray]:
        batch = intensities(blocks[k % 2][: sizes[k]])
        if next_rows is not None:
            draw(k + 1, next_rows.pop)
        return batch

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = False
        for k, (_, b) in enumerate(bounds):
            if not ahead:  # block k was not drawn ahead: both threads draw it now
                rows = deque(range(sizes[k]))
                theirs = worker.submit(draw, k, rows.pop)
                draw(k, rows.popleft)
                theirs.result()
            ahead = b not in marks
            rows = deque(range(sizes[k + 1])) if ahead else None
            pending = worker.submit(compute, k, rows)
            if ahead:
                draw(k + 1, rows.popleft)
            i1, i2 = pending.result()
            del pending  # the Future holds the batch too
            yield i1, i2
            del i1, i2


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
    sampling_notes: tuple[str, ...]
    stream: int = STREAM_VERSION  # source stream of the folded intensities


def _score(pipeline: GhostPipeline, n: int, acc: CorrelationAccumulator):
    """The reconstruction at a checkpoint and its errors against the reference."""
    g = acc.finalize()
    try:  # a flat reference is refused before any draw, so g is flat (G underflows)
        eps = pattern_errors(g, pipeline.reference, pipeline.config.window)
    except DegeneratePatternError:
        raise DegeneratePatternError(f"the reconstruction at N={n} is constant over the "
                                     "comparison window") from None
    return g, CurvePoint(n, *eps)


def _convergence_result(pipeline: GhostPipeline, checkpoints,
                        stream: int = STREAM_VERSION) -> ConvergenceResult:
    window = pipeline.config.window
    reference = pipeline.unit_reference()  # before the first batch is pulled
    curve: list[CurvePoint] = []
    snaps: list[tuple[int, RealPattern]] = []
    for n, acc in checkpoints:
        g, point = _score(pipeline, n, acc)
        curve.append(point)
        snaps.append((n, normalize_unit(g, window)))
    return ConvergenceResult(
        curve=tuple(curve),
        snapshots=tuple(snaps),
        reference=reference,
        sampling_notes=pipeline.sampling_notes,
        stream=stream,
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
    kappa: float
    search: ThresholdSearch
    sampling_notes: tuple[str, ...]  # the notes of this aperture's pipeline


def run_threshold(config: ExperimentConfig, *, index_base: int = 0,
                  pipeline: GhostPipeline | None = None) -> ThresholdSearch:
    """Threshold search for a single aperture; config.phi is the aperture.

    The schedule is cut at n_max, and the fold stops at the first checkpoint
    whose error reaches tau.
    """
    pipe = pipeline if pipeline is not None else GhostPipeline.from_config(config)
    pipe.unit_reference()  # a flat reference is refused before any draw
    schedule = [n for n in config.schedule if config.n_max is None or n <= config.n_max]
    points = (
        _score(pipe, n, acc)[1]
        for n, acc in iter_checkpoints(pipe, schedule, index_base=index_base)
    )
    return min_n_to_threshold(points, config.tau, schedule[-1])


def run_kappa_sweep(config: ExperimentConfig) -> list[KappaPoint]:
    """Minimal-N search per aperture in phi_list; independent streams per entry."""
    if config.phi_list is None or len(config.phi_list) < 2:
        raise ConfigError("sweep requires phi_list with at least two apertures")
    # every pipeline is built, so a too-wide aperture is refused, before any search runs
    pipes = [GhostPipeline.from_config(config.replace(phi=phi)) for phi in config.phi_list]
    out: list[KappaPoint] = []
    for i, pipe in enumerate(pipes):
        cfg = pipe.config
        l_c = coherence_length(cfg.wavelength, cfg.d1, cfg.phi)
        search = run_threshold(cfg, index_base=i * _STREAM_STRIDE, pipeline=pipe)
        out.append(KappaPoint(phi=cfg.phi, kappa=kappa(cfg.slit_width, l_c), search=search,
                              sampling_notes=pipe.sampling_notes))
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
    are needed, so each batch is the compact in-aperture block times its
    entries of ``fft_chirp``, scattered onto the grid, through one ``fft2``
    and |.|^2; the snapshot is the first realization.
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
    schedule = (config.speckle_n,)
    bounds = batch_bounds(config.speckle_n, schedule, per_batch)
    out: list[SpecklePoint] = []
    for k, (phi, spec) in enumerate(zip(config.speckle_phi_list, specs)):
        inside = spec.aperture_indices
        weights = chirp[inside]
        # sized by the first, longest batch; only the in-aperture columns are
        # written, so the zeros outside them hold from one batch to the next
        fields = np.zeros((bounds[0][1], m * m), dtype=np.complex128)
        power = np.empty((bounds[0][1], m, m))
        snapshot: RealPattern | None = None

        def intensities(block):
            nonlocal snapshot
            b = len(block)
            block *= weights
            fields[:b, inside] = block
            amps = np.fft.fft2(fields[:b].reshape(b, m, m))
            # re*re + im*im, rounded as the plain expression, into one buffer
            i2 = np.multiply(amps.real, amps.real, out=power[:b])
            i2 += np.multiply(amps.imag, amps.imag, out=amps.imag)
            if snapshot is None:  # before the fold pulls the next batch into power
                snapshot = RealPattern(grid_out, i2[0].copy())
            return i2[:, ref_index[0], ref_index[1]], i2

        batches = _live_batches(spec, config.seed, intensities, bounds, set(schedule),
                                k * _STREAM_STRIDE)
        (_, acc), = fold_checkpoints(grid_out, batches, schedule)
        cmap = coherence_map(acc)
        half = 64
        try:
            fwhm0 = half_width(_axis_cut(cmap, ref_index, 0, half))
            fwhm1 = half_width(_axis_cut(cmap, ref_index, 1, half))
        except NoPeakError as exc:
            raise NoPeakError(f"phi={phi:.6g} m: coherence map: {exc}") from None
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
    checked: they replay bitwise only under the live run's batch.
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
    if header.n_records < total:
        raise RecordFormatError(
            f"schedule needs {total} records, file holds {header.n_records}"
        )
    pipe = GhostPipeline.from_config(config)
    bounds = batch_bounds(total, config.schedule, config.batch)
    batches = read_batches(records_path, header.detector_points, bounds)
    return _convergence_result(
        pipe, fold_checkpoints(pipe.detector_grid, batches, config.schedule),
        stream=header.version,
    )
