"""Experiment pipelines: correlation reconstruction runs and speckle surveys.

The per-realization pipeline is collapsed before the Monte Carlo loop.  With
K1 the source-to-object matrix, t the transmittance, k2 the object-to-point
quadrature weights and K the source-to-detector matrix, each realization E
needs only

    i1 = |(k2 * t) @ K1 @ E|^2 = |v @ E|^2        (scalar arm)
    i2 = |K @ E|^2                                 (reference arm)

so a batch of realizations is two complex GEMMs.  Source pixels outside the
aperture are always zero, so v and K keep only the in-aperture columns and
the draw produces only those pixels.  Batch boundaries are fixed
by (schedule, batch size) alone and batch sums are folded into one master
accumulator in canonical order, which makes every emitted number independent
of the worker count; workers only decide which thread computes a batch.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

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
from .errors import ConfigError, RecordFormatError
from .fields import RealPattern, SourceSpec, draw_source_block
from .fields import draw_source_samples  # noqa: F401  (perfbench/tracing.py wraps it here)
from .grids import Grid
from .objects import double_slit, load_mask, reference_double_slit, reference_from_mask
from .propagation import (
    fft_output_grid,
    fresnel_kernel,
    point_weights,
    validate_sampling,
)
from .records import RecordHeader, RecordWriter, open_records

_STREAM_STRIDE = 1 << 40  # realization-index block reserved per sweep entry


@dataclass(eq=False)
class GhostPipeline:
    """Precomputed operators for one geometry: build once, run millions."""

    config: ExperimentConfig
    source_spec: SourceSpec
    detector_grid: Grid
    test_weights: np.ndarray  # v on the in-aperture pixels, shape (n_in,)
    ref_matrix: np.ndarray  # K on the in-aperture pixels, shape (P, n_in)
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
        to_object = fresnel_kernel(source, obj, config.d1, config.wavelength)
        to_detector = fresnel_kernel(source, det, config.d, config.wavelength)
        k2 = point_weights(obj, 0.0, config.d2, config.wavelength)
        inside = spec.aperture_indices
        v = ((k2 * mask.samples) @ to_object.matrix)[inside]
        notes = tuple(
            f"{label}: {msg}"
            for label, kern in (("test arm", to_object), ("reference arm", to_detector))
            for msg in validate_sampling(kern)
        )
        return cls(
            config=config,
            source_spec=spec,
            detector_grid=det,
            test_weights=v,
            ref_matrix=to_detector.matrix[:, inside],
            reference=reference,
            sampling_notes=notes,
        )

    def batch_intensities(
        self, start: int, stop: int, index_base: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intensity pairs for realization indices [start, stop).

        Returns i1 with shape (B,) and i2 with shape (B, P), both C-ordered;
        replaying the same numbers from disk folds bitwise identically.
        """
        block = draw_source_block(
            self.source_spec, self.config.seed, index_base + start, stop - start
        )
        a1 = block @ self.test_weights
        i1 = a1.real * a1.real + a1.imag * a1.imag
        a2 = block @ self.ref_matrix.T
        i2 = a2.real * a2.real + a2.imag * a2.imag
        return i1, i2

    def run_realization(self, realization_index: int) -> tuple[float, RealPattern]:
        """One full pass of the two-arm pipeline for a single realization."""
        i1, i2 = self.batch_intensities(realization_index, realization_index + 1)
        return float(i1[0]), RealPattern(self.detector_grid, i2[0])

    def asymptotic_pattern(self) -> RealPattern:
        """Exact infinite-N covariance pattern.

        For the circular-Gaussian source the covariance of (i1, i2) equals
        |2 sigma2 * sum_p v_p conj(K[q,p])|^2 over in-aperture pixels p, so
        the Monte Carlo limit is available in closed form for calibration.
        """
        gamma = (2.0 * self.config.sigma2) * (self.ref_matrix.conj() @ self.test_weights)
        return RealPattern(self.detector_grid, gamma.real**2 + gamma.imag**2)

    def asymptotic_means(self) -> tuple[float, np.ndarray]:
        """Exact infinite-N mean intensities (scalar arm, reference arm)."""
        scale = 2.0 * self.config.sigma2
        m1 = scale * float(np.sum(np.abs(self.test_weights) ** 2))
        m2 = scale * np.sum(np.abs(self.ref_matrix) ** 2, axis=1)
        return m1, m2


def batch_bounds(total: int, schedule, batch: int) -> list[tuple[int, int]]:
    """Fixed batch boundaries: every multiple of ``batch`` plus every checkpoint.

    Determined by the run configuration alone, never by the worker count, so
    the canonical fold order is the same for 1 worker, 8 workers, or replay.
    """
    cuts = sorted(
        {n for n in schedule if n <= total}
        | set(range(batch, total, batch))
        | {total}
    )
    return list(zip([0] + cuts[:-1], cuts))


def iter_checkpoints(
    pipeline: GhostPipeline,
    schedule,
    *,
    workers: int = 1,
    index_base: int = 0,
    record_writer: RecordWriter | None = None,
) -> Iterator[tuple[int, CorrelationAccumulator]]:
    """Run the Monte Carlo and yield an accumulator snapshot at each checkpoint.

    Lazy: abandoning the iterator after a checkpoint stops the run with only
    the already-submitted window of batches completed.
    """
    schedule = tuple(int(n) for n in schedule)
    total = schedule[-1]
    bounds = batch_bounds(total, schedule, pipeline.config.batch)
    marks = set(schedule)
    acc = CorrelationAccumulator(pipeline.detector_grid)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        next_bound = 0

        def submit_up_to(limit: int) -> None:
            nonlocal next_bound
            while next_bound < len(bounds) and len(pending) < limit:
                a, b = bounds[next_bound]
                pending.append(pool.submit(pipeline.batch_intensities, a, b, index_base))
                next_bound += 1

        submit_up_to(workers + 2)
        while pending:
            i1, i2 = pending.popleft().result()
            submit_up_to(workers + 2)
            if record_writer is not None:
                record_writer.append(i1, i2)
            acc.fold_batch(i1, i2)
            if acc.count in marks:
                yield acc.count, acc.copy()


@dataclass(frozen=True)
class ConvergenceResult:
    """Error curve plus normalized reconstruction snapshots per checkpoint."""

    curve: tuple[CurvePoint, ...]
    snapshots: tuple[tuple[int, RealPattern], ...]
    reference: RealPattern  # normalized over the comparison window
    sampling_notes: tuple[str, ...]


def _checkpoint_errors(pipeline: GhostPipeline, acc: CorrelationAccumulator):
    window = pipeline.config.window
    g = acc.finalize()
    eps = pattern_errors(g, pipeline.reference, window)
    return g, eps


def run_converge(config: ExperimentConfig, record_writer: RecordWriter | None = None,
                 pipeline: GhostPipeline | None = None) -> ConvergenceResult:
    """Single-aperture run over the whole schedule with pattern snapshots."""
    pipe = pipeline if pipeline is not None else GhostPipeline.from_config(config)
    window = config.window
    curve: list[CurvePoint] = []
    snaps: list[tuple[int, RealPattern]] = []
    for n, acc in iter_checkpoints(
        pipe, config.schedule, workers=config.workers, record_writer=record_writer
    ):
        g, (eps_g, eps_l, eps_h) = _checkpoint_errors(pipe, acc)
        curve.append(CurvePoint(n, eps_g, eps_l, eps_h))
        snaps.append((n, normalize_unit(g, window)))
    return ConvergenceResult(
        curve=tuple(curve),
        snapshots=tuple(snaps),
        reference=normalize_unit(pipe.reference, window),
        sampling_notes=pipe.sampling_notes,
    )


@dataclass(frozen=True)
class KappaPoint:
    """Threshold search outcome for one aperture diameter."""

    phi: float
    kappa: float
    search: ThresholdSearch


def _search_runner(pipe: GhostPipeline, workers: int, index_base: int):
    def runner(schedule):
        for _, acc in iter_checkpoints(
            pipe, schedule, workers=workers, index_base=index_base
        ):
            _, (eps_g, eps_l, eps_h) = _checkpoint_errors(pipe, acc)
            yield CurvePoint(acc.count, eps_g, eps_l, eps_h)

    return runner


def run_threshold(config: ExperimentConfig, *, index_base: int = 0) -> ThresholdSearch:
    """Threshold search for a single aperture; config.phi is the aperture."""
    pipe = GhostPipeline.from_config(config)
    return min_n_to_threshold(
        _search_runner(pipe, config.workers, index_base),
        config.tau,
        config.schedule,
        n_max=config.n_max,
    )


def run_kappa_sweep(config: ExperimentConfig) -> list[KappaPoint]:
    """Minimal-N search per aperture in phi_list; independent streams per entry."""
    if config.phi_list is None or len(config.phi_list) < 2:
        raise ConfigError("sweep requires phi_list with at least two apertures")
    out: list[KappaPoint] = []
    for i, phi in enumerate(config.phi_list):
        cfg = config.replace(phi=phi)
        pipe = GhostPipeline.from_config(cfg)
        l_c = coherence_length(cfg.wavelength, cfg.d1, phi)
        search = min_n_to_threshold(
            _search_runner(pipe, cfg.workers, i * _STREAM_STRIDE),
            cfg.tau,
            cfg.schedule,
            n_max=cfg.n_max,
        )
        out.append(KappaPoint(phi=phi, kappa=kappa(cfg.slit_width, l_c), search=search))
    return out


@dataclass(frozen=True)
class BandRow:
    """Band-resolved errors at the crossing checkpoint (or at budget)."""

    phi: float
    kappa: float
    n: int
    reached: bool
    eps_global: float
    eps_low: float
    eps_high: float


def bands_from_sweep(points: list[KappaPoint]) -> list[BandRow]:
    rows = []
    for p in points:
        s = p.search
        if s.reached:
            at = next(c for c in s.curve if c.n == s.n_star)
        else:
            at = s.curve[-1]
        rows.append(
            BandRow(
                phi=p.phi, kappa=p.kappa, n=at.n, reached=s.reached,
                eps_global=at.eps_global, eps_low=at.eps_low, eps_high=at.eps_high,
            )
        )
    return rows


def run_bands(config: ExperimentConfig) -> list[BandRow]:
    """Low/high-band errors at the checkpoint where the global error crosses tau."""
    return bands_from_sweep(run_kappa_sweep(config))


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
    """Instantaneous speckle and coherence maps at the speckle-plane distance.

    For each aperture: N realizations are propagated on the 2D grid, the
    scalar channel is the intensity at the pixel nearest the axis, and the
    normalized covariance against that pixel estimates the squared coherence
    factor, whose width is compared to wavelength * distance / aperture.
    """
    grid_in = config.speckle_grid()
    lam = config.wavelength
    z = config.speckle_distance
    grid_out = fft_output_grid(grid_in, z, lam)
    kern = fresnel_kernel(grid_in, grid_out, z, lam)
    ref_index = (grid_out.index_of(0.0, 0), grid_out.index_of(0.0, 1))
    m = config.speckle_points
    per_batch = max(1, 4_194_304 // (m * m))
    out: list[SpecklePoint] = []
    for k, phi in enumerate(config.speckle_phi_list):
        spec = SourceSpec(grid_in, phi, config.sigma2)
        acc = CorrelationAccumulator(grid_out)
        index_base = k * _STREAM_STRIDE
        snapshot: RealPattern | None = None
        done = 0
        while done < config.speckle_n:
            count = min(per_batch, config.speckle_n - done)
            fields = np.zeros((count, m * m), dtype=np.complex128)
            fields[:, spec.aperture_indices] = draw_source_block(
                spec, config.seed, index_base + done, count
            )
            amps = kern.apply(fields.reshape(count, m, m))
            i2 = amps.real * amps.real + amps.imag * amps.imag
            if snapshot is None:
                snapshot = RealPattern(grid_out, i2[0].copy())
            i1 = np.ascontiguousarray(i2[:, ref_index[0], ref_index[1]])
            acc.fold_batch(i1, i2)
            done += count
        cmap = coherence_map(acc)
        half = 64
        fwhm0 = half_width(_axis_cut(cmap, ref_index, 0, half))
        fwhm1 = half_width(_axis_cut(cmap, ref_index, 1, half))
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
    det = config.detector_grid()
    return RecordHeader(
        n_records=0,
        detector_points=config.detector_points,
        detector_pitch=det.pitch[0],
        detector_origin=det.origin[0],
        wavelength=config.wavelength,
        d1=config.d1,
        d2=config.d2,
        d=config.d,
        seed=config.seed,
        sigma2=config.sigma2,
        phi=config.phi,
        batch=config.batch,
    )


def replay_converge(config: ExperimentConfig, records_path) -> ConvergenceResult:
    """Recompute the convergence outputs from stored records, bitwise.

    The stored intensities are folded with the same batch boundaries the live
    run used, so every accumulator state, pattern and error matches the live
    run to the last bit.  Version 1 files did not store the batch, so their
    batch is not checked: they replay bitwise only under the live run's batch.
    """
    header, body = open_records(records_path)
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
    window = config.window
    acc = CorrelationAccumulator(pipe.detector_grid)
    marks = set(config.schedule)
    curve: list[CurvePoint] = []
    snaps: list[tuple[int, RealPattern]] = []
    for a, b in batch_bounds(total, config.schedule, config.batch):
        block = np.asarray(body[a:b])
        i1 = np.ascontiguousarray(block[:, 0])
        i2 = np.ascontiguousarray(block[:, 1:])
        acc.fold_batch(i1, i2)
        if acc.count in marks:
            g, (eps_g, eps_l, eps_h) = _checkpoint_errors(pipe, acc)
            curve.append(CurvePoint(acc.count, eps_g, eps_l, eps_h))
            snaps.append((acc.count, normalize_unit(g, window)))
    return ConvergenceResult(
        curve=tuple(curve),
        snapshots=tuple(snaps),
        reference=normalize_unit(pipe.reference, window),
        sampling_notes=pipe.sampling_notes,
    )
