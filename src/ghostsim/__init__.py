"""Monte Carlo statistical optics for pseudo-thermal ghost interference.

The package simulates a chaotic (pseudo-thermal) source split into a test arm
holding a transmission object read by a fixed point detector and an
object-free reference arm read by a pixelated detector, reconstructs the
object's far pattern from intensity correlations, and quantifies how the
reconstruction converges with the number of source realizations.
"""

from .analysis import (
    CurvePoint,
    ThresholdSearch,
    banded_errors,
    coherence_length,
    half_width,
    kappa,
    local_maxima,
    min_n_to_threshold,
    normalize_unit,
    pattern_errors,
    peak_position,
    split_bands,
)
from .config import (
    ExperimentConfig,
    config_from_values,
    dump_config,
    load_config,
    parse_config_text,
)
from .correlation import CorrelationAccumulator, coherence_map
from .errors import (
    BatchRangeError,
    ConfigError,
    DegeneratePatternError,
    GeometryError,
    GridMismatchError,
    InsufficientSamplesError,
    NoPeakError,
    RecordFormatError,
    Refusal,
)
from .experiments import (
    ConvergenceResult,
    GhostPipeline,
    KappaPoint,
    SpecklePoint,
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
from .fields import (
    ComplexField,
    RealPattern,
    RngStream,
    SourceSpec,
    intensity,
    sample_source,
)
from .grids import Grid, make_grid
from .objects import (
    TransmissionMask,
    apply_mask,
    double_slit,
    load_mask,
    reference_double_slit,
    reference_from_mask,
)
from .propagation import (
    PropagationKernel,
    fft_chirp,
    fft_output_grid,
    fft_output_pitch,
    fresnel_kernel,
    propagate,
    propagate_to_point,
    validate_sampling,
)
from .records import RecordHeader, RecordWriter, open_records, read_batches

__version__ = "0.1.0"
