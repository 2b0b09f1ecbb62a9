"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Physical layout is inconsistent (aperture exceeds grid, d != d1 + d2, ...)."""


class GridMismatchError(ValueError):
    """Two objects that must share a sampling grid do not."""


class InsufficientSamplesError(ValueError):
    """An estimate was requested from fewer than two realizations."""


class DegeneratePatternError(ValueError):
    """A constant pattern cannot be normalized to unit range."""


class BatchRangeError(ValueError):
    """A batch of intensities is negative or not finite, or its sums overflow."""


class NoPeakError(ValueError):
    """Half-width search found no interior maximum or no half crossings."""


class RecordFormatError(ValueError):
    """An offline record file is corrupt, truncated, or from an unknown version."""


class ConfigError(ValueError):
    """An experiment configuration file or value is invalid."""
