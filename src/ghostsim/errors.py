"""Exception types shared across the package.

An error that bad input causes is a ``Refusal``.  The command line reports
one, or an ``OSError``, as a single ``error:`` line and exit status 2, and
lets any other error through as a traceback: ``GridMismatchError`` and
``InsufficientSamplesError`` mean a fault of the program, not of its input.
"""


class Refusal(ValueError):
    """Bad input: a configuration, file or draw the package will not use."""


class GeometryError(Refusal):
    """Physical layout is inconsistent (an aperture past its grid, a slit off its grid, ...)."""


class GridMismatchError(ValueError):
    """Two objects that must share a sampling grid do not."""


class InsufficientSamplesError(ValueError):
    """An estimate was requested from fewer than two realizations."""


class DegeneratePatternError(Refusal):
    """A constant pattern cannot be normalized to unit range."""


class BatchRangeError(Refusal):
    """A batch of intensities is negative or not finite, or its sums overflow."""


class NoPeakError(Refusal):
    """Half-width search found no interior maximum or no half crossings."""


class RecordFormatError(Refusal):
    """An offline record file is corrupt, truncated, or from an unknown version."""


class ConfigError(Refusal):
    """An experiment configuration file or value is invalid."""
