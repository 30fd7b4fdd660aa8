"""Exception types raised across the package: one class per kind of fault."""


class CvBiasError(Exception):
    """Base class for all cvbias errors."""


class InvalidParameter(CvBiasError, ValueError):
    """A parameter lies outside its admissible domain."""


class TooFewObservations(CvBiasError, ValueError):
    """Fewer rows, draws, tail exceedances, models or differences than an
    estimate needs."""


class ShapeMismatch(CvBiasError, ValueError):
    """Arrays handed to a library call disagree in shape or ordering."""


class SchemaMismatch(CvBiasError, ValueError):
    """Input files' columns, names or sizes disagree."""


class NonFiniteInput(CvBiasError, ValueError):
    """Input data contain NaN or infinite entries, or overflow when squared."""


class UnreadableInput(CvBiasError, ValueError):
    """Input file could not be read or parsed."""


class ConfigError(CvBiasError, ValueError):
    """Experiment config file is missing or malformed."""
