"""Exception types raised across the package."""


class CvBiasError(Exception):
    """Base class for all cvbias errors."""


class TooFewTailSamples(CvBiasError, ValueError):
    """Fewer than the minimum tail samples needed for a GPD fit."""


class NonPositiveExceedance(CvBiasError, ValueError):
    """Exceedances passed to the GPD fitter must be strictly positive."""


class TooFewSamples(CvBiasError, ValueError):
    """Sample too small to locate a tail cutoff."""


class TooFewObservations(CvBiasError, ValueError):
    """Not enough observations for the requested estimate."""


class TooFewModels(CvBiasError, ValueError):
    """Not enough models / difference points for the requested operation."""


class ShapeMismatch(CvBiasError, ValueError):
    """Pointwise vectors have incompatible shapes or orderings."""


class EmptyVector(CvBiasError, ValueError):
    """An operation received an empty vector."""


class NonPositiveSE(CvBiasError, ValueError):
    """Standard error must be strictly positive."""


class DimensionMismatch(CvBiasError, ValueError):
    """Predictor vector does not match the fitted dimension."""


class NonFiniteInput(CvBiasError, ValueError):
    """Input data contain NaN or infinite entries, or overflow when squared."""


class DegenerateWeights(CvBiasError, ValueError):
    """Importance weights could not be normalized."""


class EmptyCandidateSet(CvBiasError, ValueError):
    """Forward search has no predictors, or fewer than the steps asked for."""


class SchemaMismatch(CvBiasError, ValueError):
    """Input table does not match the expected schema."""


class UnreadableInput(CvBiasError, ValueError):
    """Input file could not be read or parsed."""


class ConfigError(CvBiasError, ValueError):
    """Experiment config file is missing or malformed."""


class InvalidBlocking(CvBiasError, ValueError):
    """Predictor count is not compatible with the block structure."""


class InvalidParameter(CvBiasError, ValueError):
    """A parameter lies outside its admissible domain."""
