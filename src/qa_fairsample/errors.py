"""Exception types shared across the package."""


class FairSamplingError(Exception):
    """Base class for all package-specific errors."""


class ModelTooLargeError(FairSamplingError):
    """Work refused up front: too many spins, too large a ground manifold, or an
    integration over the amplitude-step budget (rows and Taylor loops)."""


class EmbeddingError(FairSamplingError):
    """Embedding data is structurally invalid or inconsistent with its model."""


class IntegrationAccuracyError(FairSamplingError):
    """Norm drift or step-doubling error estimate exceeded the accuracy budget."""


class UndefinedRatioError(FairSamplingError):
    """Fairness ratio is 0/0: both partition sets carry zero probability."""
