"""Exception types shared across the package."""


class FairSamplingError(Exception):
    """Base class for all package-specific errors."""


class ModelTooLargeError(FairSamplingError):
    """Spin count exceeds the exhaustive-enumeration guard."""


class EmbeddingError(FairSamplingError):
    """Embedding data is structurally invalid or inconsistent with its model."""


class IntegrationAccuracyError(FairSamplingError):
    """Norm drift or step-doubling error estimate exceeded the accuracy budget.

    The completed (renormalized) result is attached so callers that only
    need a diagnostic can still inspect it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class UndefinedRatioError(FairSamplingError):
    """Fairness ratio is 0/0: both partition sets carry zero probability."""
