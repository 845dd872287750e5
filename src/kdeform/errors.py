"""Exceptions shared across the package."""


class ContextMismatchError(ValueError):
    """Two algebra elements from incompatible contexts were combined."""


class NonInvertibleError(ZeroDivisionError):
    """Series inversion was requested for a series with no constant term."""


class DegenerateMetricError(ValueError):
    """The bilinear form is not invertible over the rationals."""


class InvalidVectorError(ValueError):
    """The deforming vector does not satisfy the preconditions of the operation."""


class BasisError(ValueError):
    """A basis-dependent operation was called on a context in the wrong basis."""


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagreed; indicates a defect, not bad input."""
