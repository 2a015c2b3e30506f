"""Exception types shared across the package."""


class QuasifoldError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QuasifoldError):
    """Operands live in different dimensions."""


class PrecisionInsufficientError(QuasifoldError):
    """A numeric comparison fell inside the witness safety margin while the
    exact coefficients differ; raising is the honest outcome."""


class EnumerationCapError(QuasifoldError):
    """A requested enumeration bound exceeds the configured hard cap."""


class NotComposableError(QuasifoldError):
    """Arrow composition requested with mismatched endpoints."""


class InconsistentTransitionError(QuasifoldError):
    """A declared transition failed its consistency spot-check."""


class MixedCoefficientKindError(QuasifoldError):
    """Algebra operation mixing incompatible coefficient kinds or models."""


class SupportEscapesSubgroupError(QuasifoldError):
    """An element's support leaves the finite subgroup required here."""


class DegenerateSampleError(QuasifoldError):
    """Sample configuration too degenerate for reconstruction."""


class FibersIncompatibleError(QuasifoldError):
    """Certified: the requested endpoints lie over different quasifold points."""


class InconclusiveAtBoundError(QuasifoldError):
    """The bounded search ended without a certificate either way."""
