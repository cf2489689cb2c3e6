"""Exception types raised across the package.

Everything derives from SplitLabError so callers can catch the whole
family at once.  The bound-related errors (ScanBoundExceeded,
FactorBoundExceeded, IterationBoundExceeded, FactorSearchExceeded) signal
that a computation was refused because it would exceed a configured
resource limit, not that the inputs were invalid.
"""

from __future__ import annotations


class SplitLabError(Exception):
    """Base class for all errors raised by splitlab."""


class BadArgs(SplitLabError):
    """An argument is outside the documented domain."""


class NotPrime(BadArgs):
    """The given characteristic is not prime (or not a prime power)."""


class SizeExceeded(BadArgs):
    """A requested field size does not fit below 2**63."""


class NotIrreducible(BadArgs):
    """A polynomial required to be irreducible is not."""


class NotMonic(BadArgs):
    """A polynomial required to be monic is not."""


class ContextMismatch(BadArgs):
    """Operands belong to different field contexts."""


class DivisionByZero(SplitLabError):
    """Division or inversion of a zero field element."""


class ZeroElement(BadArgs):
    """A nonzero element is required (e.g. for a multiplicative order)."""


class ZeroBasePoint(BadArgs):
    """The pointed count requires a nonzero base point."""


class BothZero(BadArgs):
    """gcd(0, 0) is undefined."""


class DegreeZero(BadArgs):
    """A polynomial of positive degree is required."""


class BoundOrder(BadArgs):
    """Arguments violate a required ordering (e.g. N1 >= N2)."""


class NotSquare(BadArgs):
    """A square matrix is required."""


class Singular(SplitLabError):
    """An invertible matrix is required."""


class DimensionMismatch(BadArgs):
    """Matrix or subspace dimensions do not fit the operation."""


class ShapeMismatch(BadArgs):
    """A recurrence state does not match the recurrence shape."""


class SingularMoebius(BadArgs):
    """The 2x2 coefficient matrix of a Moebius transform is singular."""


class ZeroDenominator(SplitLabError):
    """The denominator of a Moebius transform evaluated to zero."""


class UnknownStatement(BadArgs):
    """An unknown statement id was passed to the verifier."""


class IoError(SplitLabError):
    """A report destination could not be written."""


class ScanBoundExceeded(SplitLabError):
    """An exhaustive scan would exceed the configured candidate bound."""


class FactorBoundExceeded(SplitLabError):
    """Trial division reached the scan bound with a cofactor it cannot
    prove prime."""


class FactorSearchExceeded(SplitLabError):
    """Exhaustive polynomial factor search would exceed the scan bound."""


class IterationBoundExceeded(SplitLabError):
    """A sequence iteration would exceed the configured state bound."""
