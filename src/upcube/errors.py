"""Exception types shared across the package."""


class UpcubeError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatch(UpcubeError):
    """Two families of different ambient dimension were combined."""


class NotUpwardClosed(UpcubeError):
    """An operation requiring an upward closed input received one that is not."""


class OutOfRange(UpcubeError):
    """A dimension, element index or bit vector is outside its legal range."""


class InvalidBias(UpcubeError):
    """A bias parameter is outside its legal interval."""


class InvalidParams(UpcubeError):
    """Construction or objective parameters violate their constraints."""


class TooLarge(UpcubeError):
    """An enumeration or search was requested beyond its size cap."""


class DimensionOverflow(UpcubeError):
    """A lift would produce a cube larger than the supported maximum."""


class TargetUnreachable(UpcubeError):
    """A top-up target count lies outside the attainable range."""


class ClosureViolation(UpcubeError):
    """A top-up pool breaks the closure preconditions."""


class InvalidDensity(UpcubeError):
    """A target density does not correspond to an integer count."""


class InvalidRho(UpcubeError):
    """A common-density parameter is outside its legal interval."""


class InvalidTolerance(UpcubeError):
    """A tolerance must be strictly positive."""


class UpsetFormatError(UpcubeError):
    """A .upset file is malformed."""


class ScoreMismatch(UpcubeError):
    """A hill climb's running score disagrees with a full rescore."""


class InvariantViolation(UpcubeError):
    """A computed result breaks an identity it must satisfy by construction."""
