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
    """A bias or common-density parameter is outside its legal interval."""


class InvalidParams(UpcubeError):
    """Construction, objective or target parameters violate their constraints."""


class TooLarge(UpcubeError):
    """A cube, enumeration or search was requested beyond its size cap."""


class UpsetFormatError(UpcubeError):
    """A .upset file is malformed."""


class InvariantViolation(UpcubeError):
    """A computed result breaks an identity it must satisfy by construction."""
