"""Exception hierarchy shared by all modules."""


class RadonError(Exception):
    """Base class for every error raised by this package."""


class InputError(RadonError):
    """Bad user-supplied data: files, schemas, parse failures, invalid specs."""


class ParseError(InputError, ValueError):
    """Syntax error in an element or braid expression, with a position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotInField(InputError):
    """A literal that cannot be interpreted in the requested field."""


class FieldMismatch(RadonError):
    """Operands belong to different coefficient fields."""


class DivisionByZero(RadonError, ZeroDivisionError):
    """Division by the zero element."""


class AmbientMismatch(RadonError):
    """Subspaces of different ambient dimension were combined."""


class Singular(RadonError):
    """Matrix inversion of a singular matrix."""


class ShapeMismatch(RadonError):
    """Incompatible matrix or tuple shapes."""


class StrandOutOfRange(InputError):
    """Braid letter outside the generator range of the braid group."""


class ProductNotIdentity(InputError):
    """A monodromy tuple whose ordered product is not the identity."""


class NonInvertibleGenerator(InputError):
    """A group generator that is not invertible."""


class CapExceeded(RadonError):
    """Group enumeration exceeded the configured element cap."""


class BadPrime(InputError):
    """A modular prime incompatible with the field or the generators."""


class OrderDisagreement(RadonError):
    """Modular group orders disagree between the supplied primes."""


class ZeroSeed(RadonError):
    """spin() was seeded with the zero vector."""
