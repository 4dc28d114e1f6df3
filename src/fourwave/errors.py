"""Exception types shared across the package, and the checks that raise them:
a parameter or setting outside its domain is a DomainError naming its field."""

import numpy as np


class FourwaveError(Exception):
    """Base class for all package errors."""


class DimensionError(FourwaveError, ValueError):
    """Matrix arguments have incompatible or non-square shapes."""


class NumericError(FourwaveError, ArithmeticError):
    """A kernel produced overflow or non-finite intermediate results."""


class DegenerateModelError(FourwaveError, ValueError):
    """Model parameters make the requested quantity undefined."""


class PoleError(FourwaveError, ArithmeticError):
    """A frequency point sits on (or too close to) a Raman resonance pole.

    Carries the offending analysis frequency in ``omega``.
    """

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class DomainError(FourwaveError, ValueError):
    """Scalar argument outside the mathematical domain of the formula.

    The error of a parameter check carries the ``field`` it checks, the
    ``rule`` that field breaks ("must be >= 0"), the offending ``value`` and,
    for a rule that compares with a second field, that field's name in
    ``other``.  Each is None where it does not apply.
    """

    def __init__(self, message, field=None, rule=None, value=None, other=None):
        super().__init__(message)
        self.field, self.rule, self.value, self.other = field, rule, value, other


class NormalizationError(FourwaveError, ArithmeticError):
    """A noise normalization reference vanished or is inconsistent."""


class CalibrationError(FourwaveError, ArithmeticError):
    """The commutator-preservation calibration has no positive solution."""


class RangeWarning(UserWarning):
    """Empirical formula evaluated outside its fitted validity range."""


def first(value, bad):
    """The first entry of ``value`` (broadcast to the mask) where ``bad``."""
    return np.broadcast_to(value, np.shape(bad))[bad][0]


def require(ok, owner: str, field: str, rule: str, value):
    """Raise DomainError("owner: field rule, got v"), which carries field,
    rule and v, for the first v of ``value`` not ``ok``."""
    if not (ok := np.asarray(ok)).all():
        v = first(value, ~ok)
        raise DomainError(f"{owner}: {field} {rule}, got {v}", field, rule, v)
