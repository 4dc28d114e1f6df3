"""Exception types shared across the package, and the checks that raise them."""

import numpy as np


class FourwaveError(Exception):
    """Base class for all package errors."""


class DimensionError(FourwaveError, ValueError):
    """Matrix arguments have incompatible or non-square shapes."""


class NumericError(FourwaveError, ArithmeticError):
    """A kernel produced overflow or non-finite intermediate results."""


class ConfigurationError(FourwaveError, ValueError):
    """Invalid numerical settings (node counts, quadrature orders)."""


class DegenerateModelError(FourwaveError, ValueError):
    """Model parameters make the requested quantity undefined."""


class PoleError(FourwaveError, ArithmeticError):
    """A frequency point sits on (or too close to) a Raman resonance pole.

    Carries the offending analysis frequency in ``omega``, the indices along
    the last (velocity node) axis of the poles beside the first one in
    ``nodes`` and, for velocity-averaged quantities, the offending velocities.
    """

    def __init__(self, message, omega=None, velocities=None, nodes=None, index=()):
        super().__init__(message)
        self.omega = omega
        self.velocities = velocities or []
        self.nodes = nodes or []
        self.index = index      # stack index of the first pole


class DomainError(FourwaveError, ValueError):
    """Scalar argument outside the mathematical domain of the formula."""


class NormalizationError(FourwaveError, ArithmeticError):
    """A noise normalization reference vanished or is inconsistent."""


class CalibrationError(FourwaveError, ArithmeticError):
    """The commutator-preservation calibration has no positive solution."""


class RangeWarning(UserWarning):
    """Empirical formula evaluated outside its fitted validity range."""


def first(value, bad):
    """The first entry of ``value`` (broadcast to the mask) where ``bad``."""
    return np.broadcast_to(value, np.shape(bad))[bad][0]


def require(ok, message: str, value, error=DomainError):
    """Raise error("message, got v") for the first v of ``value`` not ``ok``."""
    if not (ok := np.asarray(ok)).all():
        raise error(f"{message}, got {first(value, ~ok)}")
