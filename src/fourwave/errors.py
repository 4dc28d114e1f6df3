"""Exception types shared across the package."""


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

    Carries the offending analysis frequency in ``omega``, the indices of
    the offending detuning shifts of a stacked call in ``nodes`` and, for
    velocity-averaged quantities, the offending velocities.
    """

    def __init__(self, message, omega=None, velocities=None, nodes=None):
        super().__init__(message)
        self.omega = omega
        self.velocities = velocities or []
        self.nodes = nodes or []


class DomainError(FourwaveError, ValueError):
    """Scalar argument outside the mathematical domain of the formula."""


class NormalizationError(FourwaveError, ArithmeticError):
    """A noise normalization reference vanished or is inconsistent."""


class CalibrationError(FourwaveError, ArithmeticError):
    """The commutator-preservation calibration has no positive solution."""


class RangeWarning(UserWarning):
    """Empirical formula evaluated outside its fitted validity range."""
