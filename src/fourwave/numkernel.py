"""Dense complex linear-algebra and quadrature kernels.

Every matrix exponential, eigenvalue call and velocity-average node set
used by the physics modules goes through here, so algorithmic constants
and default tolerances live in one place.
"""

import functools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import ConfigurationError, DimensionError, NumericError

# Default node count for the velocity average; overridable per call.
DEFAULT_VELOCITY_ORDER = 40

# Default tolerances quoted by the kernel contracts.
EXPM_DET_RTOL = 1e-10
EIGVALS_DET_RTOL = 1e-8

# Pade-13 numerator coefficients for the scaling-and-squaring exponential
# (Higham's method; same constants as scipy and expm ports elsewhere).
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
# 1-norm threshold below which Pade-13 is accurate without scaling.
_THETA_13 = 5.371920351148152
_MAX_SQUARINGS = 64


def _as_square(m, who: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{who}: expected a square matrix, got shape {a.shape}")
    return a


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade-13 core."""
    a = _as_square(m, "expm")
    if not np.all(np.isfinite(a)):
        raise NumericError("expm: input has non-finite entries")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = max(0, int(math.ceil(math.log2(norm / _THETA_13))))
    if squarings > _MAX_SQUARINGS:
        raise NumericError(f"expm: norm {norm:.3e} needs more than {_MAX_SQUARINGS} squarings")
    a_scaled = a / (2.0 ** squarings)

    b = _PADE13_B
    ident = np.eye(n, dtype=complex)
    a2 = a_scaled @ a_scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a_scaled @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                    + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    try:
        r = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"expm: Pade denominator is singular ({exc})") from exc
    for _ in range(squarings):
        r = r @ r
    if not np.all(np.isfinite(r)):
        raise NumericError("expm: overflow during squaring phase")
    return r


def eigvals(m) -> np.ndarray:
    """Eigenvalues of a square complex matrix (no particular ordering)."""
    a = _as_square(m, "eigvals")
    return np.linalg.eigvals(a)


@functools.cache
def _unit_gauss_hermite(order: int):
    """Read-only unit-sigma nodes and normalized weights of one order."""
    x, w = hermegauss(order)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_hermite_nodes(order: int, sigma: float):
    """Nodes and probability weights for a zero-mean Gaussian of std sigma.

    Weights are renormalized to sum to one exactly, so a constant function
    averages to itself regardless of order.  Weights are read-only.
    """
    if order < 4:
        raise ConfigurationError(f"gauss-hermite order must be >= 4, got {order}")
    if not sigma > 0.0:
        raise ConfigurationError(f"gauss-hermite sigma must be > 0, got {sigma}")
    x, w = _unit_gauss_hermite(order)
    return sigma * x, w

