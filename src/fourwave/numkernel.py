"""Dense complex linear-algebra and quadrature kernels.

Every matrix exponential and velocity-average node set used by the
physics modules goes through here, so algorithmic constants live in one
place.  The exponential takes whole stacks of matrices in one call.
"""

import functools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import ConfigurationError, DimensionError, NumericError, require

# Default node count for the velocity average; overridable per call.
DEFAULT_VELOCITY_ORDER = 40
# Largest velocity-average order: numpy documents hermegauss as tested up to
# degree 100, and its companion matrix grows as the order squared.
MAX_VELOCITY_ORDER = 100

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


def expm(m) -> np.ndarray:
    """Exponential of each matrix of a (..., n, n) stack: scaling and
    squaring with a Pade-13 core.  Each matrix has its own squaring count,
    so expm(stack)[i] equals expm(stack[i]) bit for bit; a zero matrix
    gives the exact identity.  A non-finite entry, a norm needing over
    _MAX_SQUARINGS squarings, a singular Pade denominator or an overflow
    anywhere in the stack raises NumericError."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expm: expected a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("expm: input has non-finite entries")
    if a.size == 0:
        return a.copy()
    norms = np.linalg.norm(a, 1, axis=(-2, -1))
    norm_list = norms.ravel().tolist()
    if max(norm_list) > _THETA_13 * 2.0 ** _MAX_SQUARINGS:
        raise NumericError(f"expm: norm {max(norm_list):.3e} needs more than "
                           f"{_MAX_SQUARINGS} squarings")
    # Higham's count ceil(log2(norm / theta)), at least 0, per matrix.  The
    # counts are plain Python: numpy's per-call overhead on these tiny
    # arrays made a one-matrix call measurably slower.
    counts = [math.ceil(math.log2(x / _THETA_13)) if x > _THETA_13 else 0
              for x in norm_list]
    least, most = min(counts), max(counts)
    a_scaled = a / np.reshape([2.0 ** c for c in counts], norms.shape + (1, 1))

    b = _PADE13_B
    ident = np.eye(a.shape[-1], dtype=complex)
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
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow raises below
        for _ in range(least):
            r = r @ r
        for k in range(least, most):
            more = np.reshape(counts, norms.shape) > k
            r[more] = r[more] @ r[more]
    if not np.all(np.isfinite(r)):
        raise NumericError("expm: overflow during squaring phase")
    if 0.0 in norm_list:
        r[norms == 0.0] = ident
    return r


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
    require(np.greater(sigma, 0.0), "gauss-hermite sigma must be > 0", sigma,
            ConfigurationError)
    x, w = _unit_gauss_hermite(order)
    return sigma * x, w

