"""Dense complex linear-algebra kernels: every matrix exponential of the
physics modules goes through here, a whole stack in one call.  A 2x2
exponential (every transfer matrix) is a closed form; any other size (the
4x4 Van Loan noise blocks) is scaling and squaring with a Pade-13 core.
The velocity nodes live in vapor (with numpy.polynomial); their count
stays here, so config and cli need not load the vapor model.
"""

import math

import numpy as np

from .errors import DimensionError, NumericError

# Gauss-Hermite node count of the velocity average, the one rule it uses.
VELOCITY_NODES = 40

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


def _expm2(a) -> np.ndarray:
    """Closed-form exponential of a finite (..., 2, 2) stack (Cayley-Hamilton;
    Bernstein & So, IEEE TAC 38 (1993) 1228).  With mu = (m00 + m11)/2,
    h = (m00 - m11)/2 and s the principal root of h^2 + m01 m10,
    e^M = c I + sigma (M - mu I), c = e^mu cosh s, sigma = e^mu sinh(s)/s.
    For |s| >= 1, c and sigma come from e^(mu +- s), so nothing overflows
    before the result does; for |s| < 1, from e^mu, cosh s and sinh(s)/s
    (1 at s = 0), so nothing cancels as s -> 0.  Every operand is flat and
    contiguous, so each member rounds as it does alone."""
    m00, m01, m10, m11 = np.ascontiguousarray(a.reshape(-1, 4).T)
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow raises below
        mu, h = (m00 + m11) * 0.5, (m00 - m11) * 0.5
        s = np.sqrt(h * h + m01 * m10)
        c, sigma = np.empty_like(s), np.empty_like(s)
        big = abs(s) >= 1.0
        if big.any():
            sb, mb = s[big], mu[big]
            up, down = np.exp(mb + sb), np.exp(mb - sb)
            c[big] = (up + down) * 0.5
            sigma[big] = (up - down) / (sb + sb)
        if not big.all():
            small = ~big
            ss, e = s[small], np.exp(mu[small])
            c[small] = e * np.cosh(ss)
            sigma[small] = e * np.divide(np.sinh(ss), ss, out=np.ones_like(ss), where=ss != 0)
        sh = sigma * h
        r = np.array([c + sh, sigma * m01, sigma * m10, c - sh])
    if not np.all(np.isfinite(r)):
        raise NumericError("expm: overflow in the 2x2 closed form")
    return np.ascontiguousarray(r.T).reshape(a.shape)


def expm(m) -> np.ndarray:
    """Exponential of each matrix of a (..., n, n) stack.  n = 2 is the
    closed form of _expm2; any other n is scaling and squaring with a
    Pade-13 core, each matrix with its own squaring count.  Either way
    expm(stack)[i] equals expm(stack[i]) bit for bit and a zero matrix
    gives the exact identity.  A non-finite entry or an overflow anywhere
    in the stack raises NumericError; for n != 2 so do a norm needing over
    _MAX_SQUARINGS squarings and a singular Pade denominator."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expm: expected a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("expm: input has non-finite entries")
    if a.size == 0:
        return a.copy()
    if a.shape[-1] == 2:
        return _expm2(a)
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
