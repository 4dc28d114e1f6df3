"""Dense complex kernels over stacks of 2x2 matrices, each in closed form
and a whole stack in one call: the exponential of every transfer matrix
(expm) and the z-integrated Langevin noise (noise_integral).

Each wraps a private core on flat contiguous rows, the entries m00, m01,
m10, m11 (and q00, q01, q11 of Q) over the members: _expm_rows returns
rows (4, n), _noise_integral_rows rows (2, n).  propagation passes its
generator rows to the cores directly, with no matrices in between.

Rounding contract: member i of a stack of any size rounds exactly as it
does alone.  Every complex product takes flat contiguous rows (numpy's
contiguous complex multiply fuses multiply-adds, its other loops do not)
and named operands (numpy reuses an unnamed temporary of 256 KiB or more in
place, which swaps the operands and rounds the imaginary part otherwise).

noise_integral is the diagonal of X = int_0^1 e^{Bu} Q e^{B^+ u} du for
Hermitian Q, which Van Loan (IEEE TAC 23 (1978) 395) reads off a 4x4 block
exponential.  Write B = mu I + N with N^2 = s^2 I, as expm does, so that
e^{Bu} = e^{mu u} (cosh(su) I + sinh(su) N/s); let a = 2 Re mu, p = Re s,
q = Im s and phi(z) = (e^z - 1)/z = int_0^1 e^{zu} du.  As |cosh su|^2 =
(cosh 2pu + cos 2qu)/2, sinh(su) cosh(conj(s) u) = (sinh 2pu + sinh 2iqu)/2
and |sinh su|^2 = (cosh 2pu - cos 2qu)/2,
    X_kk = I1 Q_kk + 2 Re(I2 (N Q)_kk) + I3 (N Q N^+)_kk,  I1 = [C(2p) + C(2iq)]/2,
    I2 = [p S1(2p) + i q S1(2iq)]/s,  I3 = [p^2 S2(2p) + q^2 S2(2iq)]/|s|^2,
with C(b) = int e^{au} cosh(bu) du = [phi(a+b) + phi(a-b)]/2,
S1(b) = int e^{au} sinh(bu)/b du = [phi(a+b) - phi(a-b)]/(2b) and
S2(b) = int e^{au} 2 (cosh(bu) - 1)/b^2 du = [phi(a+b) + phi(a-b) - 2 phi(a)]/b^2,
real for b = 2p and b = 2iq.  For |b| < _SMALL_B, where the differences
cancel, S1 and S2 are Taylor series in b^2 over the moments
M_n(a) = int_0^1 u^n e^{au} du (_moments).  At s = 0, I2 = M_1 and I3 = M_2.
_moments adds the terms of its series in k order into one running sum:
no (terms, N_MAX, members) product (0.3-0.4 MB in a noise pass, most of a
fresh process's page faults) and no sum over a terms axis (pairwise for a
single member).
"""

import functools

import numpy as np

from .errors import DimensionError, NumericError

# Gauss-Hermite node count of the velocity average, the one rule it uses: the
# nodes live in vapor, the count here, so config and cli need not load vapor.
VELOCITY_NODES = 40

# _TAYLOR_TERMS terms (moments M_1 .. M_N_MAX) reach 2^-54 relative below _SMALL_B;
# the differences above lose 4/b^2 <= 16, S2 a^2/b^2 more for a << 0 (1e-13 of |X|).
_SMALL_B, _TAYLOR_TERMS = 0.5, 7
_N_MAX = 2 * _TAYLOR_TERMS


def _rows(m, who: str, shape=None) -> np.ndarray:
    """m00, m01, m10, m11 of a finite (..., 2, 2) stack, broadcast to ``shape``
    if given, as four flat contiguous rows: numpy's contiguous loops round
    each member as it does alone."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] != (2, 2):
        raise DimensionError(f"{who}: expected a stack of 2x2 matrices, got shape {a.shape}")
    if shape is not None:
        try:
            a = np.broadcast_to(a, shape)
        except ValueError:
            raise DimensionError(f"{who}: a stack of 2x2 matrices of shape {a.shape} does not "
                                 f"broadcast to shape {shape}") from None
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{who}: input has non-finite entries")
    return np.ascontiguousarray(a.reshape(-1, 4).T)


def expm(m) -> np.ndarray:
    """Exponential of each matrix of a (..., 2, 2) stack (Bernstein & So, IEEE
    TAC 38 (1993) 1228): with mu = (m00 + m11)/2, h = (m00 - m11)/2 and s the
    principal root of h^2 + m01 m10, e^M = e^mu (cosh s I + sinh(s)/s (M - mu I)),
    from e^(mu +- s) for |s| >= 1 (no early overflow), else from e^mu, cosh s
    and sinh(s)/s (no cancellation).  expm(stack)[i] is expm(stack[i]) bit for
    bit; a zero matrix gives the exact identity.  Another size raises
    DimensionError; a non-finite entry or an overflow, NumericError."""
    return np.ascontiguousarray(_expm_rows(*_rows(m, "expm")).T).reshape(np.shape(m))


def _expm_rows(m00, m01, m10, m11) -> np.ndarray:
    """expm's closed form on the finite flat contiguous rows m00, m01, m10, m11
    of a stack: the rows (4, n) of the exponentials.  An overflow raises
    NumericError."""
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
            ch, sinc = np.cosh(ss), np.divide(np.sinh(ss), ss, out=np.ones_like(ss), where=ss != 0)
            c[small], sigma[small] = e * ch, e * sinc   # named factors: the rounding contract
        sh = sigma * h
        r = np.array([c + sh, sigma * m01, sigma * m10, c - sh])
    if not np.all(np.isfinite(r)):
        raise NumericError("expm: overflow in the 2x2 closed form")
    return r


@functools.cache
def _weights():
    """(w, t): M_n(a) = e^min(a, 0) sum_k |a|^k w[a < 0][k, n - 1], n <= N_MAX,
    from 1/(k! (n + k + 1)) (a >= 0) and n!/(n + k + 1)! (a < 0); t[n - 1] M_n
    is the b^2 Taylor coefficient of S1 (odd n: 1/n!) or S2 (even n: 2/n!)."""
    k, n = np.arange(22.0 + 3 * _N_MAX)[:, None], np.arange(1.0, _N_MAX + 1)
    inv, factorial = 1.0 / (n + k + 1.0), np.cumprod(np.maximum(k, 1.0), axis=0)
    return (np.array([inv / factorial, np.cumprod(inv, axis=0)]),
            np.where(n % 2 == 0, 2.0, 1.0)[:, None] / factorial[1:_N_MAX + 1])


def _moments(a) -> np.ndarray:
    """M_1 .. M_N_MAX of each a, (N_MAX, len(a)): for |a| > N_MAX the forward
    recurrence M_n = (e^a - n M_(n-1))/a from M_0 = phi(a), which damps errors
    there; else 22 + floor(3|a|) terms of _weights' series (2^-56 relative) and
    exact zeros, added term by term in k order, so that each member rounds as
    it does alone."""
    out, far = np.empty((_N_MAX, a.size)), abs(a) > _N_MAX
    if far.any():
        af = a[far]
        e, m = np.exp(af), np.expm1(af) / af
        for n in range(_N_MAX):
            out[n, far] = m = (e - (n + 1) * m) / af
    for sign, members in enumerate((~far & (a >= 0), ~far & (a < 0))):
        if members.any():
            x = abs(a[members])
            terms = 22 + (3.0 * x).astype(int)
            k = np.arange(terms.max())[:, None]
            powers = np.where(k < terms, np.cumprod(np.where(k > 0, x, 1.0), axis=0), 0.0)
            weights = _weights()[0][sign, :len(k), :, None]
            sums = powers[0] * weights[0]
            for power, weight in zip(powers[1:], weights[1:]):
                sums += power * weight
            out[:, members] = sums * np.exp(np.minimum(a[members], 0.0))
    return out


def noise_integral(b, qm) -> np.ndarray:
    """The real diagonal of X = int_0^1 e^{Bu} Q e^{B^+ u} du, (..., 2), for each
    member of a (..., 2, 2) stack b and the Hermitian stack qm broadcast to it
    (its diagonal and upper corner read), in the module docstring's closed
    form.  out[i] is noise_integral(b[i], qm[i]) bit for bit.  A b or qm of
    another shape raises DimensionError; a non-finite entry or an overflow
    anywhere in the stack, NumericError."""
    b_rows = _rows(b, "noise_integral")
    q00, q01, _, q11 = _rows(qm, "noise_integral", np.shape(b))
    x = _noise_integral_rows(*b_rows, q00, q01, q11)
    return np.ascontiguousarray(x.T).reshape(np.shape(b)[:-1])


def _noise_integral_rows(m00, m01, m10, m11, q00, q01, q11) -> np.ndarray:
    """noise_integral's closed form on the finite flat rows m00, m01, m10, m11
    (contiguous) of B and q00, q01, q11 of Q: the rows (2, n) of the diagonal.
    An overflow raises NumericError."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):    # raises below
        mu, h = (m00 + m11) * 0.5, (m00 - m11) * 0.5
        s = np.sqrt(h * h + m01 * m10)
        a, p, q = 2.0 * mu.real, s.real, s.imag
        # phi at a, a + 2p, a - 2p and a + 2iq; C, S1 and S2 at b = 2p (column 0), 2iq
        z, zq = np.array([a, a + 2.0 * p, a - 2.0 * p]), a + 2j * q
        (f0, fp, fm), fq = phi = np.expm1(z) / z, np.expm1(zq) / zq
        for arg, value in zip((z, zq), phi):
            value[arg == 0] = 1.0
        bb = np.array([2.0 * p, 2.0 * q])
        s12 = np.array([[fp - fm, 2.0 * fq.imag], [fp + fm - 2.0 * f0, 2.0 * (f0 - fq.real)]])
        s12 /= np.array([2.0 * bb, bb * bb])
        if (small := abs(bb) < _SMALL_B).any():
            cols = np.flatnonzero(small.any(0))
            coef = (_moments(a[cols]) * _weights()[1]).reshape(_TAYLOR_TERMS, 2, 1, -1)
            k, b2 = np.arange(_TAYLOR_TERMS)[:, None, None], bb[:, cols]**2 * [[1.0], [-1.0]]
            taylor = (coef * np.cumprod(np.where(k > 0, b2, 1.0), axis=0)[:, None]).sum(0)
            s12[:, small] = taylor[:, small[:, cols]]
        # I1, and I2 = i2r + i i2i, I3 over (u, v) = (p, q)/|s|, (1, 0) at s = 0
        uv = np.array([p, q]) / (r := abs(s))
        uv[:, r == 0] = [[1.0], [0.0]]
        i1, (i2r, i3) = 0.25 * (fp + fm) + 0.5 * fq.real, (uv * uv * s12).sum(1)
        i2i = uv[0] * uv[1] * (s12[0, 1] - s12[0, 0])
        # rows k = 0, 1 of N = [[h, m01], [m10, -h]] and of Q; a complex product
        # of a broadcast operand rounds differently, so those are taken in reals,
        # and each complex factor is named (the rounding contract)
        n0, n1, qd = np.array([h, m10]), np.array([m01, -h]), np.array([q00.real, q11.real])
        q0, q1 = np.array([qd[0], q01]), np.array([q01.conj(), qd[1]])
        n0c, n1c = n0.conj(), n1.conj()
        nq, w = n0 * q0 + n1 * q1, n0 * n1c
        nqn = ((n0 * n0c).real * qd[0] + (n1 * n1c).real * qd[1]
               + 2.0 * (w.real * q01.real - w.imag * q01.imag))
        x = i1 * qd + 2.0 * (i2r * nq.real - i2i * nq.imag) + i3 * nqn
    if not np.all(np.isfinite(x)):
        raise NumericError("noise_integral: overflow in the closed form")
    return x
