"""Double-lambda four-level atom: steady state, drift and coherence systems.

The model couples two ground states |1>, |2> (splitting omega0) and two
excited states |3>, |4> to a strong pump (Rabi frequency rabi, one-photon
detuning delta1) and to the weak probe/conjugate pair (two-photon detuning
delta2).  Spontaneous decay from each excited state feeds both ground
states at gamma_e/2; the ground coherence decays at gamma_g.

Canonical vector layouts used throughout the package:

* population/pump sector  Sigma0 = (s11, s22, s33, s31, s13, s42, s24),
  with s44 eliminated through the closure s11+s22+s33+s44 = 1;
* probe/conjugate coherence sector  Sigma1 = (s23, s41, s43, s21).

All rates and detunings are angular frequencies in rad/us.  Steady state,
drift matrix and coherence system take an optional array ``detuning_shift``
added to delta1 (Doppler velocity nodes), the coherence system also an
array of frequencies; outputs stack over both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, DomainError
from .units import mhz_to_rad_us

# Decay directions with rates below this fraction of the fastest rate are
# treated as conserved (exactly one such mode exists at zero pump).
ZERO_RATE_REL_TOL = 1e-12

STEADY_STATE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class AtomParams:
    """Microscopic rates and detunings, all in rad/us."""

    gamma_e: float   # excited-state linewidth
    gamma_g: float   # ground-coherence decay
    omega0: float    # hyperfine splitting
    delta1: float    # one-photon detuning of the pump
    delta2: float    # two-photon detuning of the probe
    rabi: float      # pump Rabi frequency

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise DomainError(f"AtomParams: {name} must be finite, got {value}")
        if not self.gamma_e > 0:
            raise DomainError(f"AtomParams: gamma_e must be > 0, got {self.gamma_e}")
        if self.gamma_g < 0:
            raise DomainError(f"AtomParams: gamma_g must be >= 0, got {self.gamma_g}")
        if self.rabi < 0:
            raise DomainError(f"AtomParams: rabi must be >= 0, got {self.rabi}")

    @classmethod
    def from_mhz(cls, gamma_e, gamma_g, omega0, delta1, delta2, rabi):
        """Build from ordinary frequencies in MHz (multiplied by 2*pi once)."""
        return cls(*(mhz_to_rad_us(v) for v in (gamma_e, gamma_g, omega0,
                                                delta1, delta2, rabi)))


@dataclass(frozen=True)
class SteadyState:
    """Pump-dressed stationary state of the four-level system."""

    pops: tuple      # (s11, s22, s33, s44), real probabilities
    coh: tuple       # (s31, s13, s42, s24), complex


@dataclass(frozen=True)
class DiffusionSet:
    """Langevin diffusion matrices on the coherence sector.

    ``d1`` holds the <F F+> correlations, ``d2`` the <F+ F> ones and
    ``dsym`` their symmetric-order average (d1 + d2)/2.  All 4x4 Hermitian.
    """

    d1: np.ndarray
    d2: np.ndarray
    dsym: np.ndarray


# Row selector mapping the coherence sector onto the (probe, conjugate+)
# field pair.
FIELD_PROJECTOR = np.array([[1.0, 0.0, 0.0, 0.0],
                            [0.0, -1.0, 0.0, 0.0]])


def _matrix(rows, shape=()) -> np.ndarray:
    """Complex matrix literal with entries broadcast to ``shape`` (leading).

    An unstacked literal takes one np.array call: filling its entries one
    by one in Python is about 5x slower for the 7x7 drift matrix and cost
    the scalar-heavy noise_scripts benchmark workload about 4%.
    """
    if shape == ():
        return np.array(rows, dtype=complex)
    out = np.empty(shape + (len(rows), len(rows[0])), dtype=complex)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            out[..., r, c] = entry
    return out


def _square(x):
    """x**2 by C pow as in a scalar call (numpy's array power can differ)."""
    return x**2 if np.ndim(x) == 0 else np.vectorize(pow, otypes=[float])(x, 2)


def build_drift_m0(p: AtomParams, detuning_shift=0.0) -> np.ndarray:
    """7x7 drift matrix of the pump-only sector.

    Acts on Sigma0 = (s11, s22, s33, s31, s13, s42, s24); the dynamics is
    d/dt Sigma0 = i*M0 Sigma0 - i*S0, so decay rates are Im of the
    eigenvalues of M0.
    """
    g, om, w0 = p.gamma_e, p.rabi, p.omega0
    dl = p.delta1 + detuning_shift
    i = 1j
    return _matrix([
        [i*g/2, i*g/2, 0,     -om/2,         om/2,          0,                0],
        [i*g/2, i*g/2, 0,      0,            0,             -om/2,            om/2],
        [0,     0,     i*g,    om/2,         -om/2,         0,                0],
        [-om/2, 0,     om/2,   -dl + i*g/2,  0,             0,                0],
        [om/2,  0,     -om/2,  0,            dl + i*g/2,    0,                0],
        [-om/2, -om,   -om/2,  0,            0,             -dl - w0 + i*g/2, 0],
        [om/2,  om,    om/2,   0,            0,             0,                dl + w0 + i*g/2],
    ], np.shape(dl))


def drift_source(p: AtomParams) -> np.ndarray:
    """Constant source vector S0 paired with the drift matrix."""
    g, om = p.gamma_e, p.rabi
    return 0.5 * np.array([1j*g, 1j*g, 0, 0, 0, -om, om], dtype=complex)


def steady_state(p: AtomParams, detuning_shift=0.0) -> SteadyState:
    """Closed-form stationary state of the pump-dressed atom.

    Cross-checked against the linear system M0 x = S0 at every shift; a
    residual above STEADY_STATE_RESIDUAL_TOL raises DegenerateModelError.
    """
    g, om, w0 = p.gamma_e, p.rabi, p.omega0
    dl = p.delta1 + detuning_shift
    dl2, dw2 = _square(dl), _square(dl + w0)
    denom = g**2 + 2.0 * (om**2 + dl2 + dw2)
    if np.any(denom <= 0.0):
        raise DegenerateModelError("steady_state: degenerate denominator")
    s11 = (g**2 + om**2 + 4.0 * dl2) / (2.0 * denom)
    s22 = (g**2 + om**2 + 4.0 * dw2) / (2.0 * denom)
    s33 = om**2 / (2.0 * denom)
    s44 = 1.0 - (s11 + s22 + s33)
    s31 = -om * (2.0 * dl + 1j * g) / (2.0 * denom)
    s42 = -om * (2.0 * (dl + w0) + 1j * g) / (2.0 * denom)

    s13, s24 = np.conj(s31), np.conj(s42)

    vec = np.array([s11, s22, s33, s31, s13, s42, s24], dtype=complex)
    src = drift_source(p)
    m0 = build_drift_m0(p, detuning_shift)
    norms = np.linalg.norm(np.einsum("...ij,j...->...i", m0, vec) - src, axis=-1)
    bad = norms > STEADY_STATE_RESIDUAL_TOL * max(np.linalg.norm(src), 1.0)
    if bad.any():
        raise DegenerateModelError(
            f"steady_state: closed form fails the linear system, "
            f"residual {norms.flat[bad.argmax()]:.3e}")
    return SteadyState(pops=(s11, s22, s33, s44), coh=(s31, s13, s42, s24))


def build_coherence_system(p: AtomParams, ss: SteadyState, omega, detuning_shift=0.0):
    """Fourier-space coherence system (m1prime, s1, t).

    m1prime = omega*I + M1 drives Sigma1 = (s23, s41, s43, s21); s1 couples
    the stationary populations to the (probe, conjugate+) field pair; t
    projects the coherence sector back onto the fields.  ``ss`` is taken at
    the same shift; m1prime is stacked to omega.shape + shift.shape.
    """
    g, gam = p.gamma_e, p.gamma_g
    om, d2, w0 = p.rabi, p.delta2, p.omega0
    dl = p.delta1 + detuning_shift
    shape = np.shape(dl)
    i = 1j
    m1 = _matrix([
        [i*g/2 + (dl - d2), 0,                      -om/2,              om/2],
        [0,                 i*g/2 - (dl + d2 + w0),  om/2,              -om/2],
        [-om/2,             om/2,                    i*g - (d2 + w0),   0],
        [om/2,              -om/2,                   0,                 i*gam - d2],
    ], shape)
    s11, s22, s33, s44 = ss.pops
    s31, s13, s42, s24 = ss.coh
    s1 = _matrix([
        [s33 - s22, 0],
        [0,         s11 - s44],
        [-s42,      s13],
        [s31,       -s24],
    ], shape)
    w = np.reshape(omega, np.shape(omega) + (1,) * (len(shape) + 2))
    return w * np.eye(4, dtype=complex) + m1, s1, FIELD_PROJECTOR.copy()


def diffusion_set(p: AtomParams) -> DiffusionSet:
    """Langevin diffusion matrices of the coherence sector.

    Generalized-Einstein-relation result for the closed four-level model;
    the shared prefactor is 1/(2*tau) with
    tau = 2 Gamma^2 + 4 Omega^2 + 4 omega0^2 + 8 Delta^2 + 8 Delta omega0.
    """
    g, gam = p.gamma_e, p.gamma_g
    om, dl, w0 = p.rabi, p.delta1, p.omega0
    tau = 2.0*g**2 + 4.0*om**2 + 4.0*w0**2 + 8.0*dl**2 + 8.0*dl*w0
    if tau <= 0.0:
        raise DegenerateModelError(f"diffusion_set: tau = {tau} is not positive")
    dw = dl + w0
    d1 = np.array([
        [g*(g**2 + 4*dl**2 + 2*om**2 + 8*dl*w0 + 4*w0**2), 0,
         1j*g*om*(g + 2j*dw), 0],
        [0, 0, 0, -1j*gam*om*(g - 2j*dw)],
        [-1j*g*om*(g - 2j*dw), 0, g*om**2, 0],
        [0, 1j*gam*om*(g + 2j*dw), 0,
         g*om**2 + 2*gam*(g**2 + 4*dl**2 + om**2 + 8*dl*w0 + 4*w0**2)],
    ], dtype=complex) / (2.0 * tau)
    d2 = np.array([
        [0, 0, 0, -1j*gam*(g - 2j*dl)*om],
        [0, g*(g**2 + 4*dl**2 + 2*om**2), 1j*g*(g + 2j*dl)*om, 0],
        [0, -1j*g*(g - 2j*dl)*om, g*om**2, 0],
        [1j*gam*(g + 2j*dl)*om, 0, 0,
         g*om**2 + 2*gam*(g**2 + 4*dl**2 + om**2)],
    ], dtype=complex) / (2.0 * tau)
    return DiffusionSet(d1=d1, d2=d2, dsym=(d1 + d2) / 2.0)


def decay_rates(p: AtomParams) -> np.ndarray:
    """Decay rates of the drift dynamics (Im of the M0 eigenvalues), sorted."""
    return np.sort(np.imag(np.linalg.eigvals(build_drift_m0(p))))


def slowest_relaxation(p: AtomParams) -> float:
    """Longest relaxation time T0 of the pump-dressed atom, in us.

    Conserved directions (rates below ZERO_RATE_REL_TOL of the fastest)
    are excluded; a growing mode or no decaying mode at all raises
    DegenerateModelError.
    """
    rates = decay_rates(p)
    fastest = rates.max(initial=0.0)
    if fastest <= 0.0:
        raise DegenerateModelError("slowest_relaxation: no decaying mode")
    if rates.min() < -1e-10 * fastest:
        raise DegenerateModelError(
            f"slowest_relaxation: unstable mode with rate {rates.min():.3e}")
    nonzero = rates[rates > ZERO_RATE_REL_TOL * fastest]
    if nonzero.size == 0:
        raise DegenerateModelError("slowest_relaxation: all modes conserved")
    return 1.0 / nonzero.min()


def preparation_probability(p: AtomParams, t: float) -> float:
    """Probability that an atom has reached the stationary state after t us."""
    if t < 0:
        raise DomainError(f"preparation_probability: t must be >= 0, got {t}")
    return -np.expm1(-t / slowest_relaxation(p))
