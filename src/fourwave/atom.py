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

All rates and detunings are angular frequencies in rad/us.  AtomParams
fields may be arrays; every result is stacked to the broadcast shape of the
fields it depends on (and of the analysis frequencies), so the steady state
of a delta2 sweep is computed once.  Velocity nodes go on the last axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, first, require
from .units import mhz_to_rad_us

# Decay directions with rates below this fraction of the fastest rate are
# treated as conserved (exactly one such mode exists at zero pump).
ZERO_RATE_REL_TOL = 1e-12

STEADY_STATE_RESIDUAL_TOL = 1e-10

# Largest |rate| or |detuning|, rad/us: about 400 times the optical frequency
# of the Rb D1 line, far outside the rotating-wave model, and small enough
# that no product the formulas form (cubes at most) overflows.
FREQUENCY_LIMIT = 1e12


@dataclass(frozen=True)
class AtomParams:
    """Microscopic rates and detunings, all in rad/us; floats or arrays that
    broadcast against each other."""

    gamma_e: float   # excited-state linewidth
    gamma_g: float   # ground-coherence decay
    omega0: float    # hyperfine splitting
    delta1: float    # one-photon detuning of the pump
    delta2: float    # two-photon detuning of the probe
    rabi: float      # pump Rabi frequency

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.less_equal(abs(value), FREQUENCY_LIMIT).all():     # also on a NaN
                require(np.isfinite(value), f"AtomParams: {name} must be finite", value)
                require(abs(value) <= FREQUENCY_LIMIT, f"AtomParams: {name} must be at most "
                        f"{FREQUENCY_LIMIT:g} rad/us in magnitude", value)
        require(np.greater(self.gamma_e, 0), "AtomParams: gamma_e must be > 0", self.gamma_e)
        require(~np.less(self.gamma_g, 0), "AtomParams: gamma_g must be >= 0", self.gamma_g)
        require(~np.less(self.rabi, 0), "AtomParams: rabi must be >= 0", self.rabi)

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

    def take(self, index) -> "SteadyState":
        """The members at ``index`` of the last (velocity node) axis."""
        return SteadyState(*(tuple(x[..., index] for x in part) for part in (self.pops, self.coh)))


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


def _square(x):
    """x**2 by C pow as in a scalar call (numpy's array power can differ)."""
    return x**2 if np.ndim(x) == 0 else np.reshape([v**2 for v in np.ravel(x).tolist()],
                                                   np.shape(x))


def _matrix(rows) -> np.ndarray:
    """Complex matrix literal stacked to the broadcast shape of its entries
    (an unstacked one in one np.array call, 5x faster than entry by entry)."""
    shape = np.broadcast_shapes(*(entry.shape for row in rows for entry in row
                                  if isinstance(entry, np.ndarray)))
    if shape == ():
        return np.array(rows, dtype=complex)
    out = np.empty(shape + (len(rows), len(rows[0])), dtype=complex)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            out[..., r, c] = entry
    return out


def _drift_rows(p: AtomParams) -> list:
    g, om, w0, dl = p.gamma_e, p.rabi, p.omega0, p.delta1
    i = 1j
    return [
        [i*g/2, i*g/2, 0,     -om/2,         om/2,          0,                0],
        [i*g/2, i*g/2, 0,      0,            0,             -om/2,            om/2],
        [0,     0,     i*g,    om/2,         -om/2,         0,                0],
        [-om/2, 0,     om/2,   -dl + i*g/2,  0,             0,                0],
        [om/2,  0,     -om/2,  0,            dl + i*g/2,    0,                0],
        [-om/2, -om,   -om/2,  0,            0,             -dl - w0 + i*g/2, 0],
        [om/2,  om,    om/2,   0,            0,             0,                dl + w0 + i*g/2],
    ]


def build_drift_m0(p: AtomParams) -> np.ndarray:
    """7x7 drift matrix of the pump-only sector.

    Acts on Sigma0 = (s11, s22, s33, s31, s13, s42, s24); the dynamics is
    d/dt Sigma0 = i*M0 Sigma0 - i*S0, so decay rates are Im of the
    eigenvalues of M0.
    """
    return _matrix(_drift_rows(p))


def drift_source(p: AtomParams) -> np.ndarray:
    """Constant source vector S0 paired with the drift matrix."""
    g, om = p.gamma_e, p.rabi
    return 0.5 * _matrix([[1j*g, 1j*g, 0, 0, 0, -om, om]])[..., 0, :]


def steady_state(p: AtomParams) -> SteadyState:
    """Closed-form stationary state of the pump-dressed atom.

    Cross-checked against the linear system M0 x = S0 for every member; a
    residual above STEADY_STATE_RESIDUAL_TOL raises DegenerateModelError.
    """
    g, om, w0, dl = p.gamma_e, p.rabi, p.omega0, p.delta1
    g2, om2, dl2, dw2 = _square(g), _square(om), _square(dl), _square(dl + w0)
    denom = g2 + 2.0 * (om2 + dl2 + dw2)
    if np.any(denom <= 0.0):
        raise DegenerateModelError("steady_state: degenerate denominator")
    s11 = (g2 + om2 + 4.0 * dl2) / (2.0 * denom)
    s22 = (g2 + om2 + 4.0 * dw2) / (2.0 * denom)
    s33 = om2 / (2.0 * denom)
    s44 = 1.0 - (s11 + s22 + s33)
    s31 = -om * (2.0 * dl + 1j * g) / (2.0 * denom)
    s42 = -om * (2.0 * (dl + w0) + 1j * g) / (2.0 * denom)

    s13, s24 = np.conj(s31), np.conj(s42)
    # M0 x - S0 column by column: the 7x7 stack of a swept Doppler medium
    # would be the largest array of its run
    src = drift_source(p)
    rows, residual = _drift_rows(p), -src
    for c, x in enumerate((s11, s22, s33, s31, s13, s42, s24)):
        residual = residual + _matrix([[row[c]] for row in rows])[..., 0] * np.expand_dims(x, -1)
    norms = np.linalg.norm(residual, axis=-1)
    bad = norms > STEADY_STATE_RESIDUAL_TOL * np.maximum(np.linalg.norm(src, axis=-1), 1.0)
    if bad.any():
        raise DegenerateModelError(
            f"steady_state: closed form fails the linear system, "
            f"residual {first(norms, bad):.3e}")
    return SteadyState(pops=(s11, s22, s33, s44), coh=(s31, s13, s42, s24))


def build_coherence_system(p: AtomParams, ss: SteadyState, omega):
    """Fourier-space coherence system (m1prime, s1, t).

    m1prime = omega*I + M1 drives Sigma1 = (s23, s41, s43, s21); s1 couples
    the stationary populations ``ss`` to the (probe, conjugate+) field
    pair; t projects the coherence sector back onto the fields.
    """
    g, gam = p.gamma_e, p.gamma_g
    om, d2, w0, dl = p.rabi, p.delta2, p.omega0, p.delta1
    w = np.asarray(omega)
    i = 1j
    m1p = _matrix([
        [w + (i*g/2 + (dl - d2)), 0,                           -om/2,                 om/2],
        [0,                       w + (i*g/2 - (dl + d2 + w0)), om/2,                 -om/2],
        [-om/2,                   om/2,                         w + (i*g - (d2 + w0)), 0],
        [om/2,                    -om/2,                        0,            w + (i*gam - d2)],
    ])
    s11, s22, s33, s44 = ss.pops
    s31, s13, s42, s24 = ss.coh
    s1 = _matrix([
        [s33 - s22, 0],
        [0,         s11 - s44],
        [-s42,      s13],
        [s31,       -s24],
    ])
    return m1p, s1, FIELD_PROJECTOR.copy()


def diffusion_set(p: AtomParams) -> DiffusionSet:
    """Langevin diffusion matrices of the coherence sector.

    Generalized-Einstein-relation result for the closed four-level model;
    the shared prefactor is 1/(2*tau) with
    tau = 2 Gamma^2 + 4 Omega^2 + 4 omega0^2 + 8 Delta^2 + 8 Delta omega0.
    """
    g, gam = p.gamma_e, p.gamma_g
    om, dl, w0 = p.rabi, p.delta1, p.omega0
    g2, om2, dl2, w02 = _square(g), _square(om), _square(dl), _square(w0)
    tau = 2.0*g2 + 4.0*om2 + 4.0*w02 + 8.0*dl2 + 8.0*dl*w0
    if np.any(bad := tau <= 0.0):
        raise DegenerateModelError(f"diffusion_set: tau = {first(tau, bad)} is not positive")
    dw = dl + w0
    scale = np.expand_dims(2.0 * tau, (-2, -1))
    d1 = _matrix([
        [g*(g2 + 4*dl2 + 2*om2 + 8*dl*w0 + 4*w02), 0,
         1j*g*om*(g + 2j*dw), 0],
        [0, 0, 0, -1j*gam*om*(g - 2j*dw)],
        [-1j*g*om*(g - 2j*dw), 0, g*om2, 0],
        [0, 1j*gam*om*(g + 2j*dw), 0,
         g*om2 + 2*gam*(g2 + 4*dl2 + om2 + 8*dl*w0 + 4*w02)],
    ]) / scale
    d2 = _matrix([
        [0, 0, 0, -1j*gam*(g - 2j*dl)*om],
        [0, g*(g2 + 4*dl2 + 2*om2), 1j*g*(g + 2j*dl)*om, 0],
        [0, -1j*g*(g - 2j*dl)*om, g*om2, 0],
        [1j*gam*(g + 2j*dl)*om, 0, 0,
         g*om2 + 2*gam*(g2 + 4*dl2 + om2)],
    ]) / scale
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
    fastest = rates.max(axis=-1, initial=0.0)
    if np.any(fastest <= 0.0):
        raise DegenerateModelError("slowest_relaxation: no decaying mode")
    if np.any(bad := rates[..., 0] < -1e-10 * fastest):
        raise DegenerateModelError(
            f"slowest_relaxation: unstable mode with rate {first(rates[..., 0], bad):.3e}")
    slowest = np.where(rates > ZERO_RATE_REL_TOL * fastest[..., None], rates, np.inf).min(-1)
    if np.any(np.isinf(slowest)):
        raise DegenerateModelError("slowest_relaxation: all modes conserved")
    return 1.0 / slowest


def preparation_probability(p: AtomParams, t: float) -> float:
    """Probability that an atom has reached the stationary state after t us."""
    require(~np.less(t, 0), "preparation_probability: t must be >= 0", t)
    return -np.expm1(-t / slowest_relaxation(p))
