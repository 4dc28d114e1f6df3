"""Phenomenological amplifier references: ideal PIA/PSA, loss chains.

These closed-form models serve as oracles for the microscopic spectra and
as fast approximations of the four-wave-mixing process.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError


@dataclass(frozen=True)
class SliceChainParams:
    """Alternating chain of ideal gain slices and beamsplitter losses."""

    slice_gain: float          # finite g >= 1 per gain zone
    slice_transmission: float  # t in (0, 1] per loss zone
    n_slices: int              # a whole number >= 1, an int or a float

    def __post_init__(self):
        g, t, n = self.slice_gain, self.slice_transmission, self.n_slices
        for name, value, ok, rule in (("slice_gain", g, g >= 1, "must be >= 1"),
                                      ("slice_gain", g, math.isfinite(g), "must be finite"),
                                      ("slice_transmission", t, 0 < t <= 1, "must be in (0, 1]"),
                                      ("n_slices", n, n >= 1, "must be >= 1"),
                                      ("n_slices", n, n % 1 == 0, "must be a whole number")):
            if not ok:
                raise DomainError(f"{name} {rule}, got {value}", name, rule, value)


def ideal_pia_noise(gain: float) -> float:
    """Intensity-difference noise 1/(2G - 1) of an ideal two-mode amplifier."""
    if gain < 1:
        raise DomainError(f"ideal_pia_noise: gain must be >= 1, got {gain}")
    return 1.0 / (2.0 * gain - 1.0)


def ideal_pia_means(gain: float, n_in: float):
    """Output photon numbers (n_a, n_b, n_minus) of the ideal amplifier.

    The difference n_a - n_b equals the input photon number for any gain.
    """
    if gain < 1:
        raise DomainError(f"ideal_pia_means: gain must be >= 1, got {gain}")
    if n_in < 0:
        raise DomainError(f"ideal_pia_means: n_in must be >= 0, got {n_in}")
    return gain * n_in, (gain - 1.0) * n_in, n_in


def sliced_amp_loss(p: SliceChainParams):
    """Terminal (Ga, Gb, s_nminus) of the sliced gain-plus-loss chain.

    A slice is an affine map on the symmetric-order quadrature correlations,
    a 4x4 matrix on (xa, xb, xab, 1), and a linear map on the mean fields of
    a and b+ (real for a real seed), a 2x2 matrix: the chain is their
    n_slices-th power on coherent inputs (unit seed on mode a, vacuum on b).
    The normalized intensity-difference noise follows from the terminal
    intensities.  An overflow gives inf or NaN; a total gain that is not > 0
    (an underflow) raises NormalizationError.
    """
    g, t = p.slice_gain, p.slice_transmission
    root, st, sg, sg1 = math.sqrt(g * (g - 1.0)), math.sqrt(t), math.sqrt(g), math.sqrt(g - 1.0)
    slices = (np.array([[g * t, (g - 1.0) * t, 2.0 * t * root, 1.0 - t],
                        [g - 1.0, g, 2.0 * root, 0.0],
                        [st * root, st * root, (2.0 * g - 1.0) * st, 0.0],
                        [0.0, 0.0, 0.0, 1.0]]),
              np.array([[st * sg, st * sg1], [sg1, sg]]))
    with np.errstate(over="ignore", invalid="ignore"):
        noise, field = slices       # to the n_slices-th power, squaring over its bits
        for bit in bin(int(p.n_slices))[3:]:
            noise, field = (m @ m @ s if bit == "1" else m @ m
                            for m, s in zip((noise, field), slices))
        xa, xb, xab = noise[:3, 0] + noise[:3, 1] + noise[:3, 3]     # from (1, 1, 0, 1)
        gain_a, gain_b = field[:, 0] * field[:, 0]      # from (1, 0)
        total = gain_a + gain_b
        if not total > 0:
            raise NormalizationError(f"sliced_amp_loss: total gain {total} is not > 0")
        s_nminus = (gain_a * xa + gain_b * xb - 2.0 * np.sqrt(gain_a * gain_b) * xab) / total
    return float(gain_a), float(gain_b), float(s_nminus)


def psa_gain(gain: float, theta: float) -> float:
    """Phase-sensitive amplification factor 2G - 1 + 2 sqrt(G(G-1)) cos(theta),
    summed as 1/(sqrt(G) + sqrt(G-1))^2 + 2 sqrt(G) sqrt(G-1) (1 + cos(theta)):
    two terms >= 0 that do not cancel, the first > 0 at every finite G."""
    if gain < 1:
        raise DomainError(f"psa_gain: gain must be >= 1, got {gain}")
    root, root1 = math.sqrt(gain), math.sqrt(gain - 1.0)
    return 1.0 / (root + root1) / (root + root1) + (1.0 + math.cos(theta)) * root * root1 * 2.0


def psa_noise(gain: float, theta: float, big_theta: float) -> float:
    """Quadrature noise of the phase-sensitive amplifier, SQL = 1: the
    measured-quadrature spectrum (angle big_theta) over the mean-field
    amplification (angle theta)."""
    return psa_gain(gain, big_theta) / psa_gain(gain, theta)


def nlo_pia_transfer(eta: complex, length: float) -> np.ndarray:
    """Input-output matrix of the undepleted-pump two-mode amplifier.

    ``eta`` is the (possibly complex) coupling per unit length; for
    eta = 0 the matrix is the identity.  Satisfies cosh^2 - sinh^2 = 1.
    """
    mag = abs(eta)
    if mag == 0.0 or length == 0.0:
        return np.eye(2, dtype=complex)
    phase = eta / mag
    ch, sh = math.cosh(mag * length), math.sinh(mag * length)
    return np.array([[ch, 1j * phase * sh],
                     [-1j * np.conj(phase) * sh, ch]], dtype=complex)


def nlo_psa_field(kappa: float, eta: complex, length: float):
    """Self-coupled field coefficients (c1, c2) of the degenerate amplifier.

    Valid for kappa^2 >= |eta|^2 (oscillatory regime); the output field is
    c1 * E_in + c2 * conj(E_in) with |c1|^2 - |c2|^2 = 1 and gain
    G = |c1|^2 = 1 + (|eta|^2 / d^2) sin^2(d L), d = sqrt(kappa^2 - |eta|^2).
    """
    disc = kappa**2 - abs(eta)**2
    if disc < 0:
        raise DomainError(
            f"nlo_psa_field: requires kappa^2 >= |eta|^2, got discriminant {disc}")
    d = math.sqrt(disc)
    if d == 0.0:
        sinc = length          # lim sin(dL)/d as d -> 0
        cos_term = 1.0
    else:
        sinc = math.sin(d * length) / d
        cos_term = math.cos(d * length)
    c1 = cos_term + 1j * kappa * sinc
    c2 = 1j * eta * sinc
    return complex(c1), complex(c2)


def detection_loss(s: float, eta_t: float) -> float:
    """Measured noise after a lumped detection efficiency eta_t."""
    if not 0 <= eta_t <= 1:
        raise DomainError(f"detection_loss: eta_t must be in [0, 1], got {eta_t}")
    return eta_t * s + (1.0 - eta_t)


def unbalanced_loss(s_a: float, s_b: float, cross: float, eta_prime: float) -> float:
    """Two-mode difference noise when only mode a sees transmission eta_prime.

    Assumes equal mean intensities before the loss; ``cross`` is the
    quadrature cross-correlation <dXa dXb>.
    """
    if not 0 <= eta_prime <= 1:
        raise DomainError(f"unbalanced_loss: eta_prime must be in [0, 1], got {eta_prime}")
    return (eta_prime**2 * s_a + s_b - 2.0 * eta_prime * cross
            + eta_prime * (1.0 - eta_prime)) / (1.0 + eta_prime)
