"""Normalized quantum-noise spectra and the inseparability criterion.

All spectra are normalized to the standard quantum limit of a coherent
beam (SQL = 1).  Every observable is read off the same objects: the
two-mode input-output (ABCD) matrix at 0, +omega and -omega and the four
z-integrated Langevin coefficients at omega.  ``evaluate`` builds those
objects once for a medium and returns all observables together as an
``Observables``; ``observables`` does the same for precomputed (e.g.
synthetic) matrices.  The ``*_parts`` functions are the single formulas
both of them combine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError
from .numkernel import expm
from .propagation import (IntegratedDiffusion, MediumParams, generator,
                          integrated_diffusion)

NORMALIZATION_FLOOR = 1e-30


@dataclass(frozen=True)
class NoiseSpectrum:
    """Noise values on a frequency grid, SQL = 1."""

    freqs: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        if len(self.freqs) != len(self.values):
            raise DomainError("NoiseSpectrum: freqs and values must have equal length")


def _entries(abcd):
    return abcd[0, 0], abcd[0, 1], abcd[1, 0], abcd[1, 1]


def probe_intensity_noise_parts(abcd0, abcd_w, abcd_mw,
                                diff: IntegratedDiffusion) -> float:
    """Single-mode intensity noise of the probe, SQL = 1.

    One half of the diffusion-weighted sum of |A|^2 and |B|^2 at both
    signs of the analysis frequency; the output photon number used for
    normalization cancels, so only the SQL reference remains.
    """
    a0 = abcd0[0, 0]
    if abs(a0)**2 < NORMALIZATION_FLOOR:
        raise NormalizationError("probe noise undefined at zero probe gain")
    aw, bw, _, _ = _entries(abcd_w)
    am, bm, _, _ = _entries(abcd_mw)
    return 0.5 * (abs(aw)**2 * (1.0 + diff.d_aa)
                  + abs(am)**2 * (1.0 + diff.d_aa_rev)
                  + abs(bw)**2 * (1.0 + diff.d_bb)
                  + abs(bm)**2 * (1.0 + diff.d_bb_rev))


def intensity_difference_noise_parts(abcd0, abcd_w, abcd_mw,
                                     diff: IntegratedDiffusion) -> float:
    """Normalized noise of the probe/conjugate intensity difference."""
    a0, _, c0, _ = _entries(abcd0)
    aw, bw, cw, dw = _entries(abcd_w)
    am, bm, cm, dm = _entries(abcd_mw)
    denom = 2.0 * (abs(a0)**2 + abs(c0)**2)
    if denom < NORMALIZATION_FLOOR:
        raise NormalizationError("intensity-difference noise undefined: zero total gain")
    return (abs(np.conj(a0)*aw - np.conj(c0)*cw)**2 * (1.0 + diff.d_aa)
            + abs(a0*np.conj(am) - c0*np.conj(cm))**2 * (1.0 + diff.d_aa_rev)
            + abs(np.conj(a0)*bw - np.conj(c0)*dw)**2 * (1.0 + diff.d_bb)
            + abs(a0*np.conj(bm) - c0*np.conj(dm))**2 * (1.0 + diff.d_bb_rev)) / denom


def phase_sum_noise_parts(abcd0, abcd_w, abcd_mw,
                          diff: IntegratedDiffusion) -> float:
    """Normalized noise of the probe/conjugate phase sum."""
    a0, _, c0, _ = _entries(abcd0)
    aw, bw, cw, dw = _entries(abcd_w)
    am, bm, cm, dm = _entries(abcd_mw)
    denom = 2.0 * (abs(a0)**2 + abs(c0)**2)
    if denom < NORMALIZATION_FLOOR:
        raise NormalizationError("phase-sum noise undefined: zero total gain")
    return (abs(a0*cw - c0*aw)**2 * (1.0 + diff.d_aa)
            + abs(a0*cm - c0*am)**2 * (1.0 + diff.d_aa_rev)
            + abs(a0*dw - c0*bw)**2 * (1.0 + diff.d_bb)
            + abs(a0*dm - c0*bm)**2 * (1.0 + diff.d_bb_rev)) / denom


@dataclass(frozen=True)
class Observables:
    """Everything read off a medium at one analysis frequency, SQL = 1: the
    mean-field gains |A(0)|^2 and |C(0)|^2, the pair noises, their half sum
    (below 1 witnesses entanglement) and the single-mode probe noise."""

    gain_a: float
    gain_b: float
    S_Nminus: float
    S_phiplus: float
    inseparability: float
    S_Na: float


NOISE_FIELDS = ("S_Nminus", "S_phiplus", "inseparability", "S_Na")


def observables(abcd0, abcd_w, abcd_mw, diff: IntegratedDiffusion) -> Observables:
    """All observables from the transfer matrices at 0, +omega, -omega and
    the integrated diffusion at omega."""
    parts = (abcd0, abcd_w, abcd_mw, diff)
    snm = intensity_difference_noise_parts(*parts)
    sphp = phase_sum_noise_parts(*parts)
    sna = probe_intensity_noise_parts(*parts)
    return Observables(gain_a=abs(abcd0[0, 0])**2, gain_b=abs(abcd0[1, 0])**2,
                       S_Nminus=snm, S_phiplus=sphp,
                       inseparability=0.5 * (snm + sphp), S_Na=sna)


def evaluate(mp: MediumParams, omega: float, *, langevin: bool = True,
             exponent=None) -> Observables:
    """All observables of the medium at analysis frequency omega.

    ``exponent(mp, omegas)`` stacks the 2x2 propagation exponents of an
    array of frequencies; None selects the cold-atom ``generator`` (looked
    up at call time).  It is called once for (0, +omega, -omega), and the
    stack is exponentiated in one call before the diffusion is integrated.
    Without ``langevin`` the diffusion terms are zero.
    """
    abcds = expm((exponent or generator)(mp, np.array([0.0, omega, -omega])))
    diff = integrated_diffusion(mp, omega) if langevin else IntegratedDiffusion.zero()
    return observables(*abcds, diff)


def to_dB(s: float) -> float:
    """Power-convention decibels, 10*log10(s)."""
    if s <= 0:
        raise DomainError(f"to_dB: value must be > 0, got {s}")
    return 10.0 * math.log10(s)


def compute_spectrum(mp: MediumParams, freqs, kind: str,
                     *, langevin: bool = True) -> NoiseSpectrum:
    """One noise observable, a field of Observables named in NOISE_FIELDS,
    on a frequency grid."""
    if kind not in NOISE_FIELDS:
        raise DomainError(f"unknown spectrum kind {kind!r}; one of {NOISE_FIELDS}")
    freqs = np.asarray(freqs, dtype=float)
    values = np.array([getattr(evaluate(mp, w, langevin=langevin), kind)
                       for w in freqs])
    return NoiseSpectrum(freqs=freqs, values=values, label=kind)


def symmetric_grid(max_freq: float, count: int) -> np.ndarray:
    """Frequency grid symmetric about 0 (omits 0 itself), for parity checks."""
    if count < 2 or count % 2:
        raise DomainError("symmetric_grid: count must be even and >= 2")
    half = np.linspace(max_freq / (count // 2), max_freq, count // 2)
    return np.concatenate([-half[::-1], half])
