"""Normalized quantum-noise spectra and the inseparability criterion.

All spectra are normalized to the standard quantum limit of a coherent
beam (SQL = 1).  Each observable comes in two flavors: a ``*_parts``
function that combines precomputed transfer matrices and diffusion
coefficients (useful for synthetic input-output matrices), and a wrapper
taking the medium parameters directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError
from .propagation import (IntegratedDiffusion, MediumParams,
                          integrated_diffusion, transfer)

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


def probe_phase_noise_parts(abcd0, abcd_w, abcd_mw,
                            diff: IntegratedDiffusion) -> float:
    """Single-mode phase noise of the probe; identical to the intensity
    noise for this phase-insensitive process."""
    return probe_intensity_noise_parts(abcd0, abcd_w, abcd_mw, diff)


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


def inseparability_parts(abcd0, abcd_w, abcd_mw,
                         diff: IntegratedDiffusion) -> float:
    """Half the sum of intensity-difference and phase-sum noises.

    Values below 1 witness probe/conjugate entanglement (sufficient
    criterion).
    """
    return 0.5 * (intensity_difference_noise_parts(abcd0, abcd_w, abcd_mw, diff)
                  + phase_sum_noise_parts(abcd0, abcd_w, abcd_mw, diff))


def _medium_parts(mp: MediumParams, omega: float, langevin: bool):
    abcd0 = transfer(mp, 0.0).abcd
    abcd_w = transfer(mp, omega).abcd
    abcd_mw = transfer(mp, -omega).abcd
    diff = integrated_diffusion(mp, omega) if langevin \
        else IntegratedDiffusion.zero()
    return abcd0, abcd_w, abcd_mw, diff


def probe_intensity_noise(mp: MediumParams, omega: float,
                          *, langevin: bool = True) -> float:
    return probe_intensity_noise_parts(*_medium_parts(mp, omega, langevin))


def probe_phase_noise(mp: MediumParams, omega: float,
                      *, langevin: bool = True) -> float:
    return probe_phase_noise_parts(*_medium_parts(mp, omega, langevin))


def intensity_difference_noise(mp: MediumParams, omega: float,
                               *, langevin: bool = True) -> float:
    return intensity_difference_noise_parts(*_medium_parts(mp, omega, langevin))


def phase_sum_noise(mp: MediumParams, omega: float,
                    *, langevin: bool = True) -> float:
    return phase_sum_noise_parts(*_medium_parts(mp, omega, langevin))


def inseparability(mp: MediumParams, omega: float,
                   *, langevin: bool = True) -> float:
    return inseparability_parts(*_medium_parts(mp, omega, langevin))


def to_dB(s: float) -> float:
    """Power-convention decibels, 10*log10(s)."""
    if s <= 0:
        raise DomainError(f"to_dB: value must be > 0, got {s}")
    return 10.0 * math.log10(s)


_KINDS = {
    "probe_intensity": probe_intensity_noise,
    "probe_phase": probe_phase_noise,
    "intensity_difference": intensity_difference_noise,
    "phase_sum": phase_sum_noise,
    "inseparability": inseparability,
}


def compute_spectrum(mp: MediumParams, freqs, kind: str,
                     *, langevin: bool = True) -> NoiseSpectrum:
    """Evaluate one noise observable on a frequency grid."""
    if kind not in _KINDS:
        raise DomainError(f"unknown spectrum kind {kind!r}; one of {sorted(_KINDS)}")
    freqs = np.asarray(freqs, dtype=float)
    fn = _KINDS[kind]
    values = np.array([fn(mp, w, langevin=langevin) for w in freqs])
    return NoiseSpectrum(freqs=freqs, values=values, label=kind)


def symmetric_grid(max_freq: float, count: int) -> np.ndarray:
    """Frequency grid symmetric about 0 (omits 0 itself), for parity checks."""
    if count < 2 or count % 2:
        raise DomainError("symmetric_grid: count must be even and >= 2")
    half = np.linspace(max_freq / (count // 2), max_freq, count // 2)
    return np.concatenate([-half[::-1], half])
