"""Normalized quantum-noise spectra and the inseparability criterion.

All spectra are normalized to the standard quantum limit of a coherent
beam (SQL = 1).  Every observable is read off the same objects: the
two-mode input-output (ABCD) matrix at 0, +omega and -omega and the four
z-integrated Langevin coefficients at omega, normalized as in
propagation.calibrate_langevin_scale.  ``evaluate`` builds those objects
once for a stack of media and frequencies, normalization included (its
kernels in two stacks, per medium and per point; all exponentials in two
calls), and returns all observables as an ``Observables``; ``observables``
does the same for precomputed (e.g. synthetic) matrices.  The ``*_parts``
functions are the single formulas both of them combine.
"""

from dataclasses import dataclass

import numpy as np

from .atom import diffusion_set, steady_state
from .errors import NormalizationError, require
from .numkernel import DEFAULT_VELOCITY_ORDER, expm
from .propagation import (CALIBRATION_FREQ, IntegratedDiffusion, MediumParams, _absorbs,
                          _coherence_kernel, _diffusion, _frequencies, _langevin_scale,
                          _noise_block)

NORMALIZATION_FLOOR = 1e-30


def _entries(abcd):
    return abcd[..., 0, 0], abcd[..., 0, 1], abcd[..., 1, 0], abcd[..., 1, 1]


def probe_intensity_noise_parts(abcd0, abcd_w, abcd_mw,
                                diff: IntegratedDiffusion) -> float:
    """Single-mode intensity noise of the probe, SQL = 1.

    One half of the diffusion-weighted sum of |A|^2 and |B|^2 at both
    signs of the analysis frequency; the output photon number used for
    normalization cancels, so only the SQL reference remains.
    """
    if np.any(abs(abcd0[..., 0, 0])**2 < NORMALIZATION_FLOOR):
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
    if np.any(denom < NORMALIZATION_FLOOR):
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
    if np.any(denom < NORMALIZATION_FLOOR):
        raise NormalizationError("phase-sum noise undefined: zero total gain")
    return (abs(a0*cw - c0*aw)**2 * (1.0 + diff.d_aa)
            + abs(a0*cm - c0*am)**2 * (1.0 + diff.d_aa_rev)
            + abs(a0*dw - c0*bw)**2 * (1.0 + diff.d_bb)
            + abs(a0*dm - c0*bm)**2 * (1.0 + diff.d_bb_rev)) / denom


@dataclass(frozen=True)
class Observables:
    """Everything read off a medium at an analysis frequency, SQL = 1: the
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
    return Observables(gain_a=abs(abcd0[..., 0, 0])**2, gain_b=abs(abcd0[..., 1, 0])**2,
                       S_Nminus=snm, S_phiplus=sphp,
                       inseparability=0.5 * (snm + sphp), S_Na=sna)


def _expm_each(stacks) -> list:
    """expm of each (..., n, n) stack in one call; exact, per expm's contract."""
    flat = expm(np.concatenate([s.reshape(-1, *s.shape[-2:]) for s in stacks]))
    ends = np.cumsum([s.size // s.shape[-1]**2 for s in stacks])[:-1]
    return [part.reshape(s.shape) for s, part in zip(stacks, np.split(flat, ends))]


def evaluate(mp: MediumParams, omega, *, langevin: bool = True,
             vapor=None, order: int = DEFAULT_VELOCITY_ORDER) -> Observables:
    """All observables of the media mp at analysis frequencies omega, stacked
    to their broadcast shape (and the vapor's).

    Order of work: steady state (for a VaporParams ``vapor``, of its
    ``order`` velocity nodes and, last, the atom at rest) -> every kernel,
    each screened for poles -> one expm of every 2x2 exponent and one of
    every 4x4 Van Loan block -> the normalization checks and scale -> the
    diffusion read-off -> the observables.  The kernels form two stacks:
    per medium, CALIBRATION_FREQ (with ``langevin``, if some member has
    optical depth, else the scale is exactly 1) and 0; per point, +-omega.
    A vapor has doppler_generator's exponents at 0 and +-omega, the atom at
    rest's kernels elsewhere.  Without ``langevin`` the diffusion is zero.
    """
    shape = mp.shape
    if vapor is None:
        ss = steady_state(mp.atom)
    else:
        from .vapor import doppler_generator, velocity_nodes
        shifts = velocity_nodes(vapor, order)[2]
        shape = np.broadcast_shapes(shape, shifts.shape[:-1])
        rest = np.zeros(shifts.shape[:-1] + (1,))
        nodes = steady_state(mp.at_nodes(np.concatenate([shifts, rest], axis=-1)).atom)
        ss = nodes.take(-1)
    ref = (CALIBRATION_FREQ,) if langevin and _absorbs(mp) else ()
    pm = _frequencies(shape, omega, -np.asarray(omega))
    if vapor is None:
        medium = _coherence_kernel(mp, _frequencies(shape, *ref, 0.0), ss)
        points = _coherence_kernel(mp, pm, ss)
        gens = [medium[2], points[2]]
    else:
        medium = _coherence_kernel(mp, _frequencies(shape, *ref), ss) if ref else None
        gens = [medium[2]] if ref else []
        gens.append(doppler_generator(mp, vapor, _frequencies(shape, 0.0, *pm), order,
                                      nodes.take(slice(-1))))
        points = _coherence_kernel(mp, pm, ss) if langevin else None
    abcds = _expm_each(gens)
    abcd0, abcd_w, abcd_mw = (abcds[0][-1], *abcds[1]) if vapor is None else abcds[-1]
    abcd0 = np.broadcast_to(abcd0, abcd_w.shape)      # a view: one transfer per medium
    if not langevin:
        return observables(abcd0, abcd_w, abcd_mw, IntegratedDiffusion.zero())
    ds = diffusion_set(mp.atom)
    blocks = [_noise_block(medium[1][:1], medium[2][:1], ds.d1 - ds.d2)] if ref else []
    *f_ref, f_pm = _expm_each(blocks + [_noise_block(points[1], points[2], ds.dsym)])
    scale = _langevin_scale(medium[0], abcds[0][:1], *f_ref) if ref else 1.0
    return observables(abcd0, abcd_w, abcd_mw, _diffusion(scale, points[0], f_pm))


def to_dB(s: float) -> float:
    """Power-convention decibels, 10*log10(s)."""
    require(np.greater(s, 0), "to_dB: value must be > 0", s)
    return 10.0 * np.log10(s)
