"""Normalized quantum-noise spectra and the inseparability criterion.

All spectra are normalized to the standard quantum limit of a coherent
beam (SQL = 1).  Every observable is read off the same objects: the
two-mode input-output (ABCD) matrix M at 0, +omega and -omega and the
z-integrated Langevin weights w[+-omega, mode] at omega, normalized as in
propagation.calibrate_langevin_scale.  Each noise spectrum is the noise of
one output combination c of the two modes (a, b+), one quadratic form

    S = sum over modes k in (a, b) and over +-omega of
        |c . M[:, k]|^2 (1 + w[k]) / denom,

with, from the transfer at 0 (a0 = A(0), c0 = C(0)):

    S_Na       c = (1, 0)                over 2
    S_Nminus   c = (conj a0, -conj c0)   over 2 (|a0|^2 + |c0|^2)
    S_phiplus  c = (-c0, a0)             over 2 (|a0|^2 + |c0|^2)

``evaluate`` builds those objects once for a stack of media and
frequencies, normalization included (its kernels in two stacks, per medium
and per point; one expm and one noise_integral call), and returns all
observables as an ``Observables``; ``observables`` does the same for
precomputed (e.g. synthetic) matrices.
"""

from dataclasses import dataclass

import numpy as np

from .atom import diffusion_set, steady_state
from .errors import NormalizationError, require
from .numkernel import expm, noise_integral
from .propagation import (CALIBRATION_FREQ, MediumParams, _absorbs, _coherence_kernel,
                          _frequencies, _langevin_scale, _noise_operands)

NORMALIZATION_FLOOR = 1e-30


def _read_off(c, abcd_w, abcd_mw, weights, denom):
    """The noise of the output combination c: |c . M[:, k]|^2 (1 + w[k]) over
    denom, summed over the modes k and, inside, over +omega and -omega."""
    return sum(abs(c[0] * m[..., 0, k] + c[1] * m[..., 1, k])**2 * (1.0 + w[..., k])
               for k in (0, 1) for m, w in zip((abcd_w, abcd_mw), weights)) / denom


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


@np.errstate(over="ignore", invalid="ignore")     # a blow-up ends as a flagged non-finite value
def observables(abcd0, abcd_w, abcd_mw, weights) -> Observables:
    """All observables from the transfer matrices at 0, +omega, -omega and
    the real diffusion weights w[+-omega, ..., mode a/b] at omega (all zero,
    e.g. np.zeros((2, 2)), without Langevin noise)."""
    a0, c0 = abcd0[..., 0, 0], abcd0[..., 1, 0]
    gain_a, gain_b = abs(a0)**2, abs(c0)**2
    denom = 2.0 * (gain_a + gain_b)
    if np.any(denom < NORMALIZATION_FLOOR):
        raise NormalizationError("intensity-difference noise undefined: zero total gain")
    if np.any(gain_a < NORMALIZATION_FLOOR):
        raise NormalizationError("probe noise undefined at zero probe gain")
    parts = (abcd_w, abcd_mw, weights)
    snm = _read_off((np.conj(a0), -np.conj(c0)), *parts, denom)
    sphp = _read_off((-c0, a0), *parts, denom)
    return Observables(gain_a=gain_a, gain_b=gain_b, S_Nminus=snm, S_phiplus=sphp,
                       inseparability=0.5 * (snm + sphp),
                       S_Na=_read_off((1.0, 0.0), *parts, 2.0))


def _in_one_call(kernel, parts) -> list:
    """kernel (expm or noise_integral) of each part's (..., 2, 2) operand stacks
    in one call, exact as kernel(stack)[i] is kernel(stack[i])."""
    flat = kernel(*(np.concatenate([x.reshape(-1, 2, 2) for x in xs]) for xs in zip(*parts)))
    ends = np.cumsum([part[0].size // 4 for part in parts])[:-1]
    return [out.reshape(part[0].shape[:-2] + out.shape[1:])
            for part, out in zip(parts, np.split(flat, ends))]


def evaluate(mp: MediumParams, omega, *, langevin: bool = True,
             vapor=None) -> Observables:
    """All observables of the media mp at analysis frequencies omega, stacked
    to their broadcast shape (and the vapor's).

    Order of work: steady state (for a VaporParams ``vapor``, of its
    velocity nodes and, last, the atom at rest) -> every kernel,
    each screened for poles -> one expm of every exponent and one
    noise_integral of every Langevin source -> the normalization checks and
    scale -> the diffusion weights -> the observables.  Two kernel stacks:
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
        shifts = velocity_nodes(vapor)[2]
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
        gens.append(doppler_generator(mp, vapor, _frequencies(shape, 0.0, *pm),
                                      nodes.take(slice(-1))))
        points = _coherence_kernel(mp, pm, ss) if langevin else None
    abcds = _in_one_call(expm, [(g,) for g in gens])
    abcd0, abcd_w, abcd_mw = (abcds[0][-1], *abcds[1]) if vapor is None else abcds[-1]
    abcd0 = np.broadcast_to(abcd0, abcd_w.shape)      # a view: one transfer per medium
    if not langevin:
        return observables(abcd0, abcd_w, abcd_mw, np.zeros((2, 2)))
    ds = diffusion_set(mp.atom)
    parts = [_noise_operands(medium[1][:1], medium[2][:1], ds.d1 - ds.d2)] if ref else []
    *x_ref, x_pm = _in_one_call(noise_integral,
                                parts + [_noise_operands(points[1], points[2], ds.dsym)])
    scale = _langevin_scale(medium[0], abcds[0][:1], *x_ref) if ref else 1.0
    weights = np.expand_dims(scale, -1) * points[0][..., 0] * x_pm
    return observables(abcd0, abcd_w, abcd_mw, weights)


def to_dB(s: float) -> float:
    """Power-convention decibels, 10*log10(s)."""
    require(np.greater(s, 0), "to_dB", "value", "must be > 0", s)
    return 10.0 * np.log10(s)
