"""Normalized quantum-noise spectra and the inseparability criterion.

All spectra are normalized to the standard quantum limit of a coherent
beam (SQL = 1).  Every observable is read off the same objects: the
two-mode input-output (ABCD) matrix M at 0, +omega and -omega and the
z-integrated Langevin weights w[+-omega, mode] at omega, normalized by
propagation._langevin.  Each noise spectrum is the noise of
one output combination c of the two modes (a, b+), one quadratic form

    S = sum over modes k in (a, b) and over +-omega of
        |c . M[:, k]|^2 (1 + w[k]) / denom,

with, from the transfer at 0 (a0 = A(0), c0 = C(0)):

    S_Na       c = (1, 0)                over 2
    S_Nminus   c = (conj a0, -conj c0)   over 2 (|a0|^2 + |c0|^2)
    S_phiplus  c = (-c0, a0)             over 2 (|a0|^2 + |c0|^2)

``evaluate`` builds those objects once for a stack of media and
frequencies, normalization included (one generator stack, one call of the
exponential core and one of the noise core), and returns all observables
as an ``Observables``; ``observables`` does the same for precomputed (e.g.
synthetic) matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, require
from .propagation import (MediumParams, _langevin, _reference, _screened_generator, _stack,
                          _transfers)

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


def evaluate(mp: MediumParams, omega, *, langevin: bool = True,
             vapor=None) -> Observables:
    """All observables of the media mp at analysis frequencies omega, stacked
    to their broadcast shape (and the vapor's).

    Order of work: one generator stack on a flat member axis (_stack): the
    reference (CALIBRATION_FREQ) and 0 once per medium, +omega and -omega at
    every point, each member screened for poles -> for a VaporParams
    ``vapor``, the Doppler averages of the same groups 0, +omega and -omega
    (vapor._doppler_rows, one call each) in place of theirs, after the
    reference (the noise keeps the atom at rest) -> one exponential-core call
    on every exponent, read as (..., 2, 2) views, A(0) and C(0) broadcast to
    every point -> propagation._langevin on the reference and +-omega
    members: their kernel only, one noise-core call, the normalization checks
    and scale, the diffusion weights -> the observables.  The reference is in
    the stack only with ``langevin`` and if some member has optical depth
    (propagation._reference; else the scale is exactly 1); without
    ``langevin`` the diffusion is zero.
    """
    media = shape = mp.shape
    if vapor is not None:
        from .vapor import _doppler_rows, doppler_width
        shape = np.broadcast_shapes(shape, np.shape(doppler_width(vapor)))
    ref = _reference(mp) if langevin else ()
    r, rest = len(ref), math.prod(shape)
    groups = (0.0, omega, -np.asarray(omega))
    freqs, index, shapes = _stack(media, shape, *ref, *groups)
    point = shapes[-1]
    screened = _screened_generator(mp, freqs, index=index)
    exps = screened[1]
    if vapor is not None:       # the averages after the reference
        averages = [rows.reshape(4, -1) for rows in _doppler_rows(mp, vapor, groups)]
        exps = np.concatenate([exps[:, :r * rest], *averages], axis=1)
    abcds = _transfers(exps, shapes, shapes[:r] + [point] * 3)     # A(0), C(0) at every point
    if not langevin:
        return observables(*abcds, np.zeros((2, 2)))
    return observables(*abcds[r:], _langevin(mp, screened, abcds[:r], (r + 1) * rest, (2,) + point))


def to_dB(s: float) -> float:
    """Power-convention decibels, 10*log10(s)."""
    require(np.greater(s, 0), "to_dB", "value", "must be > 0", s)
    return 10.0 * np.log10(s)
