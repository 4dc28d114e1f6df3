"""Two-mode propagation through the pumped medium.

The probe/conjugate pair (a, b+) obeys d/dz A = G(omega) A + Langevin
sources over the normalized coordinate z in [0, 1].  The generator folds
the whole dimensional content into the single prefactor
optical_depth * gamma_e / 4, so the input-output transfer is just the
matrix exponential of the generator:

    abcd(omega) = expm( i * (alphaL * Gamma / 4) * T M1'(omega)^-1 S1 ).

Langevin noise enters the spectra through four z-integrated diffusion
coefficients, each read off one block exponential (Van Loan, IEEE TAC 23
(1978) 395); their overall normalization is fixed by requiring that the
output field commutator stays canonical (see calibrate_langevin_scale),
rather than by microscopic coupling-constant bookkeeping.  The generator
takes arrays of frequencies and delta1 shifts (Doppler velocity nodes) and
stacks its exponents, from one batched inverse that also screens for poles.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .atom import AtomParams, build_coherence_system, diffusion_set, steady_state
from .errors import CalibrationError, DomainError, NormalizationError, PoleError
from .numkernel import expm
from .units import TWO_PI

# Resonance pole (row flagged, excluded from spectra): the coherence system's 2-norm
# condition number exceeds this, checked exactly unless a 1-norm screen rules it out.
POLE_CONDITION_LIMIT = 1e12

# Relative imaginary residue allowed when casting a diffusion coefficient
# to a real number.
DIFFUSION_IMAG_RTOL = 1e-8

DEFAULT_CALIBRATION_FREQ = TWO_PI * 1.0   # rad/us


@dataclass(frozen=True)
class MediumParams:
    """Atomic medium of given optical depth.

    ``langevin_scale`` multiplies every integrated diffusion coefficient;
    it is 1 by default and is normally set to calibrate_langevin_scale(mp).
    """

    atom: AtomParams
    optical_depth: float
    langevin_scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.optical_depth) and self.optical_depth >= 0):
            raise DomainError(
                f"MediumParams: optical_depth must be finite and >= 0, "
                f"got {self.optical_depth}")
        if not self.langevin_scale > 0:
            raise DomainError(
                f"MediumParams: langevin_scale must be > 0, got {self.langevin_scale}")

    def with_scale(self, scale: float) -> "MediumParams":
        return dataclasses.replace(self, langevin_scale=scale)

    def with_atom(self, **changes) -> "MediumParams":
        return dataclasses.replace(self, atom=dataclasses.replace(self.atom, **changes))


@dataclass(frozen=True)
class IntegratedDiffusion:
    """The four z-integrated Langevin coefficients entering each spectrum.

    d_aa and d_bb weight the |A(omega)|^2 and |B(omega)|^2 terms; the _rev
    partners weight the matrix evaluated at -omega.  All real, >= 0 up to
    roundoff.
    """

    d_aa: float
    d_aa_rev: float
    d_bb: float
    d_bb_rev: float

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class MeanFieldOut:
    """Zero-frequency gains and phases of the two modes."""

    gain_a: float
    gain_b: float
    phase_a: float
    phase_b: float


def _inverse_and_poles(m):
    """(m^-1, mask cond(m) > POLE_CONDITION_LIMIT) of a stack; m^-1 is None
    where inv fails on a pole.  kappa_2 <= n kappa_1 for n x n m, so if every
    kappa_1 = |m|_1 |m^-1|_1 is within limit / 2n (2 for rounding in m^-1)
    there is no pole and the SVD of cond is skipped."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if not (poles := np.linalg.cond(m) > POLE_CONDITION_LIMIT).any():
            raise
        return None, poles
    kappa = np.linalg.norm(m, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    if np.all(kappa <= POLE_CONDITION_LIMIT / (2 * m.shape[-1])):    # False on a NaN
        return inv, np.zeros(kappa.shape, dtype=bool)
    return inv, np.linalg.cond(m) > POLE_CONDITION_LIMIT


def _coherence_kernel(mp: MediumParams, omega, detuning_shift=0.0):
    """(generator prefactor, the kernel T M1'(omega)^-1, the generator), stacked.

    A pole raises PoleError naming the first omega in stack order that has
    one and the flat indices of its pole shifts.
    """
    p = mp.atom
    ss = steady_state(p, detuning_shift)
    m1p, s1, t = build_coherence_system(p, ss, omega, detuning_shift)
    inv, poles = _inverse_and_poles(m1p)
    if poles.any():
        poles = poles.reshape(np.size(omega), -1)
        first = poles.any(axis=1).argmax()
        at = float(np.ravel(omega)[first])
        raise PoleError(f"coherence system singular at omega = {at:.6g} rad/us",
                        omega=at, nodes=np.flatnonzero(poles[first]).tolist())
    kernel = t @ inv
    prefactor = mp.optical_depth * p.gamma_e / 4.0
    return prefactor, kernel, 1j * prefactor * (kernel @ s1)


def generator(mp: MediumParams, omega, detuning_shift=0.0) -> np.ndarray:
    """Full 2x2 propagation exponent over normalized z in [0, 1] with
    delta1 shifted by ``detuning_shift``, stacked to omega.shape + shift.shape."""
    return _coherence_kernel(mp, omega, detuning_shift)[2]


def gains(mp: MediumParams) -> MeanFieldOut:
    """Mean-field gains Ga = |A(0)|^2, Gb = |C(0)|^2 and output phases."""
    abcd = expm(generator(mp, 0.0))
    a0, c0 = abcd[0, 0], abcd[1, 0]
    return MeanFieldOut(gain_a=abs(a0)**2, gain_b=abs(c0)**2,
                        phase_a=float(np.angle(a0)), phase_b=float(np.angle(c0)))


def _z_integrated(mp, omega, dmat):
    """(int_0^1 e^{-Gz} K D K^+ e^{-G^+ z} dz scaled, G); 2x2 per omega.

    The integral is the propagated second moment of the delta-correlated
    coherence noise; with a Hermitian positive semidefinite D its diagonal
    is real and nonnegative.  It is exact: for C = [[-G, Q], [0, G^+]]
    with Q = K D K^+, expm(C) = [[e^{-G}, F12], [0, e^{G^+}]] where
    F12 = int_0^1 e^{-G(1-s)} Q e^{G^+ s} ds, so F12 e^{-G^+} is the
    integral (Van Loan 1978).  The blocks C of all omegas make one stacked
    exponential; G is returned so the transfer needs no second kernel solve.
    """
    prefactor, kernel, gens = _coherence_kernel(mp, omega)
    qs = kernel @ dmat @ np.swapaxes(kernel.conj(), -1, -2)
    f = expm(np.block([[-gens, qs], [np.zeros_like(gens), np.swapaxes(gens.conj(), -1, -2)]]))
    value = f[..., :2, 2:] @ np.swapaxes(f[..., :2, :2].conj(), -1, -2)
    return mp.langevin_scale * prefactor * value, gens


def _cast_real(value: complex, who: str) -> float:
    tol = DIFFUSION_IMAG_RTOL * max(abs(value), 1.0)
    if abs(value.imag) > tol:
        raise NormalizationError(
            f"{who}: imaginary residue {value.imag:.3e} exceeds {tol:.3e}")
    return float(value.real)


def integrated_diffusion(mp: MediumParams, omega: float) -> IntegratedDiffusion:
    """Symmetric-order z-integrated Langevin coefficients at omega.

    The forward pair uses the kernel at +omega, the _rev pair the kernel
    at -omega, matching how they weight the transfer-matrix entries in the
    noise spectra.
    """
    dsym = diffusion_set(mp.atom).dsym
    (fwd, rev), _ = _z_integrated(mp, np.array([omega, -omega]), dsym)
    return IntegratedDiffusion(
        d_aa=_cast_real(fwd[0, 0], "d_aa"),
        d_aa_rev=_cast_real(rev[0, 0], "d_aa_rev"),
        d_bb=_cast_real(fwd[1, 1], "d_bb"),
        d_bb_rev=_cast_real(rev[1, 1], "d_bb_rev"),
    )


def commutator_defect(mp: MediumParams, omega: float) -> float:
    """Langevin contribution to the output commutator of mode a.

    Uses the antisymmetric combination d1 - d2 projected on the probe row
    at +omega; with the calibrated scale,
    |A(omega)|^2 - |B(omega)|^2 + commutator_defect(omega) = 1.
    """
    ds = diffusion_set(mp.atom)
    return _cast_real(_z_integrated(mp, omega, ds.d1 - ds.d2)[0][0, 0],
                      "commutator_defect")


@functools.lru_cache(maxsize=256)
def calibrate_langevin_scale(mp: MediumParams,
                             omega_ref: float = DEFAULT_CALIBRATION_FREQ) -> float:
    """Positive scale restoring the canonical commutator at omega_ref.

    Solves |A|^2 - |B|^2 + s * (d1 - d2 coefficient) = 1 at the reference
    frequency.  Returns 1 when the identity already holds and the Langevin
    term vanishes (zero optical depth, or a synthetic pure-gain medium).
    Results (not errors) are cached per (medium, omega_ref).  The
    transfer comes from the exponent the diffusion integral already forms.
    """
    ds = diffusion_set(mp.atom)
    x, gen = _z_integrated(mp.with_scale(1.0), omega_ref, ds.d1 - ds.d2)
    abcd = expm(gen)
    deficit = 1.0 - (abs(abcd[0, 0])**2 - abs(abcd[0, 1])**2)
    raw = _cast_real(x[0, 0], "commutator_defect")
    if abs(raw) < 1e-14:
        if abs(deficit) > 1e-9:
            raise CalibrationError(
                f"calibration impossible: commutator deficit {deficit:.3e} "
                f"with vanishing diffusion")
        return 1.0
    scale = deficit / raw
    if scale <= 0:
        raise CalibrationError(f"calibration produced non-positive scale {scale:.3e}")
    return scale


def calibrated(mp: MediumParams,
               omega_ref: float = DEFAULT_CALIBRATION_FREQ) -> MediumParams:
    """Copy of mp with langevin_scale set by calibrate_langevin_scale."""
    return mp.with_scale(calibrate_langevin_scale(mp, omega_ref))
