"""Two-mode propagation through the pumped medium.

The probe/conjugate pair (a, b+) obeys d/dz A = G(omega) A + Langevin
sources over the normalized coordinate z in [0, 1].  The generator folds
the whole dimensional content into the single prefactor
optical_depth * gamma_e / 4, so the input-output transfer is just the
matrix exponential of the generator:

    abcd(omega) = expm( i * (alphaL * Gamma / 4) * T M1'(omega)^-1 S1 ).

Langevin noise enters the spectra through one array of z-integrated
diffusion weights w[+-omega, ..., mode a/b]: the diagonal of the propagated
noise at +omega and at -omega, read off block exponentials (Van Loan, IEEE
TAC 23 (1978) 395): _noise_block forms C = [[-G, K D K^+], [0, G^+]], the
caller takes expm(C) (a whole stack in one call), and _noise_read reads the
integral off it.  Their normalization is computed with them, never stored:
integrated_diffusion and commutator_defect scale by
calibrate_langevin_scale(mp), which requires the output field commutator
to stay canonical at CALIBRATION_FREQ, rather than by microscopic
coupling-constant bookkeeping.

MediumParams fields may be arrays.  Results are stacked to the broadcast
shape of the medium and omega (leading axes), the velocity nodes of a
Doppler average last (MediumParams.at_nodes), then the matrix axes; one
batched inverse per call builds the kernel and screens it for poles.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .atom import AtomParams, build_coherence_system, diffusion_set, steady_state
from .errors import CalibrationError, NormalizationError, PoleError, first, require
from .numkernel import expm
from .units import TWO_PI

# Resonance pole (row flagged, excluded from spectra): the coherence system's 2-norm
# condition number exceeds this, checked exactly unless a cheaper screen rules it out.
POLE_CONDITION_LIMIT = 1e12

# Largest optical depth: far above any cell's, and far from overflow.  No
# generator entry exceeds about 1e12 * optical_depth, as |M1'| >= gamma_e / 2
# and the pole screen bounds |M1'^-1| by POLE_CONDITION_LIMIT / |M1'|.
OPTICAL_DEPTH_LIMIT = 1e100

# Relative imaginary residue allowed when casting a diffusion weight to a
# real number.
DIFFUSION_IMAG_RTOL = 1e-8

# The reference frequency of the Langevin normalization, rad/us.
CALIBRATION_FREQ = TWO_PI * 1.0


@dataclass(frozen=True)
class MediumParams:
    """Atomic medium of given optical depth; fields broadcast like the atom's."""

    atom: AtomParams
    optical_depth: float

    def __post_init__(self):
        require(np.isfinite(self.optical_depth) & ~np.less(self.optical_depth, 0), "MediumParams",
                "optical_depth", "must be finite and >= 0", self.optical_depth)
        require(np.less_equal(self.optical_depth, OPTICAL_DEPTH_LIMIT), "MediumParams",
                "optical_depth", f"must be at most {OPTICAL_DEPTH_LIMIT:g}", self.optical_depth)

    @property
    def shape(self) -> tuple:
        """Broadcast shape of all fields."""
        return np.broadcast_shapes(*map(np.shape, (*vars(self.atom).values(),
                                                   self.optical_depth)))

    def with_atom(self, **changes) -> "MediumParams":
        return dataclasses.replace(self, atom=dataclasses.replace(self.atom, **changes))

    def at_nodes(self, shifts) -> "MediumParams":
        """This medium on a new last (node) axis, with delta1 + shifts."""
        atom = {name: np.expand_dims(value, -1) for name, value in vars(self.atom).items()}
        atom["delta1"] = atom["delta1"] + shifts
        return MediumParams(AtomParams(**atom), np.expand_dims(self.optical_depth, -1))


@dataclass(frozen=True)
class MeanFieldOut:
    """Zero-frequency gains and phases of the two modes."""

    gain_a: float
    gain_b: float
    phase_a: float
    phase_b: float


def _frequencies(shape, *omegas) -> np.ndarray:
    """The analysis frequencies, each broadcast against ``shape`` (a
    medium's), stacked on a new leading axis."""
    shape = np.broadcast_shapes(shape, *map(np.shape, omegas))
    return np.stack([np.broadcast_to(w, shape) for w in omegas])


def _inverse_and_poles(m):
    """(m^-1, mask cond(m) > POLE_CONDITION_LIMIT) of a stack; m^-1 is None
    where inv fails on a pole.  kappa_2 <= kappa_F = |m|_F |m^-1|_F, so if
    every kappa_F is within limit / 2 (2 for rounding in m^-1) there is no
    pole and the SVD of cond is skipped."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if not (poles := np.linalg.cond(m) > POLE_CONDITION_LIMIT).any():
            raise
        return None, poles
    kappa2 = np.prod([np.einsum("...ij,...ij->...", v, v) for v in
                      (np.ascontiguousarray(x).view(float) for x in (m, inv))], axis=0)
    if np.all(kappa2 <= (POLE_CONDITION_LIMIT / 2) ** 2):     # False on a NaN
        return inv, np.zeros(m.shape[:-2], dtype=bool)
    return inv, np.linalg.cond(m) > POLE_CONDITION_LIMIT


def _folded_matmul(a, b):
    """a @ b, bit for bit, with the axes along which b is broadcast folded
    into the rows of a: one BLAS product per distinct b.  A one-row a is not
    folded: numpy's vector kernel rounds it differently."""
    n = max(a.ndim, b.ndim) - 2
    a_lead, b_lead = ((1,) * (n + 2 - x.ndim) + x.shape[:-2] for x in (a, b))
    fold = [i for i in range(n) if b_lead[i] == 1]
    if a.shape[-2] < 2 or not fold:
        return a @ b
    keep = [i for i in range(n) if b_lead[i] != 1]
    rows = a.reshape(a_lead + a.shape[-2:]).transpose(keep + fold + [n, n + 1])
    out = rows.reshape([a_lead[i] for i in keep] + [-1, a.shape[-1]]) \
        @ b.reshape([b_lead[i] for i in keep] + list(b.shape[-2:]))
    out = out.reshape(out.shape[:-2] + rows.shape[len(keep):-1] + b.shape[-1:])
    return out.transpose([(keep + fold).index(i) for i in range(n)] + [n, n + 1])


def _coherence_kernel(mp: MediumParams, omega, ss=None):
    """(generator prefactor, the kernel T M1'(omega)^-1, the generator),
    stacked; ``ss`` is the steady state of mp.atom if already known.

    A non-finite omega raises DomainError.  A pole raises PoleError naming
    the omega of the first pole in stack order, its stack index and the
    last-axis (velocity node) indices of the poles beside it.
    """
    require(np.isfinite(omega), "coherence system", "omega", "must be finite", omega)
    p = mp.atom
    m1p, s1, _ = build_coherence_system(p, steady_state(p) if ss is None else ss, omega)
    inv, poles = _inverse_and_poles(m1p)
    del m1p     # as large as inv: free it before the products
    if poles.any():
        index = np.unravel_index(poles.argmax(), poles.shape)
        at = float(np.broadcast_to(omega, poles.shape)[index])
        raise PoleError(f"coherence system singular at omega = {at:.6g} rad/us", omega=at,
                        nodes=np.flatnonzero(poles[index[:-1]]).tolist(), index=index)
    # t @ inv: t (FIELD_PROJECTOR) keeps rows 0 and 1 of inv, the second
    # negated; selecting them is exact and far cheaper than a product
    kernel = inv[..., :2, :].copy()
    np.negative(kernel[..., 1, :], out=kernel[..., 1, :])
    prefactor = np.expand_dims(mp.optical_depth * p.gamma_e / 4.0, (-2, -1))
    return prefactor, kernel, 1j * prefactor * _folded_matmul(kernel, s1)


def generator(mp: MediumParams, omega) -> np.ndarray:
    """Full 2x2 propagation exponent over normalized z in [0, 1], stacked
    to the broadcast shape of the medium and omega."""
    return _coherence_kernel(mp, omega)[2]


def gains(mp: MediumParams) -> MeanFieldOut:
    """Mean-field gains Ga = |A(0)|^2, Gb = |C(0)|^2 and output phases."""
    abcd = expm(generator(mp, 0.0))
    a0, c0 = abcd[..., 0, 0], abcd[..., 1, 0]
    return MeanFieldOut(gain_a=abs(a0)**2, gain_b=abs(c0)**2,
                        phase_a=np.angle(a0), phase_b=np.angle(c0))


def _noise_block(kernel, gens, dmat):
    """The Van Loan block [[-G, Q], [0, G^+]], Q = K D K^+, of each member."""
    qs = np.broadcast_to(_folded_matmul(kernel, dmat) @ np.swapaxes(kernel.conj(), -1, -2),
                         gens.shape)
    return np.block([[-gens, qs], [np.zeros_like(gens), np.swapaxes(gens.conj(), -1, -2)]])


def _noise_read(weight, f):
    """weight * int_0^1 e^{-Gz} Q e^{-G^+ z} dz, the propagated second moment
    of the coherence noise (diagonal real and >= 0 for D >= 0), 2x2 per
    member: f = expm(_noise_block) = [[e^{-G}, F12], [0, e^{G^+}]] with
    F12 = int_0^1 e^{-G(1-s)} Q e^{G^+ s} ds, so it is exactly F12 e^{-G^+}."""
    with np.errstate(over="ignore", invalid="ignore"):     # inf or NaN is flagged later
        return weight * (f[..., :2, 2:] @ np.swapaxes(f[..., :2, :2].conj(), -1, -2))


def _cast_real(value, who: str):
    tol = DIFFUSION_IMAG_RTOL * np.maximum(abs(value), 1.0)
    if np.any(bad := abs(value.imag) > tol):
        raise NormalizationError(f"{who}: imaginary residue {first(value.imag, bad):.3e} "
                                 f"exceeds {first(tol, bad):.3e}")
    return value.real[()]


def _diffusion(scale, prefactor, f):
    """The real weights w[+-omega, ..., mode a/b] at ``scale``: the diagonal
    of the dsym read-off of the block exponentials f at +-omega."""
    read = _noise_read(np.expand_dims(scale, (-2, -1)) * prefactor, f)
    return _cast_real(np.diagonal(read, axis1=-2, axis2=-1), "integrated diffusion")


def integrated_diffusion(mp: MediumParams, omega):
    """Symmetric-order z-integrated Langevin weights w[+-omega, ..., mode]
    at omega, normalized by calibrate_langevin_scale.

    w[0] uses the kernel at +omega and w[1] the kernel at -omega; the last
    axis holds the weights of mode a and mode b, matching how they weight
    the columns of the transfer matrices in the noise spectra.
    """
    scale = calibrate_langevin_scale(mp)
    prefactor, k, gens = _coherence_kernel(mp, _frequencies(mp.shape, omega, -np.asarray(omega)))
    return _diffusion(scale, prefactor, expm(_noise_block(k, gens, diffusion_set(mp.atom).dsym)))


def _defect(prefactor, f):
    """The unnormalized d1 - d2 integral on the probe row from its block's f."""
    return _cast_real(_noise_read(prefactor, f)[..., 0, 0], "commutator_defect")


def commutator_defect(mp: MediumParams, omega) -> float:
    """Langevin contribution to the output commutator of mode a.

    Uses the antisymmetric combination d1 - d2 projected on the probe row
    at +omega, normalized by calibrate_langevin_scale, so that
    |A(omega)|^2 - |B(omega)|^2 + commutator_defect(omega) = 1 holds at
    CALIBRATION_FREQ.
    """
    scale = calibrate_langevin_scale(mp)
    prefactor, k, gens = _coherence_kernel(mp, omega)
    ds = diffusion_set(mp.atom)
    return scale * _defect(prefactor, expm(_noise_block(k, gens, ds.d1 - ds.d2)))


def _absorbs(mp: MediumParams) -> bool:
    return bool(np.any(np.greater(mp.optical_depth, 0)))


def _langevin_scale(prefactor, abcd, f):
    """The scale from the reference transfer and d1 - d2 block; drops their length-1 axis."""
    raw = _defect(prefactor, f)
    with np.errstate(over="ignore", invalid="ignore"):     # a non-finite scale is flagged below
        deficit = 1.0 - (abs(abcd[..., 0, 0])**2 - abs(abcd[..., 0, 1])**2)
    vanishing = abs(raw) < 1e-14
    if np.any(bad := vanishing & (abs(deficit) > 1e-9)):
        raise CalibrationError(
            f"calibration impossible: commutator deficit {first(deficit, bad):.3e} "
            f"with vanishing diffusion")
    scale = np.where(vanishing, 1.0, deficit / np.where(vanishing, 1.0, raw))
    if np.any(bad := ~(scale > 0)):     # NaN where the noise integral overflowed
        kind = "non-positive" if first(scale, bad) <= 0 else "non-finite"
        raise CalibrationError(f"calibration produced {kind} scale {first(scale, bad):.3e}")
    return scale[0]


def calibrate_langevin_scale(mp: MediumParams) -> float:
    """Positive scale of the Langevin noise of each medium: the one that
    restores the canonical commutator at CALIBRATION_FREQ.

    Solves |A|^2 - |B|^2 + s * (d1 - d2 coefficient) = 1 at the reference
    frequency.  Returns 1 when the identity already holds and the Langevin
    term vanishes (a synthetic pure-gain medium), and exactly 1, forming
    no kernel, when no member has optical depth (_absorbs).
    """
    if not _absorbs(mp):
        return 1.0
    prefactor, k, gens = _coherence_kernel(mp, _frequencies(mp.shape, CALIBRATION_FREQ))
    ds = diffusion_set(mp.atom)
    return _langevin_scale(prefactor, expm(gens), expm(_noise_block(k, gens, ds.d1 - ds.d2)))
