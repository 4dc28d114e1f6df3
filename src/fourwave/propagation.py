"""Two-mode propagation through the pumped medium.

The probe/conjugate pair (a, b+) obeys d/dz A = G(omega) A + Langevin
sources over the normalized coordinate z in [0, 1].  The generator folds
the whole dimensional content into the single prefactor
optical_depth * gamma_e / 4, so the input-output transfer is just the
matrix exponential of the generator:

    abcd(omega) = expm( i * (alphaL * Gamma / 4) * T M1'(omega)^-1 S1 ).

Langevin noise enters the spectra through one array of z-integrated
diffusion weights w[+-omega, ..., mode a/b]: the diagonal of the propagated
noise int_0^1 e^{-Gz} K D K^+ e^{-G^+ z} dz at +-omega, the closed form
numkernel.noise_integral(-G, K D K^+), real by construction.  _langevin
forms them for spectra.evaluate, integrated_diffusion and commutator_defect,
with their normalization, never stored: the scale requires the output field
commutator to stay canonical at CALIBRATION_FREQ, the leading members of
each caller's generator stack (_reference), rather than microscopic
coupling-constant bookkeeping.  It assembles the kernel K only on the
members of _screened_generator's stack that carry noise (_kernel), for a
product Q = K D K^+ per group of members with one D each, and passes the
flat rows of -G and of Q to numkernel's noise core; transfers are views of
the exponential core's rows (_transfers).  Their stacks lie on one flat
member axis (_stack): the reference and 0 once per medium, +-omega at every
point, so an omega sweep of N points over one medium forms 2 + 2N members.

MediumParams fields may be arrays.  Results are stacked to the broadcast
shape of the medium and omega (leading axes), the velocity nodes of a
Doppler average last (MediumParams.at_nodes), then the matrix axes.  The
generator is a closed form over det M1' (_screened_generator); only
_kernel, for the Langevin noise, assembles the kernel T M1'^-1.  Member i
of a stack of any size rounds exactly as it does alone (numkernel's
rounding contract): every complex product takes flat contiguous rows and
named operands.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .atom import AtomParams, diffusion_set, steady_state
from .errors import CalibrationError, PoleError, first, require
from .numkernel import _expm_rows, _noise_integral_rows, expm
from .units import TWO_PI

# Resonance pole (row flagged, excluded from spectra): the coherence system's
# Frobenius condition number |M1'|_F |M1'^-1|_F, in closed form, exceeds this.
POLE_CONDITION_LIMIT = 1e12

# Largest optical depth: far above any cell's, and far from overflow.  No
# generator entry exceeds about 1e12 * optical_depth, as |M1'| >= gamma_e / 2
# and a member that is no pole has |M1'^-1|_F <= POLE_CONDITION_LIMIT / |M1'|_F.
OPTICAL_DEPTH_LIMIT = 1e100

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


def _stack(media, shape, *omegas):
    """A generator stack on one flat member axis: the frequencies ``omegas``,
    each broadcast on its own against ``shape`` (the medium's shape ``media``,
    or with its vapor's), as (the frequencies (n,), the flat index of each
    member's medium (n,), the shape of each group), so that a frequency of
    the medium alone (the reference, 0) takes ``shape``."""
    shapes = [np.broadcast_shapes(shape, np.shape(w)) for w in omegas]
    ends = np.cumsum([math.prod(s) for s in shapes])
    freqs, index = np.empty(ends[-1]), np.empty(ends[-1], dtype=int)
    flat = np.arange(math.prod(media)).reshape(media)
    for w, s, start, end in zip(omegas, shapes, [0, *ends], ends):
        freqs[start:end].reshape(s)[...] = w
        index[start:end].reshape(s)[...] = flat
    return freqs, index, shapes


def _screened_generator(mp: MediumParams, omega, ss=None, index=None):
    """(generator prefactor, the generator as rows m00, m01, m10, m11 (4, ...),
    the scale t (N,), the flat factors a, b, h2cdr, hdr, hcr, e0, e5 of T M1'^-1
    for M1' scaled by t) at omega broadcast against the medium and ``ss`` (the
    steady state of mp.atom, if known), or on _stack's flat ``index`` of the
    medium of each member, in closed form, every member screened for poles.
    The operands of the medium alone (h, the steady-state coherences, i pref,
    the population differences, a, b, c, d but omega) are formed once per
    medium, then taken per member.  No kernel is formed: _kernel does that.

    M1' = [[A, -h uu^T], [-h uu^T, C]] with A = diag(a, b), C = diag(c, d),
    u = (1, -1), h = rabi/2 and build_coherence_system's diagonal a, b, c, d.
    The Schur complement C - h^2 (u^T A^-1 u) uu^T is a rank-one update of C,
    so Sherman & Morrison (Ann. Math. Stat. 21 (1950) 124) give
    det M1' = D = ab cd - h^2 (a+b)(c+d) and the symmetric D M1'^-1: rows
    [bcd - h^2(c+d), -h^2(c+d), hbd, -hbc], [-h^2(c+d), acd - h^2(c+d), -had, hac];
    (2,2) abd - h^2(a+b), (2,3) -h^2(a+b), (3,3) abc - h^2(a+b).  T takes row
    0 and minus row 1; the generator is i (optical_depth g/4) T M1'^-1 s1.

    A pole is kappa_F = |M1'|_F |M1'^-1|_F (_kappa2) > POLE_CONDITION_LIMIT, or a
    NaN kappa_F: one closed-form test, no SVD (kappa_2 <= kappa_F <= 4 kappa_2 for
    the 4x4 M1').  PoleError names the omega of the first pole in stack order, its
    stack index (the flat member index of an indexed stack) and the last-axis
    (velocity node) indices of the poles beside it; a non-finite omega raises
    DomainError.
    """
    require(np.isfinite(omega), "coherence system", "omega", "must be finite", omega)
    p = mp.atom
    ss = steady_state(p) if ss is None else ss
    g, gam, w0, dl, d2, i = p.gamma_e, p.gamma_g, p.omega0, p.delta1, p.delta2, 1j
    pref = mp.optical_depth * g / 4.0
    fixed = (i*g/2 + (dl - d2), i*g/2 - (dl + d2 + w0), i*g - (d2 + w0), i*gam - d2,
             p.rabi / 2.0, *ss.coh[::2], i * pref, ss.pops[2] - ss.pops[1],
             ss.pops[0] - ss.pops[3])
    media = np.broadcast(*fixed).shape
    shape = np.broadcast_shapes(media, np.shape(omega)) if index is None else index.shape
    # every operand on the whole stack, flat and contiguous (numpy's contiguous
    # complex multiply fuses multiply-adds, its other loops do not): broadcast
    # against omega, or formed once per medium and taken by index (a Doppler
    # block has nothing to share, and a second buffer of its size beside the
    # stack cost it about 200 us); M1' scaled by a power of two t ~ 1/|entries|
    # (exact) so that D cannot underflow
    m = np.empty((len(fixed),) + (shape if index is None else media), dtype=complex)
    for k, x in enumerate(fixed):
        m[k] = x
    del fixed, x        # dead: a lower peak on big stacks
    m = m.reshape(len(m), -1)
    if index is not None:
        m = m.take(index, axis=1)
    a, b, c, d, h, s31, s42, ipref, n0, n1 = m
    diagonal = m[:4].reshape((4,) + shape)
    diagonal += omega       # a, b, c, d: omega + their value at 0
    t = np.ldexp(1.0, -np.frexp(abs(m[:5]).sum(0))[1])
    m[:5] *= t
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # the screen flags D = 0
        ab, cd, h2, apb = a * b, c * d, h * h, a + b
        h2ab, h2cd = h2 * apb, h2 * (c + d)
        r = 1.0 / (ab * cd - h2cd * apb)
        h2cdr, cdr, hdr, hcr = h2cd * r, cd * r, h * d * r, h * c * r
        e0, e5 = b * cdr - h2cdr, h2cdr - a * cdr
        del cd, h2, apb, h2cd, cdr      # dead: a lower peak on big stacks
        kappa2 = _kappa2(m[:5], ab, h2ab, r, e0, e5, h2cdr)
        # K s1, s1 = [[s33 - s22, 0], [0, s11 - s44], [-s42, s13], [s31, -s24]],
        # the conjugates named (numkernel's rounding contract)
        s13, s24 = s31.conj(), s42.conj()
        u0, u1 = hdr * s42 + hcr * s31, hdr * s13 + hcr * s24
        gens = np.array([e0 * n0 - b * u0, b * u1 - h2cdr * n1,
                         h2cdr * n0 - a * u0, e5 * n1 + a * u1])
        gens *= ipref * t
    if (poles := ~(kappa2 <= POLE_CONDITION_LIMIT**2).reshape(shape)).any():   # NaN too
        at = np.unravel_index(poles.argmax(), shape)
        w = float(np.broadcast_to(omega, shape)[at])
        raise PoleError(f"coherence system singular at omega = {w:.6g} rad/us", omega=w,
                        nodes=np.flatnonzero(poles[at[:-1]]).tolist(), index=at)
    return (np.asarray(pref)[..., None, None], gens.reshape((4,) + shape), t,
            (a, b, h2cdr, hdr, hcr, e0, e5))


def _kappa2(m1p, ab, h2ab, r, e0, e5, h2cdr):
    """kappa_F^2 = |M1'|_F^2 |M1'^-1|_F^2 of each member from rows a, b, c, d, h of
    M1' (``m1p``; 8 entries are +-h) and _screened_generator's flat factors:
    |M1'^-1|_F^2 = |e0|^2 + |e5|^2 + 2|h2cdr|^2 (upper block) + (|abc - h2ab|^2 +
    |abd - h2ab|^2 + 2|h2ab|^2)|r|^2 (lower) + 2(|a|^2 + |b|^2)|h|^2(|c|^2 + |d|^2)|r|^2
    (the off-diagonal blocks, M1'^-1 being symmetric); squares in one real block."""
    sq = np.empty((12, m1p.shape[1]))
    np.abs(m1p, out=sq[:5])
    np.abs(ab * m1p[2:4] - h2ab, out=sq[5:7])
    for x, out in zip((e0, e5, h2cdr, h2ab, r), sq[7:]):
        np.abs(x, out=out)
    sq *= sq
    sa, sb, sc, sd, sh, sabc, sabd, se0, se5, sh2cdr, sh2ab, sr = sq
    frob = sa + sb + sc + sd + 8.0 * sh
    upper = se0 + se5 + 2.0 * sh2cdr
    lower = sabc + sabd + 2.0 * sh2ab
    return frob * (upper + (lower + 2.0 * (sa + sb) * (sc + sd) * sh) * sr)


def _matrices(rows) -> np.ndarray:
    """The (..., 2, k) matrices whose 2k entries, row-major, are ``rows`` (2k, ...)."""
    return np.ascontiguousarray(rows.reshape(len(rows), -1).T).reshape(rows.shape[1:] + (2, -1))


def _kernel(screened, members=slice(None)) -> np.ndarray:
    """The kernel T M1'(omega)^-1 of the members ``members`` (flat indices) of
    the _screened_generator stack ``screened``, from its scale t and flat
    factors, as (k, 2, 4) matrices.  The one place that assembles T M1'^-1:
    rows 0 and minus 1 of D M1'^-1 over D, times t."""
    t, a, b, h2cdr, hdr, hcr, e0, e5 = (x[members] for x in (screened[2], *screened[3]))
    kernel = np.array([e0, -h2cdr, b * hdr, -(b * hcr), h2cdr, e5, a * hdr, -(a * hcr)])
    kernel *= t         # T M1'^-1 of the unscaled M1'
    return _matrices(kernel)


def _transfers(gens, shapes, views=None) -> list:
    """The transfer matrices e^G of flat generator rows ``gens`` (4, n), one
    _expm_rows call, per group of members of ``shapes``: (..., 2, 2) views of
    its rows, a group broadcast to a larger shape in ``views`` as contiguous
    rows (a complex product of a stride-0 operand takes numpy's other loop,
    which rounds differently)."""
    rows, start, out = _expm_rows(*gens), 0, []
    for s, v in zip(shapes, views or shapes):
        x = rows[:, start:start + math.prod(s)]
        start += x.shape[1]
        if v != s:
            x = np.broadcast_to(x.reshape((4,) + (1,) * (len(v) - len(s)) + s), (4,) + v)
            x = x.reshape(4, -1)        # a copy
        out.append(x.T.reshape(v + (2, 2)))
    return out


def generator(mp: MediumParams, omega) -> np.ndarray:
    """Full 2x2 propagation exponent over normalized z in [0, 1], stacked
    to the broadcast shape of the medium and omega."""
    return _matrices(_screened_generator(mp, omega)[1])


def gains(mp: MediumParams) -> MeanFieldOut:
    """Mean-field gains Ga = |A(0)|^2, Gb = |C(0)|^2 and output phases."""
    abcd = expm(generator(mp, 0.0))
    a0, c0 = abcd[..., 0, 0], abcd[..., 1, 0]
    return MeanFieldOut(gain_a=abs(a0)**2, gain_b=abs(c0)**2,
                        phase_a=np.angle(a0), phase_b=np.angle(c0))


def _reference(mp: MediumParams) -> tuple:
    """The reference frequency of the Langevin normalization, as the leading
    members of a kernel stack: CALIBRATION_FREQ if some member has optical
    depth, else none, as the scale of a transparent stack is exactly 1."""
    return (CALIBRATION_FREQ,) if np.any(np.greater(mp.optical_depth, 0)) else ()


def _langevin(mp: MediumParams, screened, abcd_ref, start: int, shape,
              defect: bool = False):
    """The normalized Langevin weights scale * pref * x of the members from
    ``start`` on (of shape ``shape``) of the _screened_generator stack
    ``screened``, whose leading members are the reference, of transfers
    abcd_ref (a list of one, or empty): x = noise_integral(-G, K D K^+) from
    the flat rows of -G and Q, D = d1 - d2 on the reference and dsym on the
    others (d1 - d2 with ``defect``), each D broadcast by the matmul over its
    group; the kernel is assembled on these members only.  The scale makes
    |A|^2 - |B|^2 + scale (the d1 - d2 probe-row weight) = 1 at the
    reference; it is 1 with no reference, and where that identity holds with
    no Langevin term (a synthetic pure-gain medium)."""
    pref, gens = screened[:2]
    ref = [abcd.shape[:-2] for abcd in abcd_ref]
    nref = sum(map(math.prod, ref))
    members = np.concatenate([np.arange(nref), np.arange(start, gens.shape[-1])])
    kernel = _kernel(screened, members)
    ds = diffusion_set(mp.atom)
    d12 = ds.d1 - ds.d2
    # the atom's axes are the trailing axes of each group's members
    groups = [(kernel[:nref].reshape(s + (2, 4)), d12) for s in ref] + [
        (kernel[nref:].reshape(shape + (2, 4)), d12 if defect else ds.dsym)]
    qs = [k @ dm @ np.swapaxes(k.conj(), -1, -2) for k, dm in groups]
    q = (np.concatenate([qm[..., i, j].ravel() for qm in qs]) for i, j in ((0, 0), (0, 1), (1, 1)))
    x = _noise_integral_rows(*-gens[:, members], *q)
    scale = 1.0
    if nref:
        raw = pref[..., 0, 0] * x[0, :nref].reshape(ref[0])   # the unnormalized probe-row weight
        abcd = abcd_ref[0]
        with np.errstate(over="ignore", invalid="ignore"):     # a non-finite scale raises below
            deficit = 1.0 - (abs(abcd[..., 0, 0])**2 - abs(abcd[..., 0, 1])**2)
        vanishing = abs(raw) < 1e-14
        if np.any(bad := vanishing & (abs(deficit) > 1e-9)):
            raise CalibrationError(
                f"calibration impossible: commutator deficit {first(deficit, bad):.3e} "
                f"with vanishing diffusion")
        scale = np.where(vanishing, 1.0, deficit / np.where(vanishing, 1.0, raw))
        if np.any(bad := ~(scale > 0)):     # true for a NaN too
            kind = "non-positive" if first(scale, bad) <= 0 else "non-finite"
            raise CalibrationError(f"calibration produced {kind} scale {first(scale, bad):.3e}")
    return np.expand_dims(scale, -1) * pref[..., 0] * x[:, nref:].T.reshape(shape + (2,))


def _weights(mp: MediumParams, omegas, defect: bool = False):
    """_langevin's weights at the frequencies ``omegas`` (one shape) of mp, on
    a _stack after the reference, (len(omegas), ..., mode)."""
    ref, media = _reference(mp), mp.shape
    freqs, index, shapes = _stack(media, media, *ref, *omegas)
    screened = _screened_generator(mp, freqs, index=index)
    nref = len(ref) * math.prod(media)
    abcd_ref = _transfers(screened[1][:, :nref], shapes[:len(ref)])
    return _langevin(mp, screened, abcd_ref, nref, (len(omegas),) + shapes[-1], defect)


def integrated_diffusion(mp: MediumParams, omega):
    """Symmetric-order z-integrated Langevin weights w[+-omega, ..., mode] at
    omega, normalized by _langevin: w[0] from the kernel at +omega, w[1] at
    -omega, and on the last axis mode a and mode b, as they weight the columns
    of the transfer matrices in the noise spectra."""
    return _weights(mp, (omega, -np.asarray(omega)))


def commutator_defect(mp: MediumParams, omega) -> float:
    """Langevin contribution to the output commutator of mode a: the d1 - d2
    weight on the probe row at +omega, normalized by _langevin, so that
    |A(omega)|^2 - |B(omega)|^2 + commutator_defect(omega) = 1 holds at
    CALIBRATION_FREQ."""
    return _weights(mp, (omega,), defect=True)[0, ..., 0]
