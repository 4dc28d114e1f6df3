"""Hot-vapor extension: Doppler averaging, transit time, vapor utilities.

The cold-atom propagation generator is averaged over the Maxwell-Boltzmann
velocity distribution by shifting the one-photon detuning per velocity
class, delta1 -> delta1 + k*v, on a last (node) axis of the medium, one
stacked generator call per frequency group (spectra.evaluate's 0 on the
medium, +omega and -omega at every point); the leading axes come from the
medium, omega and the VaporParams, whose fields may be arrays too.  The
velocity classes are one fixed rule, the numkernel.VELOCITY_NODES = 40
Gauss-Hermite nodes of the distribution, stored below as constants:
numpy's hermegauss(40), which the tests check them against, is not called
at run time.  The distribution is symmetric, so the sign of the shift is
immaterial.  Langevin diffusion is not velocity averaged (the coefficients
change very little); cold-atom diffusion is reused with the averaged
transfer.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .atom import preparation_probability, steady_state
from .errors import DomainError, RangeWarning, first, require
from .numkernel import expm
from .propagation import MediumParams, _matrices, _screened_generator, generator
from .units import (ATM_TO_PA, ATM_TO_TORR, KB, RB85_D1_WAVELENGTH_M,
                    RB85_MASS_KG, TWO_PI, celsius_to_kelvin)

# Empirical saturated-vapor-pressure fit, liquid phase:
# log10 p(atm) = PRESSURE_A - PRESSURE_B / T.
PRESSURE_A = 4.312
PRESSURE_B = 4040.0
PRESSURE_FIT_RANGE_K = (290.0, 430.0)


@dataclass(frozen=True)
class VaporParams:
    """Temperature, atom and beam geometry of a hot vapor, SI units."""

    temperature: float     # K
    atomic_mass: float     # kg
    wavelength: float      # m
    pump_waist: float      # m
    probe_waist: float     # m

    def __post_init__(self):
        for name, value in vars(self).items():
            require(np.isfinite(value) & np.greater(value, 0), "VaporParams", name,
                    "must be finite and > 0", value)
        if np.any(bad := ~np.greater(self.pump_waist, self.probe_waist)):
            pump = first(self.pump_waist, bad)
            raise DomainError(f"VaporParams: pump_waist must be > probe_waist "
                              f"({first(self.probe_waist, bad)}), got {pump}",
                              "pump_waist", "must be >", pump, other="probe_waist")

    @classmethod
    def rb85_d1(cls, temperature_c: float = 120.0, pump_waist: float = 600e-6,
                probe_waist: float = 300e-6) -> "VaporParams":
        return cls(temperature=celsius_to_kelvin(temperature_c),
                   atomic_mass=RB85_MASS_KG, wavelength=RB85_D1_WAVELENGTH_M,
                   pump_waist=pump_waist, probe_waist=probe_waist)


def velocity_sigma(vp: VaporParams) -> float:
    """1D velocity standard deviation sqrt(kB T / m), m/s."""
    return np.sqrt(KB * vp.temperature / vp.atomic_mass)


def mean_speed(vp: VaporParams) -> float:
    """Mean speed sqrt(2 kB T / m), m/s."""
    return np.sqrt(2.0 * KB * vp.temperature / vp.atomic_mass)


def maxwell_pdf(vp: VaporParams, v: float) -> float:
    """1D Maxwell-Boltzmann velocity density, 1/(m/s)."""
    sig = velocity_sigma(vp)
    return np.exp(-v**2 / (2.0 * sig**2)) / (sig * np.sqrt(2.0 * np.pi))


def doppler_width(vp: VaporParams) -> float:
    """Doppler width of the optical line, rad/us.

    Equals the std of the per-atom detuning shift k*v as well as
    omega_line * sqrt(kB T / (m c^2)).
    """
    return (TWO_PI / vp.wavelength) * velocity_sigma(vp) * 1e-6


# The positive half of the unit-sigma 40-node Gauss-Hermite rule: numpy's
# hermegauss(40) with the weights divided by their sum, so a constant averages
# to itself.  That rule is exactly symmetric, so mirroring the half rebuilds
# all 40 nodes bit for bit; the velocity average reads them read-only.
_HALF_NODES = np.array((
    0.24683289602272435, 0.7408707252859305, 1.2360320047991582, 1.7330905906317213,
    2.232859218634872, 2.736208340465431, 3.24408873299987, 3.757559776168986,
    4.2778261563627495, 4.8062871920938735, 5.344605445720086, 5.894805675372018,
    6.459423377583767, 7.041738406453829, 7.646163764541462, 8.278940623659476,
    8.949504543855554, 9.673556366934031, 10.481560534674266, 11.45337784154873))
_HALF_WEIGHTS = np.array((
    0.19105900966199035, 0.14992111176357076, 0.09217657917006077, 0.04427455520227685,
    0.016537844142569407, 0.004773544881823359, 0.0010558790169018133,
    0.00017707292879924041, 2.221177143247588e-05, 2.0488974360814553e-06,
    1.360342421574878e-07, 6.32589718854888e-09, 1.9891185260277719e-10,
    4.037638581695203e-12, 4.968088529197764e-14, 3.3898534432483364e-16,
    1.12227520682712e-18, 1.4486094315515697e-21, 4.820467940200815e-25,
    1.461839873869401e-29))
_UNIT_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_UNIT_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))
_UNIT_NODES.flags.writeable = _UNIT_WEIGHTS.flags.writeable = False


def velocity_nodes(vp: VaporParams):
    """(velocities in m/s, weights, delta1 shifts k*v in rad/us) of the
    Gauss-Hermite velocity nodes, on a last node axis: the stored unit-sigma
    rule scaled by the velocity sigma, with the weights as that one
    read-only array.  A velocity sigma that underflows to 0 puts every node
    at rest: the cold limit."""
    velocities = np.expand_dims(velocity_sigma(vp), -1) * _UNIT_NODES
    shifts = np.expand_dims(TWO_PI / vp.wavelength, -1) * velocities * 1e-6
    return velocities, _UNIT_WEIGHTS, shifts


def _doppler_rows(mp: MediumParams, vp: VaporParams, omegas, ss=None) -> list:
    """The velocity-averaged generator rows (4, ...) of each frequency group
    of ``omegas``, in order, each broadcast on its own against the medium and
    the vapor; ``ss`` is the steady state of the node medium if known.

    The node medium and its steady state are formed once, every group's
    omega is checked, then each group takes one _screened_generator call.
    The nodes are the last, contiguous axis of its rows (4, ..., node): they
    are weighted and summed along it in place.  Any node sitting on a Raman
    pole aborts the average with _screened_generator's PoleError, at the
    first such omega, groups in order.
    """
    _, weights, shifts = velocity_nodes(vp)
    nodes = mp.at_nodes(shifts)
    omegas = [np.expand_dims(w, -1) for w in omegas]
    for w in omegas:        # every group's checks come first, as in one call
        require(np.isfinite(w), "coherence system", "omega", "must be finite", w)
    ss = steady_state(nodes.atom) if ss is None else ss
    averages = []
    for w in omegas:
        rows = _screened_generator(nodes, w, ss)[1]
        # a running sum adds node by node in node order (a pairwise np.sum may
        # round differently), in place; + 0.0 turns an all -0.0 sum into +0.0
        rows *= weights
        averages.append(np.cumsum(rows, axis=-1, out=rows)[..., -1] + 0.0)
    return averages


def doppler_generator(mp: MediumParams, vp: VaporParams, omega) -> np.ndarray:
    """Velocity-averaged propagation exponent, stacked to the broadcast
    shape of the medium, omega and the vapor: the Gauss-Hermite average of
    the cold generator with the detuning shifted by k*v per node, as one
    frequency group of _doppler_rows."""
    return _matrices(_doppler_rows(mp, vp, (omega,))[0])


@dataclass(frozen=True)
class SliceDeviation:
    """Outcome of the sliced-medium commutation check."""

    product_vs_sum: float   # max entrywise |ordered product - exp(sum)|
    reshuffled: float       # max entrywise deviation after reshuffling slices


def slice_consistency(mp: MediumParams, vp: VaporParams, omega: float,
                      n_slices: int, seed: int) -> SliceDeviation:
    """Ordered product of per-slice exponentials versus summed exponents.

    Draws n_slices velocities from the Maxwell distribution, assigns each
    slice 1/n_slices of the optical depth at its shifted detuning, and
    compares the ordered product of slice exponentials with the
    exponential of the summed exponents.  Also reports the deviation under
    a random reshuffle of the slice order.
    """
    require(n_slices >= 100, "slice_consistency", "n_slices", "must be >= 100", n_slices)
    rng = np.random.default_rng(seed)
    k = TWO_PI / vp.wavelength
    velocities = rng.normal(0.0, velocity_sigma(vp), n_slices)
    exponents = generator(mp.with_atom(delta1=mp.atom.delta1 + k * velocities * 1e-6),
                          omega) / n_slices
    slabs = expm(exponents)

    def ordered_product(idx):
        acc = np.eye(2, dtype=complex)
        for i in idx:
            acc = slabs[i] @ acc
        return acc

    product = ordered_product(range(n_slices))
    summed = expm(sum(exponents))
    reshuffled = ordered_product(rng.permutation(n_slices))
    return SliceDeviation(
        product_vs_sum=float(np.max(np.abs(product - summed))),
        reshuffled=float(np.max(np.abs(reshuffled - product))))


def transit_time(vp: VaporParams) -> float:
    """Pump-to-probe transit time (pump_waist - probe_waist)/mean_speed, us."""
    return (vp.pump_waist - vp.probe_waist) / mean_speed(vp) * 1e6


def _doppler_profile(vp: VaporParams, detuning):
    """Gaussian Doppler absorption line exp(-detuning^2 / (2 sigma_nu^2)),
    1 at its peak.  A width whose square underflows leaves the profile's
    limit: 1 on resonance, 0 off it."""
    two_var = 2.0 * doppler_width(vp)**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(two_var == 0.0, detuning == 0.0, np.exp(-detuning**2 / two_var))


def residual_transmission(mp: MediumParams, vp: VaporParams):
    """(prepared fraction, front loss factor) for a transiting vapor.

    Atoms that have not reached the pump-dressed stationary state within
    the transit time act as a linear absorber.  The whole loss is lumped
    at the cell entrance: both mode gains are multiplied by the same
    factor exp(-u * alphaL * doppler_profile(delta1)), u the unprepared
    fraction, alphaL the medium's optical_depth.  The Gaussian Doppler
    line reads alphaL as its peak depth, where the generator reads it as
    the homogeneous n*sigma0*L, and drops the Lorentz wings: an open
    defect (ROADMAP item 15).
    """
    prepared = preparation_probability(mp.atom, transit_time(vp))
    unprepared = 1.0 - prepared
    return prepared, np.exp(-unprepared * mp.optical_depth * _doppler_profile(vp, mp.atom.delta1))


def saturated_vapor_pressure_atm(temperature: float) -> float:
    """Saturated vapor pressure in atm from the liquid-phase fit."""
    return 10.0 ** (PRESSURE_A - PRESSURE_B / temperature)


def saturated_vapor_pressure_torr(temperature: float) -> float:
    return saturated_vapor_pressure_atm(temperature) * ATM_TO_TORR


def vapor_fraction(temperature: float) -> float:
    """Empirical fraction of atoms actually in the vapor phase.

    x(T) = (20.7 - 0.11 * T_Celsius) / 100, from cell absorption
    measurements; valid only inside PRESSURE_FIT_RANGE_K.
    """
    t_c = temperature - 273.15
    return (20.7 - 0.11 * t_c) / 100.0


def vapor_density(vp: VaporParams) -> float:
    """Atom number density in the vapor phase, atoms/m^3.

    Ideal-gas density from the pressure fit, corrected by the empirical
    vapor fraction.  Outside the fitted temperature range a RangeWarning
    is emitted and the extrapolated value is still returned.
    """
    t = vp.temperature
    lo, hi = PRESSURE_FIT_RANGE_K
    if np.any(outside := np.less(t, lo) | np.greater(t, hi)):
        warnings.warn(
            f"vapor_density: T = {first(t, outside):.1f} K outside fitted range [{lo}, {hi}] K",
            RangeWarning, stacklevel=2)
    pressure_pa = saturated_vapor_pressure_atm(t) * ATM_TO_PA
    return vapor_fraction(t) * pressure_pa / (KB * t)


def doppler_absorption(vp: VaporParams, detuning: float, peak_od: float) -> float:
    """Transmission through an inhomogeneously broadened line.

    T = exp(-peak_od * exp(-detuning^2 / (2 sigma_nu^2))) with the Doppler
    width sigma_nu = omega_0 * sqrt(kB T / (m c^2)) expressed in rad/us,
    the unit of ``detuning``.  A width whose square underflows gives the
    limit: exp(-peak_od) on resonance and 1 off it.  ``peak_od`` is a
    Gaussian peak depth, not the generator's homogeneous n*sigma0*L: the
    Gaussian line drops the Lorentz wings.
    """
    require(~np.less(peak_od, 0), "doppler_absorption", "peak_od", "must be >= 0", peak_od)
    return np.exp(-peak_od * _doppler_profile(vp, detuning))
