"""Hot-vapor extension: Doppler averaging, transit time, vapor utilities.

The cold-atom propagation generator is averaged over the Maxwell-Boltzmann
velocity distribution by shifting the one-photon detuning per velocity
class, delta1 -> delta1 + k*v, on a last (node) axis of the medium, in one
stacked generator call; the leading axes come from the medium, omega and
the VaporParams, whose fields may be arrays too.  The velocity classes are
one fixed rule, the numkernel.VELOCITY_NODES = 40 Gauss-Hermite nodes of
the distribution.  The distribution is symmetric, so the sign of the shift
is immaterial.  Langevin diffusion is not velocity averaged (the
coefficients change very little); cold-atom diffusion is reused with the
averaged transfer.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .atom import preparation_probability
from .errors import DomainError, PoleError, RangeWarning, first, require
from .numkernel import VELOCITY_NODES, expm
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
    """Cell and beam geometry of a hot vapor, SI units."""

    temperature: float     # K
    atomic_mass: float     # kg
    wavelength: float      # m
    pump_waist: float      # m
    probe_waist: float     # m
    cell_length: float     # m
    cross_section: float   # m^2

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
                probe_waist: float = 300e-6, cell_length: float = 12.5e-3,
                cross_section: float = 1.0e-13) -> "VaporParams":
        return cls(temperature=celsius_to_kelvin(temperature_c),
                   atomic_mass=RB85_MASS_KG, wavelength=RB85_D1_WAVELENGTH_M,
                   pump_waist=pump_waist, probe_waist=probe_waist,
                   cell_length=cell_length, cross_section=cross_section)


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


@functools.cache
def _unit_nodes():
    """Read-only unit-sigma Gauss-Hermite nodes and weights, computed once;
    the weights are renormalized to sum to one, so a constant averages to
    itself."""
    x, w = hermegauss(VELOCITY_NODES)
    w = w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def velocity_nodes(vp: VaporParams):
    """(velocities in m/s, weights, delta1 shifts k*v in rad/us) of the
    Gauss-Hermite velocity nodes, on a last node axis.  A velocity sigma
    that underflows to 0 puts every node at rest: the cold limit."""
    x, weights = _unit_nodes()
    velocities = np.expand_dims(velocity_sigma(vp), -1) * x
    return velocities, weights, np.expand_dims(TWO_PI / vp.wavelength, -1) * velocities * 1e-6


def doppler_generator(mp: MediumParams, vp: VaporParams, omega, ss=None) -> np.ndarray:
    """Velocity-averaged propagation exponent, stacked to the broadcast
    shape of the medium, omega and the vapor.

    Gauss-Hermite average of the cold generator with the detuning shifted
    by k*v per node; ``ss`` is the steady state of those nodes if known.
    The nodes are the last, contiguous axis of _screened_generator's rows
    (4, ..., node): they are weighted and summed along it in place, and only
    the averaged rows become 2x2 matrices.  Any node sitting on a Raman pole
    aborts the average; the error lists the offending velocities at the
    first such omega.
    """
    velocities, weights, shifts = velocity_nodes(vp)
    try:
        rows = _screened_generator(mp.at_nodes(shifts), np.expand_dims(omega, -1), ss)[1]
    except PoleError as exc:
        row = velocities[exc.index[len(exc.index) - velocities.ndim:-1]]
        raise PoleError(
            f"doppler_generator: {len(exc.nodes)} velocity nodes on resonance at "
            f"omega = {exc.omega:.6g}", omega=exc.omega,
            velocities=list(row[exc.nodes])) from exc
    # a running sum adds node by node in node order (a pairwise np.sum may
    # round differently), in place; + 0.0 turns an all -0.0 sum into +0.0
    rows *= weights
    return _matrices(np.cumsum(rows, axis=-1, out=rows)[..., -1] + 0.0)


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


def residual_transmission(mp: MediumParams, vp: VaporParams,
                          probe_detuning: float | None = None):
    """(prepared fraction, front loss factor) for a transiting vapor.

    Atoms that have not reached the pump-dressed stationary state within
    the transit time act as a linear absorber.  The whole loss is lumped
    at the cell entrance: both mode gains are multiplied by the same
    factor exp(-u * alphaL * doppler_profile(detuning)) where u is the
    unprepared fraction and the profile is the Gaussian Doppler absorption
    line evaluated at the probe detuning (defaults to the one-photon
    detuning of the pump).
    """
    prepared = preparation_probability(mp.atom, transit_time(vp))
    unprepared = 1.0 - prepared
    detuning = mp.atom.delta1 if probe_detuning is None else probe_detuning
    two_var = 2.0 * doppler_width(vp)**2
    # A width whose square underflows leaves the profile's limit: 1 on resonance, 0 off it.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        profile = np.where(two_var == 0.0, detuning == 0.0, np.exp(-detuning**2 / two_var))
    return prepared, np.exp(-unprepared * mp.optical_depth * profile)


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


def optical_depth(vp: VaporParams) -> float:
    """Resonant optical depth n * sigma * L of the cell."""
    return vapor_density(vp) * vp.cross_section * vp.cell_length


def doppler_absorption(vp: VaporParams, detuning: float, peak_od: float) -> float:
    """Transmission through an inhomogeneously broadened line.

    T = exp(-peak_od * exp(-detuning^2 / (2 sigma_nu^2))) with the Doppler
    width sigma_nu = omega_0 * sqrt(kB T / (m c^2)) expressed in rad/us,
    the unit of ``detuning``.
    """
    require(~np.less(peak_od, 0), "doppler_absorption", "peak_od", "must be >= 0", peak_od)
    sig = doppler_width(vp)
    return np.exp(-peak_od * np.exp(-detuning**2 / (2.0 * sig**2)))
