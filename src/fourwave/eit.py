"""Three-level lambda susceptibility and transparency-window analytics."""

from dataclasses import dataclass

import numpy as np

from .atom import FREQUENCY_LIMIT
from .errors import DomainError, PoleError, require

POLE_ABS_TOL = 1e-15


@dataclass(frozen=True)
class LambdaParams:
    """Lambda-scheme parameters, rates in rad/us.

    ``chi_scale`` replaces the dimensional prefactor (density times dipole
    squared over hbar*epsilon0); all outputs are reported in these units.
    """

    gamma_e: float   # excited-state linewidth
    gamma_g: float   # ground-coherence decay
    delta1: float    # one-photon detuning of the control field
    rabi_c: float    # control Rabi frequency
    chi_scale: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            require(np.isfinite(value), "LambdaParams", name, "must be finite", value)
            if name != "chi_scale":     # a rate, bounded as AtomParams bounds its rates
                require(abs(value) <= FREQUENCY_LIMIT, "LambdaParams", name, "must be at most "
                        f"{FREQUENCY_LIMIT:g} rad/us in magnitude", value)
        require(np.greater(self.gamma_e, 0), "LambdaParams", "gamma_e", "must be > 0", self.gamma_e)
        require(~np.less(self.gamma_g, 0), "LambdaParams", "gamma_g", "must be >= 0", self.gamma_g)
        require(~np.less(self.rabi_c, 0), "LambdaParams", "rabi_c", "must be >= 0", self.rabi_c)
        require(np.greater(self.chi_scale, 0), "LambdaParams", "chi_scale", "must be > 0",
                self.chi_scale)


def susceptibility(lp: LambdaParams, delta2: float) -> complex:
    """Linear probe susceptibility at two-photon detuning delta2.

    chi = scale * 2(gamma + i delta) /
          [2(gamma + i delta)(2(delta - Delta) - i Gamma) - i Omega_c^2]
    """
    gd = lp.gamma_g + 1j * delta2
    denom = 2.0 * gd * (2.0 * (delta2 - lp.delta1) - 1j * lp.gamma_e) \
        - 1j * lp.rabi_c**2
    if abs(denom) < POLE_ABS_TOL:
        raise PoleError(f"susceptibility: pole at delta2 = {delta2}", omega=delta2)
    return lp.chi_scale * 2.0 * gd / denom


def transparency_window(lp: LambdaParams) -> float:
    """EIT window width sqrt(2 gamma_g / gamma_e) * rabi_c, in rad/us."""
    return np.sqrt(2.0 * lp.gamma_g / lp.gamma_e) * lp.rabi_c


def absorption_spectrum(lp: LambdaParams, grid) -> np.ndarray:
    """Im chi sampled on a detuning grid (absorption profile)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("absorption_spectrum: empty detuning grid")
    return np.array([susceptibility(lp, d).imag for d in grid])


def absorption_peak_separation(lp: LambdaParams, grid) -> float:
    """Distance between the two absorption maxima on the given grid.

    Operational definition of the transparency window: the split between
    the two largest local maxima of Im chi.
    """
    grid = np.asarray(grid, dtype=float)
    spec = absorption_spectrum(lp, grid)
    interior = (spec[1:-1] > spec[:-2]) & (spec[1:-1] >= spec[2:])
    peaks = np.where(interior)[0] + 1
    if peaks.size < 2:
        raise DomainError("absorption_peak_separation: fewer than two maxima on grid")
    order = peaks[np.argsort(spec[peaks])][-2:]
    return abs(grid[order[1]] - grid[order[0]])
