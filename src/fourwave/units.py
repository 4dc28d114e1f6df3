"""Unit system and physical constants.

Internal unit convention: every rate, detuning and analysis frequency is an
angular frequency in rad/us.  This keeps the atomic matrices at entries of
order 1 to 1e4, which is well conditioned for the matrix exponential.
Configuration boundaries accept ordinary frequencies in MHz and multiply by
2*pi exactly once, temperatures in Celsius, lengths in mm/um/nm as labeled.
"""

import math

TWO_PI = 2.0 * math.pi

# SI constants (CODATA 2018)
KB = 1.380649e-23          # J/K
ATOMIC_MASS_KG = 1.66053906660e-27

ATM_TO_PA = 101325.0
ATM_TO_TORR = 760.0

# Rb-85 D1 line, used by convenience constructors only.
RB85_MASS_KG = 85.0 * ATOMIC_MASS_KG
RB85_D1_WAVELENGTH_M = 794.979e-9


def mhz_to_rad_us(f_mhz: float) -> float:
    """Ordinary frequency in MHz to angular frequency in rad/us."""
    return TWO_PI * f_mhz


def celsius_to_kelvin(t_c: float) -> float:
    return t_c + 273.15
