"""Cross-model limits: the double-lambda generator against the models it
reduces to.

Lambda-EIT: as the hyperfine splitting omega0 grows, the second excited
level drops out, and the probe row of the generator at omega = 0 becomes the
three-level lambda susceptibility of eit.susceptibility with the same
linewidth, ground decay, one-photon detuning Delta = delta1 and control Rabi
frequency Omega_c = Omega: G00(0) / (2i optical_depth gamma_e / 4) ->
chi_EIT(delta2).  The error falls as 1/omega0.  On the grid below it was
0.155, 4.87e-3 and 4.88e-5 at omega0 = 3036, 1e5 and 1e7 MHz.
"""

import numpy as np
import pytest

from fourwave.atom import AtomParams
from fourwave.eit import LambdaParams, susceptibility
from fourwave.propagation import MediumParams, generator
from fourwave.units import mhz_to_rad_us

GAMMA_E, GAMMA_G, DELTA1, RABI, DEPTH = 5.75, 0.05, 100.0, 10.0, 10.0    # MHz; optical depth
DELTA2 = np.linspace(-20.0, 20.0, 81)       # MHz


def eit_error(omega0_mhz: float) -> float:
    """max |G00(0) / (2i pref) / chi_EIT - 1| over the delta2 grid."""
    rates = [mhz_to_rad_us(v) for v in (GAMMA_E, GAMMA_G, omega0_mhz, DELTA1)]
    mp = MediumParams(AtomParams(*rates, mhz_to_rad_us(DELTA2), mhz_to_rad_us(RABI)), DEPTH)
    probe = generator(mp, 0.0)[..., 0, 0] / (2j * DEPTH * rates[0] / 4)
    lp = LambdaParams(rates[0], rates[1], rates[3], mhz_to_rad_us(RABI))
    chi = np.array([susceptibility(lp, d2) for d2 in mhz_to_rad_us(DELTA2).tolist()])
    return float(np.abs(probe / chi - 1.0).max())


class TestLambdaEitLimit:
    def test_probe_row_is_the_eit_susceptibility(self):
        assert eit_error(1e7) < 1e-4

    def test_error_falls_as_one_over_the_splitting(self):
        assert eit_error(1e5) / eit_error(1e7) == pytest.approx(100, rel=0.1)
