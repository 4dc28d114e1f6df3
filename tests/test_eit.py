"""Lambda-scheme susceptibility tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave.eit import (LambdaParams, absorption_peak_separation,
                          absorption_spectrum, susceptibility,
                          transparency_window)
from fourwave.errors import PoleError


def lam(gamma_e=1.0, gamma_g=0.0, delta1=0.0, rabi_c=1.0):
    return LambdaParams(gamma_e=gamma_e, gamma_g=gamma_g, delta1=delta1, rabi_c=rabi_c)


class TestSusceptibility:
    def test_perfect_transparency_on_two_photon_resonance(self):
        assert susceptibility(lam(), 0.0) == 0

    def test_two_level_reduction(self):
        # no control field, two-photon resonance at the one-photon line
        lp = lam(delta1=0.4, rabi_c=0.0)
        chi = susceptibility(lp, 0.4)
        assert chi == pytest.approx(1j / lp.gamma_e, rel=1e-14)

    def test_far_detuned_vanishes(self):
        lp = lam(gamma_g=0.01)
        assert abs(susceptibility(lp, 1e9)) < 1e-8
        assert abs(susceptibility(lp, -1e9)) < 1e-8

    @given(delta2=st.floats(-50, 50), gamma_g=st.floats(0, 5),
           delta1=st.floats(-10, 10), rabi=st.floats(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_passive_medium(self, delta2, gamma_g, delta1, rabi):
        lp = lam(gamma_g=gamma_g, delta1=delta1, rabi_c=rabi)
        try:
            chi = susceptibility(lp, delta2)
        except PoleError:
            return      # exact pole points are excluded by contract
        assert chi.imag >= -1e-15

    def test_arrays_match_the_scalar_calls(self):
        # numpy's complex loop may round the last bit apart from Python's
        delta2 = np.linspace(-5.0, 5.0, 101)
        lp = lam(gamma_g=0.1, delta1=0.4, rabi_c=1.5)
        want = [susceptibility(lp, d) for d in delta2.tolist()]
        assert susceptibility(lp, delta2).tolist() == pytest.approx(want, rel=1e-15, abs=0)
        rabi = np.linspace(0.0, 3.0, 101)
        want = [susceptibility(lam(gamma_g=0.1, rabi_c=r), 0.7) for r in rabi.tolist()]
        got = susceptibility(lam(gamma_g=0.1, rabi_c=rabi), 0.7)
        assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0)

    def test_pole_inside_an_array_is_named(self):
        # with no control field and no ground decay, delta2 = 0 is a pole
        with pytest.raises(PoleError, match=r"pole at delta2 = 0\.0$") as exc:
            susceptibility(lam(rabi_c=0.0), np.array([-1.0, 0.5, 0.0, 2.0]))
        assert exc.value.omega == 0.0

    def test_detuning_reflection_maps_to_minus_conjugate(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            gamma_g, dl, rabi = rng.uniform(0, 2), rng.uniform(-5, 5), rng.uniform(0, 5)
            d2 = rng.uniform(-20, 20)
            plus = susceptibility(lam(gamma_g=gamma_g, delta1=dl, rabi_c=rabi), d2)
            minus = susceptibility(lam(gamma_g=gamma_g, delta1=-dl, rabi_c=rabi), -d2)
            assert minus == pytest.approx(-np.conj(plus), abs=1e-14)


class TestWindow:
    def test_zero_ground_decay(self):
        assert transparency_window(lam(gamma_g=0.0)) == 0

    def test_linear_in_control_rabi(self):
        lp1 = lam(gamma_g=0.1, rabi_c=1.0)
        lp2 = lam(gamma_g=0.1, rabi_c=2.0)
        assert transparency_window(lp2) == pytest.approx(2 * transparency_window(lp1))

    def test_half_linewidth_decay(self):
        lp = lam(gamma_g=0.5, rabi_c=3.0)
        assert transparency_window(lp) == pytest.approx(3.0, rel=1e-14)


class TestAbsorptionSpectrum:
    def test_two_level_lorentzian_width(self):
        # without control field the line is a Lorentzian of FWHM gamma_e;
        # even point count keeps the grid off the removable 0/0 at zero
        lp = lam(rabi_c=0.0, delta1=0.0)
        grid = np.linspace(-5, 5, 4000)
        spec = absorption_spectrum(lp, grid)
        peak = spec.max()
        above = grid[spec >= peak / 2]
        assert above.max() - above.min() == pytest.approx(lp.gamma_e, abs=0.01)

    def test_transparency_dip_with_symmetric_maxima(self):
        lp = lam(rabi_c=1.0)
        grid = np.linspace(-3, 3, 2001)
        spec = absorption_spectrum(lp, grid)
        assert spec[1000] == pytest.approx(0.0, abs=1e-12)
        sep = absorption_peak_separation(lp, grid)
        assert sep == pytest.approx(lp.rabi_c, rel=0.1)

    def test_single_point_on_resonance(self):
        assert absorption_spectrum(lam(), [0.0]) == pytest.approx([0.0])

    def test_ground_decay_fills_the_window(self):
        grid = np.array([0.0])
        values = [absorption_spectrum(lam(gamma_g=g), grid)[0]
                  for g in (0.0, 0.1, 1.0, 10.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
