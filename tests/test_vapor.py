"""Hot-vapor tests: velocity averaging, transit time, vapor utilities."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from fourwave.atom import AtomParams
from fourwave.config import medium_params_from, parse_config, vapor_params_from
from fourwave.errors import ConfigurationError, DomainError, PoleError, RangeWarning
from fourwave.numkernel import expm, gauss_hermite_nodes
from fourwave.propagation import MediumParams, generator
from fourwave.vapor import (VaporParams, doppler_absorption, doppler_generator,
                            doppler_width, maxwell_pdf,
                            mean_speed, optical_depth, residual_transmission,
                            saturated_vapor_pressure_torr, slice_consistency,
                            transit_time, vapor_density, vapor_fraction,
                            velocity_sigma)
from fourwave.units import TWO_PI


def hot_medium(rabi_mhz=300.0, delta1_mhz=700.0, delta2_mhz=4.0,
               gamma_g_mhz=1.0, optical_depth=4500.0):
    atom = AtomParams.from_mhz(5.75, gamma_g_mhz, 3036.0,
                               delta1_mhz, delta2_mhz, rabi_mhz)
    return MediumParams(atom=atom, optical_depth=optical_depth)


VP = VaporParams.rb85_d1(temperature_c=120.0)


class TestMaxwell:
    def test_normalization(self):
        sig = velocity_sigma(VP)
        val, _ = quad(lambda v: maxwell_pdf(VP, v), -10 * sig, 10 * sig)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self):
        assert maxwell_pdf(VP, 137.0) == maxwell_pdf(VP, -137.0)

    def test_mean_speed_hot_rubidium(self):
        vp = VaporParams.rb85_d1(temperature_c=100.0)   # 373 K
        assert mean_speed(vp) == pytest.approx(270.0, rel=0.02)
        assert abs(mean_speed(vp) - 300.0) / 300.0 < 0.15

    def test_speed_temperature_scaling(self):
        v1 = mean_speed(VaporParams.rb85_d1(temperature_c=25.0))
        hot = VaporParams.rb85_d1(temperature_c=25.0)
        t4 = VaporParams(temperature=hot.temperature * 4, atomic_mass=hot.atomic_mass,
                         wavelength=hot.wavelength, pump_waist=hot.pump_waist,
                         probe_waist=hot.probe_waist, cell_length=hot.cell_length,
                         cross_section=hot.cross_section)
        assert mean_speed(t4) == pytest.approx(2 * v1, rel=1e-12)


class TestDopplerAveraging:
    def test_cold_limit(self):
        frozen = VaporParams(temperature=1e-9, atomic_mass=VP.atomic_mass,
                             wavelength=VP.wavelength, pump_waist=VP.pump_waist,
                             probe_waist=VP.probe_waist, cell_length=VP.cell_length,
                             cross_section=VP.cross_section)
        mp = hot_medium()
        w = TWO_PI * 1.0
        hot = doppler_generator(mp, frozen, w)
        cold = generator(mp, w)
        assert np.max(np.abs(hot - cold)) < 1e-10

    def test_order_doubling_converged(self):
        mp = hot_medium()
        t40 = expm(doppler_generator(mp, VP, TWO_PI * 1.0, order=40))
        t80 = expm(doppler_generator(mp, VP, TWO_PI * 1.0, order=80))
        assert np.max(np.abs(t40 - t80)) < 1e-6

    def test_velocity_sign_flip_invariant(self):
        # averaging with the shift applied as -k*v gives the same generator
        mp = hot_medium()
        w = TWO_PI * 1.0
        forward = doppler_generator(mp, VP, w)
        from fourwave.numkernel import gauss_hermite_nodes
        velocities, weights = gauss_hermite_nodes(40, velocity_sigma(VP))
        k = TWO_PI / VP.wavelength
        backward = sum(
            wt * generator(mp.with_atom(delta1=mp.atom.delta1 - k * v * 1e-6), w)
            for v, wt in zip(velocities, weights))
        assert np.max(np.abs(forward - backward)) < 1e-12 * np.max(np.abs(forward))

    def test_gain_shift_small_in_studied_range(self):
        mp = hot_medium(rabi_mhz=300.0)
        cold = gains_of(generator(mp, 0.0))
        hot = gains_of(doppler_generator(mp, VP, 0.0))
        assert abs(hot - cold) / cold < 0.05

    def test_frequency_stack_equals_scalar_calls(self):
        mp = hot_medium()
        w = TWO_PI * 1.0
        omegas = np.array([0.0, w, -w])
        stacked = doppler_generator(mp, VP, omegas)
        assert stacked.shape == (3, 2, 2)
        for i, omega in enumerate(omegas):
            assert np.array_equal(stacked[i], doppler_generator(mp, VP, omega))

    def test_pole_on_every_node_reports_all_velocities(self):
        # no pump, no ground decay: each node is singular at omega = delta2 = 0
        mp = hot_medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=0.0)
        velocities, _ = gauss_hermite_nodes(40, velocity_sigma(VP))
        with pytest.raises(PoleError) as err:
            doppler_generator(mp, VP, 0.0)
        assert err.value.omega == 0.0
        assert np.array_equal(err.value.velocities, velocities)

    @pytest.mark.parametrize("order", (16, 40, 64))
    @pytest.mark.parametrize("pump", ("config", "off"))
    def test_node_sum_is_the_in_order_running_sum(self, order, pump):
        # the golden outputs were summed node by node in node order; the
        # average must match that loop bit for bit, signed zeros included
        cfg = parse_config((Path(__file__).parents[1] / "configs"
                            / "vapor_gain_scan.ini").read_text())
        mp, vp = medium_params_from(cfg), vapor_params_from(cfg)
        if pump == "off":
            mp = mp.with_atom(rabi=0.0)
        velocities, weights = gauss_hermite_nodes(order, velocity_sigma(vp))
        w = TWO_PI * 1.0
        for omega in (0.0, w, -w, TWO_PI * 3.7, np.array([0.0, w, -w, TWO_PI * 3.7])):
            gens = generator(mp.at_nodes(TWO_PI / vp.wavelength * velocities * 1e-6),
                             np.expand_dims(omega, -1))
            acc = np.zeros(np.shape(omega) + (2, 2), dtype=complex)
            for j, wt in enumerate(weights):
                acc += wt * gens[..., j, :, :]
            hot = doppler_generator(mp, vp, omega, order)
            assert np.array_equal(hot, acc)
            assert hot.tobytes() == acc.tobytes()

    def test_minimum_order_enforced(self):
        with pytest.raises(ConfigurationError):
            doppler_generator(hot_medium(), VP, 0.0, order=8)

    def test_hot_vs_cold_difference_changes_sign_in_detuning_scan(self):
        mp0 = hot_medium()
        signed = []
        for d_mhz in np.linspace(500.0, 1100.0, 13):
            mp = mp0.with_atom(delta1=TWO_PI * d_mhz)
            signed.append(gains_of(doppler_generator(mp, VP, 0.0))
                          - gains_of(generator(mp, 0.0)))
        assert min(signed) < 0 < max(signed)


def gains_of(exponent):
    return abs(expm(exponent)[0, 0])**2


class TestSliceConsistency:
    def test_commuting_slices(self):
        mp = hot_medium(rabi_mhz=0.0, delta2_mhz=700.0, optical_depth=100.0)
        dev = slice_consistency(mp, VP, TWO_PI * 1.0, n_slices=100, seed=1)
        assert dev.product_vs_sum < 1e-13

    def test_desk_scale_agreement(self):
        mp = hot_medium()
        dev = slice_consistency(mp, VP, TWO_PI * 1.0, n_slices=2000, seed=20260809)
        assert dev.product_vs_sum < 1e-3
        assert dev.reshuffled <= 10 * max(dev.product_vs_sum, 1e-15)

    def test_too_few_slices(self):
        with pytest.raises(ConfigurationError):
            slice_consistency(hot_medium(), VP, 0.0, n_slices=10, seed=0)


class TestTransit:
    def test_hot_rubidium_microsecond_scale(self):
        assert abs(transit_time(VP) - 1.0) / 1.0 < 0.15

    def test_vanishing_beam_gap(self):
        vp = VaporParams.rb85_d1(pump_waist=300.000001e-6, probe_waist=300e-6)
        assert transit_time(vp) < 1e-5

    def test_quadrupled_temperature_halves_transit(self):
        base = VaporParams.rb85_d1(temperature_c=25.0)
        hot = VaporParams(temperature=base.temperature * 4,
                          atomic_mass=base.atomic_mass, wavelength=base.wavelength,
                          pump_waist=base.pump_waist, probe_waist=base.probe_waist,
                          cell_length=base.cell_length, cross_section=base.cross_section)
        assert transit_time(hot) == pytest.approx(transit_time(base) / 2, rel=1e-12)

    def test_waist_ordering_enforced(self):
        with pytest.raises(DomainError):
            VaporParams.rb85_d1(pump_waist=200e-6, probe_waist=300e-6)


class TestResidualTransmission:
    def test_fully_prepared_is_lossless(self):
        # gigantic beam gap: transit time huge, every atom prepared
        vp = VaporParams.rb85_d1(pump_waist=1.0, probe_waist=1e-4)
        prepared, loss = residual_transmission(hot_medium(), vp)
        assert prepared == pytest.approx(1.0, abs=1e-12)
        assert loss == pytest.approx(1.0, abs=1e-9)

    def test_loss_factor_bounded(self):
        prepared, loss = residual_transmission(hot_medium(), VP)
        assert 0 < prepared < 1
        assert 0 < loss <= 1

    def test_both_gains_share_one_factor(self):
        mp = hot_medium()
        _, loss = residual_transmission(mp, VP)
        from fourwave.propagation import gains
        g = gains(mp)
        assert (loss * g.gain_a) / (loss * g.gain_b) == pytest.approx(
            g.gain_a / g.gain_b, rel=1e-12)


class TestVaporUtilities:
    def test_room_temperature_pressure(self):
        p = saturated_vapor_pressure_torr(298.15)
        assert abs(p - 3.92e-7) / 3.92e-7 < 0.25

    def test_vapor_fraction_at_120c(self):
        assert vapor_fraction(273.15 + 120.0) == pytest.approx(0.075, abs=1e-12)

    def test_optical_depth_monotone_in_temperature(self):
        temps = np.linspace(20.0, 150.0, 14)
        depths = [optical_depth(VaporParams.rb85_d1(temperature_c=t)) for t in temps]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_out_of_range_warns_but_returns(self):
        vp = VaporParams.rb85_d1(temperature_c=165.0)   # just past the fit range
        with pytest.warns(RangeWarning):
            value = vapor_density(vp)
        assert np.isfinite(value)

    def test_utilities_broadcast_like_their_scalar_calls(self):
        temps, detunings, depths = [100.0, 120.0, 165.0], [0.0, 3.0, 9.0], [2.5, 0.0, 1.0]
        each = [VaporParams.rb85_d1(temperature_c=t) for t in temps]
        vp = VaporParams.rb85_d1(temperature_c=np.array(temps))
        with pytest.warns(RangeWarning, match="T = 438.1 K"):     # 165 C only
            stacked = [vapor_density(vp), optical_depth(vp),
                       doppler_absorption(vp, np.array(detunings), np.array(depths))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RangeWarning)
            alone = [[vapor_density(one) for one in each], [optical_depth(one) for one in each],
                     [doppler_absorption(*args) for args in zip(each, detunings, depths)]]
        for got, want in zip(stacked, alone):
            assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0)

    def test_absorption_rejects_negative_depth(self):
        with pytest.raises(DomainError, match="peak_od must be >= 0, got -1.0"):
            doppler_absorption(VP, np.zeros(2), np.array([1.0, -1.0]))

    def test_absorption_peak_and_wings(self):
        assert doppler_absorption(VP, 0.0, 2.5) == pytest.approx(np.exp(-2.5), rel=1e-12)
        assert doppler_absorption(VP, 1e9, 2.5) == pytest.approx(1.0, abs=1e-12)

    def test_absorption_coefficient_fwhm(self):
        sig = doppler_width(VP)
        od = 3.0

        def coefficient(nu):
            return -np.log(doppler_absorption(VP, nu, od))

        half = coefficient(0.0) / 2
        right = brentq(lambda nu: coefficient(nu) - half, 0.0, 20 * sig,
                       xtol=1e-12 * sig)
        fwhm = 2 * right
        assert fwhm == pytest.approx(np.sqrt(8 * np.log(2)) * sig, rel=1e-6)
