"""Hot-vapor tests: velocity averaging, transit time, vapor utilities."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.optimize import brentq

from fourwave import propagation, vapor
from fourwave.atom import AtomParams, steady_state
from fourwave.config import (at_sweep_value, medium_params_from, parse_config,
                             sweep_values, vapor_params_from)
from fourwave.errors import DomainError, PoleError, RangeWarning
from fourwave.numkernel import VELOCITY_NODES, expm
from fourwave.propagation import MediumParams, generator
from fourwave.vapor import (_UNIT_NODES, _UNIT_WEIGHTS, VaporParams, doppler_absorption,
                            doppler_generator, doppler_width, maxwell_pdf, mean_speed,
                            optical_depth, residual_transmission, saturated_vapor_pressure_torr,
                            slice_consistency, transit_time, vapor_density,
                            vapor_fraction, velocity_nodes, velocity_sigma)
from fourwave.units import TWO_PI, celsius_to_kelvin


def hot_medium(rabi_mhz=300.0, delta1_mhz=700.0, delta2_mhz=4.0,
               gamma_g_mhz=1.0, optical_depth=4500.0):
    atom = AtomParams.from_mhz(5.75, gamma_g_mhz, 3036.0,
                               delta1_mhz, delta2_mhz, rabi_mhz)
    return MediumParams(atom=atom, optical_depth=optical_depth)


VP = VaporParams.rb85_d1(temperature_c=120.0)
VAPOR_CONFIG = Path(__file__).parents[1] / "configs" / "vapor_gain_scan.ini"


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


class TestGaussHermite:
    """The fixed VELOCITY_NODES-node rule of the velocity average."""

    def test_weight_normalization(self):
        _, w, _ = velocity_nodes(VP)
        assert w.shape == (VELOCITY_NODES,)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_second_moment(self):
        v, w, _ = velocity_nodes(VP)
        assert w @ v**2 == pytest.approx(velocity_sigma(VP)**2, rel=1e-12)

    def test_characteristic_function(self):
        # E[cos(k v)] = exp(-(k sigma)^2 / 2); k sigma = 1 here
        v, w, _ = velocity_nodes(VP)
        assert w @ np.cos(v / velocity_sigma(VP)) == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_nodes_symmetric(self):
        v, w, _ = velocity_nodes(VP)
        assert np.array_equal(v, -v[::-1])
        assert np.array_equal(w, w[::-1])

    def test_stored_rule_integrates_even_moments_exactly(self):
        # E[x^2j] = (2j - 1)!! for unit sigma: a 40-node rule is exact up to
        # degree 79, so j = 0 .. 39 hold to rounding and degree 80 does not
        def relative_error(j):
            double_factorial = math.prod(range(1, 2 * j, 2))
            return abs(_UNIT_WEIGHTS @ _UNIT_NODES**(2 * j) / double_factorial - 1.0)

        assert _UNIT_NODES.shape == _UNIT_WEIGHTS.shape == (VELOCITY_NODES,)
        assert max(relative_error(j) for j in range(VELOCITY_NODES)) < 1e-13
        assert relative_error(VELOCITY_NODES) > 1e-12

    def test_stacked_vapor_equals_its_members(self):
        temperatures = VP.temperature * np.array([0.5, 1.0, 4.0])
        stacked = velocity_nodes(dataclasses.replace(VP, temperature=temperatures))
        assert stacked[0].shape == stacked[2].shape == (3, VELOCITY_NODES)
        for i, t in enumerate(temperatures):
            alone = velocity_nodes(dataclasses.replace(VP, temperature=t))
            assert stacked[1] is alone[1]
            assert np.array_equal(stacked[0][i], alone[0])
            assert np.array_equal(stacked[2][i], alone[2])

    def test_unit_nodes_computed_once(self):
        x, w = hermegauss(VELOCITY_NODES)
        hot = dataclasses.replace(VP, temperature=4 * VP.temperature)
        _, w1, _ = velocity_nodes(VP)
        v2, w2, _ = velocity_nodes(hot)
        assert w2 is w1 and not w1.flags.writeable
        assert np.array_equal(w1, w / w.sum())
        assert np.array_equal(v2, velocity_sigma(hot) * x)


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

    def test_underflowed_velocity_sigma_is_the_cold_limit(self):
        # k_B T underflows to 0 at 5e-324 K: every node at rest
        frozen = dataclasses.replace(VP, temperature=5e-324)
        assert velocity_sigma(frozen) == 0.0
        mp = hot_medium()
        for w in (0.0, TWO_PI * 1.0, -TWO_PI * 3.7):
            hot, cold = doppler_generator(mp, frozen, w), generator(mp, w)
            assert np.max(np.abs(hot - cold)) < 1e-14 * np.max(np.abs(cold))

    def test_velocity_sign_flip_invariant(self):
        # averaging with the shift applied as -k*v gives the same generator
        mp = hot_medium()
        w = TWO_PI * 1.0
        forward = doppler_generator(mp, VP, w)
        velocities, weights, _ = velocity_nodes(VP)
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
        velocities = velocity_nodes(VP)[0]
        with pytest.raises(PoleError) as err:
            doppler_generator(mp, VP, 0.0)
        assert err.value.omega == 0.0
        assert np.array_equal(err.value.velocities, velocities)

    @pytest.mark.parametrize("pump", ("config", "off"))
    def test_node_sum_is_the_in_order_running_sum(self, pump):
        # the golden outputs were summed node by node in node order; the
        # average must match that loop bit for bit, signed zeros included
        cfg = parse_config(VAPOR_CONFIG.read_text())
        mp, vp = medium_params_from(cfg), vapor_params_from(cfg)
        if pump == "off":
            mp = mp.with_atom(rabi=0.0)
        velocities, weights, _ = velocity_nodes(vp)
        w = TWO_PI * 1.0
        for omega in (0.0, w, -w, TWO_PI * 3.7, np.array([0.0, w, -w, TWO_PI * 3.7])):
            gens = generator(mp.at_nodes(TWO_PI / vp.wavelength * velocities * 1e-6),
                             np.expand_dims(omega, -1))
            acc = np.zeros(np.shape(omega) + (2, 2), dtype=complex)
            for j, wt in enumerate(weights):
                acc += wt * gens[..., j, :, :]
            hot = doppler_generator(mp, vp, omega)
            assert np.array_equal(hot, acc)
            assert hot.tobytes() == acc.tobytes()

    @pytest.fixture
    def calls(self, monkeypatch):
        """The member shape, nodes last, of each _screened_generator call of
        the Doppler average."""
        shapes = []

        def count(*args):
            shapes.append(np.broadcast_shapes(args[0].shape, np.shape(args[1])))
            return propagation._screened_generator(*args)
        monkeypatch.setattr(vapor, "_screened_generator", count)
        return shapes

    @staticmethod
    def config_groups():
        """The swept medium and vapor of configs/vapor_gain_scan.ini and its
        frequency groups (0, +omega, -omega), as spectra.evaluate averages them."""
        cfg = parse_config(VAPOR_CONFIG.read_text())
        point = at_sweep_value(cfg, np.array(sweep_values(cfg)))
        mp, vp = medium_params_from(point), vapor_params_from(point)
        w = TWO_PI * cfg.omega_mhz
        return mp, vp, (0.0, w, -w)

    def test_config_groups_are_the_in_order_node_loop(self, calls):
        # one call per group of 61 media x 40 nodes
        mp, vp, groups = self.config_groups()
        _, weights, shifts = velocity_nodes(vp)
        hot = vapor._doppler_rows(mp, vp, groups)
        assert calls == [(61, VELOCITY_NODES)] * 3
        for rows, omega in zip(hot, groups):
            gens = generator(mp.at_nodes(shifts), np.expand_dims(omega, -1))
            acc = np.zeros(mp.shape + (2, 2), dtype=complex)
            for j, wt in enumerate(weights):
                acc += wt * gens[..., j, :, :]
            assert propagation._matrices(rows).tobytes() == acc.tobytes()

    SWEEPS = {"temperature": (dict(temperature=celsius_to_kelvin(np.linspace(80.0, 160.0, 41))),
                              1.0, [(41, VELOCITY_NODES)] * 3),
              "omega": ({}, np.linspace(0.2, 10.0, 50),
                        [(VELOCITY_NODES,)] + [(50, VELOCITY_NODES)] * 2)}

    @pytest.mark.parametrize("vapor_fields, omega_mhz, shapes", SWEEPS.values(), ids=SWEEPS.keys())
    def test_each_group_equals_the_group_alone(self, calls, vapor_fields, omega_mhz, shapes):
        # groups of their own shapes: 0 on the medium and the vapor, +-omega at every point
        cfg = parse_config(VAPOR_CONFIG.read_text())
        mp = medium_params_from(cfg)
        vp = dataclasses.replace(vapor_params_from(cfg), **vapor_fields)
        w = TWO_PI * omega_mhz
        groups = (0.0, w, -w)
        hot = vapor._doppler_rows(mp, vp, groups)
        assert calls == shapes
        for rows, omega in zip(hot, groups):
            alone = doppler_generator(mp, vp, omega)
            assert propagation._matrices(rows).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("group", (1, 2), ids=("+omega", "-omega"))
    def test_pole_in_a_later_group_is_the_pole_of_that_group_alone(self, calls, group):
        # no pump, no ground decay: each node is singular at omega = delta2 only,
        # the group of (0, +omega, -omega) after ``group`` clean ones
        mp = hot_medium(rabi_mhz=0.0, gamma_g_mhz=0.0,
                        delta1_mhz=np.linspace(500.0, 1100.0, 61))
        pole = mp.atom.delta2
        with pytest.raises(PoleError) as alone:
            doppler_generator(mp, VP, pole)
        calls.clear()
        omega = pole if group == 1 else -pole
        with pytest.raises(PoleError) as grouped:
            vapor._doppler_rows(mp, VP, (0.0, omega, -omega))
        assert len(calls) == group + 1
        assert str(grouped.value) == str(alone.value)
        assert grouped.value.omega == alone.value.omega == pole
        assert grouped.value.velocities == alone.value.velocities
        assert len(alone.value.velocities) == VELOCITY_NODES

    def test_non_finite_omega_in_a_later_group_precedes_a_pole(self, calls):
        # as in one call, every group's omega is checked before any group is screened
        mp = hot_medium(rabi_mhz=0.0, gamma_g_mhz=0.0,
                        delta1_mhz=np.linspace(500.0, 1100.0, 61))
        with pytest.raises(DomainError, match="omega must be finite, got nan"):
            vapor._doppler_rows(mp, VP, (mp.atom.delta2, 0.0, np.nan))
        assert calls == []

    # tracemalloc peak of the average above its start on the (0, +omega,
    # -omega) groups of 61 media x 40 nodes of a configs/vapor_gain_scan.ini
    # run, 1.32 MiB with numpy 2.4; the three groups in one call of a
    # (3, 61, 40) stack peaked at 3.48 MiB
    PEAK_MIB = 1.6

    def test_peak_memory_of_the_config_stack(self):
        mp, vp, groups = self.config_groups()
        nodes = steady_state(mp.at_nodes(velocity_nodes(vp)[2]).atom)
        assert [rows.shape for rows in vapor._doppler_rows(mp, vp, groups, nodes)] == [(4, 61)] * 3
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            vapor._doppler_rows(mp, vp, groups, nodes)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_MIB * 2**20

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


class TestDenseOracle:
    """The fixed rule against an 801-node trapezoid rule over +-8 sigma (its
    own error below 1e-12) on the 61 rows of configs/vapor_gain_scan.ini
    at omega = 0."""

    @pytest.fixture(scope="class")
    def probe_gains(self):
        """(delta2 in MHz, Ga of the fixed rule, Ga of the oracle)."""
        cfg = parse_config(VAPOR_CONFIG.read_text())
        delta2 = np.array(sweep_values(cfg))
        point = at_sweep_value(cfg, delta2)
        mp, vp = medium_params_from(point), vapor_params_from(point)
        sigma = velocity_sigma(vp)
        v = np.linspace(-8.0 * sigma, 8.0 * sigma, 801)
        w = maxwell_pdf(vp, v) * (v[1] - v[0])
        w[[0, -1]] /= 2.0
        gens = generator(mp.at_nodes(TWO_PI / vp.wavelength * v * 1e-6), 0.0)
        dense = np.einsum("j,...jab->...ab", w, gens)
        fixed = doppler_generator(mp, vp, 0.0)
        return delta2, *(np.abs(expm(g)[..., 0, 0])**2 for g in (fixed, dense))

    def test_agrees_from_minus_8_mhz_up(self, probe_gains):
        delta2, fixed, dense = probe_gains
        up = delta2 >= -8.0
        np.testing.assert_allclose(fixed[up], dense[up], rtol=1e-6, atol=0)

    @pytest.mark.xfail(strict=True, reason="40 nodes under-resolve the average below "
                       "-8 MHz: 22 rows off by more than 1e-6, 17% at -30 MHz")
    def test_agrees_on_every_row(self, probe_gains):
        _, fixed, dense = probe_gains
        np.testing.assert_allclose(fixed, dense, rtol=1e-6, atol=0)


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
        with pytest.raises(DomainError, match="n_slices must be >= 100, got 10") as err:
            slice_consistency(hot_medium(), VP, 0.0, n_slices=10, seed=0)
        assert err.value.field == "n_slices"


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

    def test_underflowed_doppler_width_leaves_the_profile_limit(self):
        # a 1e291 m wavelength squares the Doppler width to 0: the profile is
        # 1 on resonance and 0 off it, with no warning
        mp, base = hot_medium(), VaporParams.rb85_d1()
        vp = VaporParams(temperature=base.temperature, atomic_mass=base.atomic_mass,
                         wavelength=1e291, pump_waist=base.pump_waist,
                         probe_waist=base.probe_waist, cell_length=base.cell_length,
                         cross_section=base.cross_section)
        prepared, on = residual_transmission(mp, vp, probe_detuning=0.0)
        assert on == np.exp(-(1.0 - prepared) * mp.optical_depth)
        assert residual_transmission(mp, vp, probe_detuning=2.0)[1] == 1.0


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

    def test_absorption_with_underflowed_doppler_width_is_the_profile_limit(self):
        # k_B T underflows to 0 at 5e-324 K: the line is exp(-peak_od) on
        # resonance and 1 off it, with no 0/0 (a RuntimeWarning fails here)
        frozen = dataclasses.replace(VP, temperature=5e-324)
        assert doppler_width(frozen) == 0.0
        assert doppler_absorption(frozen, 0.0, 1.0) == np.exp(-1.0)
        assert doppler_absorption(frozen, 1.0, 1.0) == 1.0

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
