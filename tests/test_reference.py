"""Reference amplifier model tests."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave.errors import DomainError, NormalizationError
from fourwave.reference import (SliceChainParams, detection_loss,
                                ideal_pia_means, ideal_pia_noise,
                                nlo_pia_transfer, nlo_psa_field, psa_gain,
                                psa_noise, sliced_amp_loss, unbalanced_loss)


class TestIdealAmplifier:
    def test_unit_gain(self):
        assert ideal_pia_noise(1.0) == 1.0
        assert ideal_pia_means(1.0, 7.0) == (7.0, 0.0, 7.0)

    def test_gain_three(self):
        assert ideal_pia_noise(3.0) == pytest.approx(0.2, abs=1e-15)
        assert ideal_pia_means(2.0, 10.0) == (20.0, 10.0, 10.0)

    def test_high_gain_limit(self):
        assert ideal_pia_noise(1e6) == pytest.approx(5e-7, rel=1e-5)

    @given(gain=st.floats(1.0, 1e5), n_in=st.floats(0.0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_difference_conserved(self, gain, n_in):
        n_a, n_b, n_minus = ideal_pia_means(gain, n_in)
        # cancellation headroom scales with the amplified photon number
        assert abs((n_a - n_b) - n_in) <= 1e-12 * max(n_a, 1.0)
        assert n_minus == n_in

    def test_noise_strictly_decreasing(self):
        gains = np.linspace(1.0, 20.0, 30)
        values = [ideal_pia_noise(g) for g in gains]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            ideal_pia_noise(0.5)
        with pytest.raises(DomainError):
            ideal_pia_means(2.0, -1.0)


def composed_gain(slice_gain: float, n: int) -> float:
    """Oracle: n identical ideal two-mode amplifiers compose by adding
    squeeze parameters, G_tot = cosh^2(n * acosh(sqrt(g)))."""
    return math.cosh(n * math.acosh(math.sqrt(slice_gain)))**2


def looped_chain(g: float, t: float, n: int):
    """Oracle: the chain slice by slice, the symmetric-order quadrature
    correlations and the mean fields from coherent inputs."""
    root = math.sqrt(g * (g - 1.0))
    xa, xb, xab = 1.0, 1.0, 0.0
    alpha, beta = 1.0, 0.0
    for _ in range(n):
        xa, xb, xab = (
            g * t * xa + (g - 1.0) * t * xb + 2.0 * t * root * xab + (1.0 - t),
            (g - 1.0) * xa + g * xb + 2.0 * root * xab,
            math.sqrt(t) * root * (xa + xb) + (2.0 * g - 1.0) * math.sqrt(t) * xab,
        )
        alpha, beta = (
            math.sqrt(t) * (math.sqrt(g) * alpha + math.sqrt(g - 1.0) * beta),
            math.sqrt(g) * beta + math.sqrt(g - 1.0) * alpha,
        )
    gain_a, gain_b = alpha**2, beta**2
    return gain_a, gain_b, (gain_a * xa + gain_b * xb
                            - 2.0 * math.sqrt(gain_a * gain_b) * xab) / (gain_a + gain_b)


class TestSlicedChain:
    @given(n=st.integers(1, 3000), squeeze=st.floats(0.01, 2.0), loss=st.floats(0.0, 0.3))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matrix_power_matches_the_slice_loop(self, n, squeeze, loss):
        g, t = math.cosh(squeeze / n)**2, (1.0 - loss)**(1.0 / n)
        ga, gb, snm = sliced_amp_loss(SliceChainParams(g, t, n))
        want_a, want_b, want_snm = looped_chain(g, t, n)
        assert ga == pytest.approx(want_a, rel=1e-12)
        assert gb == pytest.approx(want_b, rel=1e-12)
        assert snm == pytest.approx(want_snm, rel=1e-8)

    def test_a_million_slices_take_milliseconds(self):
        # total squeeze 1.5 and transmission 0.9 (a slice loop took 0.56 s)
        n = 10**6
        p = SliceChainParams(math.cosh(1.5 / n)**2, 0.9**(1.0 / n), n)
        start = time.perf_counter()
        ga, _, snm = sliced_amp_loss(p)
        assert time.perf_counter() - start < 0.05
        assert 0.9 * composed_gain(p.slice_gain, n) < ga < composed_gain(p.slice_gain, n)
        assert 0 < snm < 1

    def test_underflowing_total_gain_raises(self):
        with pytest.raises(NormalizationError, match="total gain 0.0 is not > 0"):
            sliced_amp_loss(SliceChainParams(1.0, 0.5, 10000))

    def test_overflowing_chain_is_not_finite(self):
        ga, gb, snm = sliced_amp_loss(SliceChainParams(1.2, 0.9, 1e300))
        assert ga == gb == math.inf and math.isnan(snm)


    def test_lossless_matches_composed_amplifier(self):
        g, n = 1.002, 120
        ga, gb, snm = sliced_amp_loss(SliceChainParams(g, 1.0, n))
        g_tot = composed_gain(g, n)
        assert ga == pytest.approx(g_tot, rel=1e-9)
        assert gb == pytest.approx(g_tot - 1.0, rel=1e-7)
        assert snm == pytest.approx(1.0 / (2 * g_tot - 1.0), abs=1e-9)

    def test_identity_chain(self):
        assert sliced_amp_loss(SliceChainParams(1.0, 1.0, 50)) == (1.0, 0.0, 1.0)

    def test_slice_count_converged_at_fixed_totals(self):
        total_gain, total_transmission = 4.0, 0.85
        results = {}
        for n in (80, 160):
            g = math.cosh(math.acosh(math.sqrt(total_gain)) / n)**2
            t = total_transmission ** (1.0 / n)
            results[n] = sliced_amp_loss(SliceChainParams(g, t, n))[2]
        assert abs(results[160] - results[80]) / results[80] < 0.01

    def test_noise_finite_and_in_range(self):
        # mild regime: total two-mode gain below ~10 (squeeze parameter
        # below 1.5) and total loss below 30%; noise stays in (0, 2]
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(20, 120))
            squeeze = rng.uniform(0.05, 1.5)
            p = SliceChainParams(slice_gain=math.cosh(squeeze / n)**2,
                                 slice_transmission=(1 - rng.uniform(0, 0.3))**(1.0/n),
                                 n_slices=n)
            ga, gb, snm = sliced_amp_loss(p)
            assert np.isfinite((ga, gb, snm)).all()
            assert 0 < snm <= 2.0

    def test_small_loss_can_improve_low_gain_squeezing(self):
        n = 100
        lossless = sliced_amp_loss(SliceChainParams(1.0005, 1.0, n))[2]
        lossy = sliced_amp_loss(SliceChainParams(1.0005, 1 - 0.02 / n, n))[2]
        assert lossy < lossless

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            SliceChainParams(0.9, 1.0, 10)
        with pytest.raises(DomainError):
            SliceChainParams(1.1, 0.0, 10)

    @pytest.mark.parametrize("params, field, rule", (
        ((0.9, 1.0, 10), "slice_gain", "must be >= 1"),
        ((math.nan, 1.0, 10), "slice_gain", "must be >= 1"),
        ((math.inf, 1.0, 10), "slice_gain", "must be finite"),
        ((1.1, 0.0, 10), "slice_transmission", "must be in (0, 1]"),
        ((1.1, math.nan, 10), "slice_transmission", "must be in (0, 1]"),
        ((1.1, 1.0, 0), "n_slices", "must be >= 1"),
        ((1.1, 1.0, math.nan), "n_slices", "must be >= 1"),
        ((1.1, 1.0, 2.5), "n_slices", "must be a whole number"),
        ((1.1, 1.0, math.inf), "n_slices", "must be a whole number"),
    ), ids=("gain-below-1", "nan-gain", "infinite-gain", "no-transmission", "nan-transmission",
            "no-slices", "nan-slices", "fractional-slices", "infinite-slices"))
    def test_error_names_field_rule_and_value(self, params, field, rule):
        with pytest.raises(DomainError) as caught:
            SliceChainParams(*params)
        value = params[("slice_gain", "slice_transmission", "n_slices").index(field)]
        assert str(caught.value) == f"{field} {rule}, got {value}"
        assert (caught.value.field, caught.value.rule) == (field, rule)
        assert caught.value.value is value

    def test_accepts_a_whole_float_slice_count(self):
        assert sliced_amp_loss(SliceChainParams(1.2, 0.9, 7.0)) \
            == sliced_amp_loss(SliceChainParams(1.2, 0.9, 7))


class TestPhaseSensitive:
    def test_quadrature_angle(self):
        assert psa_gain(3.0, math.pi / 2) == pytest.approx(5.0, abs=1e-12)

    def test_maximum_amplification(self):
        assert psa_gain(3.0, 0.0) == pytest.approx((math.sqrt(3) + math.sqrt(2))**2,
                                                   rel=1e-12)

    @given(gain=st.floats(1.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_amplification_extremes_multiply_to_unity(self, gain):
        # (2G-1)^2 - 4G(G-1) = 1: maximal amplification times maximal
        # deamplification is exactly one
        product = psa_gain(gain, 0.0) * psa_gain(gain, math.pi)
        assert product == pytest.approx(1.0, rel=1e-8)

    def test_noise_trivial_angles(self):
        assert psa_noise(4.0, 0.3, 0.3) == pytest.approx(1.0, rel=1e-14)
        assert psa_noise(7.0, math.pi / 2, math.pi / 2) == pytest.approx(1.0)

    def test_best_squeezing_at_gain_three(self):
        expected = (5 - 2 * math.sqrt(6)) / (5 + 2 * math.sqrt(6))
        value = psa_noise(3.0, 0.0, math.pi)
        assert value == pytest.approx(expected, rel=1e-12)
        assert 10 * math.log10(value) == pytest.approx(-19.9, abs=0.05)


class TestNonlinearTransfers:
    def test_identity_at_zero_length(self):
        assert np.allclose(nlo_pia_transfer(0.3 + 0.1j, 0.0), np.eye(2))
        assert nlo_psa_field(1.0, 0.5, 0.0) == (1.0, 0.0)

    def test_hyperbolic_identity(self):
        # couplings kept moderate so cosh^2 retains 1e-12 absolute headroom
        rng = np.random.default_rng(13)
        for _ in range(40):
            eta = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            length = rng.uniform(0, 2)
            m = nlo_pia_transfer(eta, length)
            assert abs(m[0, 0])**2 - abs(m[0, 1])**2 == pytest.approx(1.0, abs=1e-12)

    def test_gain_at_unit_coupling(self):
        m = nlo_pia_transfer(1.0, 1.0)
        assert abs(m[0, 0])**2 == pytest.approx(math.cosh(1.0)**2, rel=1e-12)

    def test_pure_phase_without_coupling(self):
        c1, c2 = nlo_psa_field(2.0, 0.0, 0.7)
        assert abs(c1) == pytest.approx(1.0, abs=1e-12)
        assert c2 == 0
        assert np.angle(c1) == pytest.approx(2.0 * 0.7, abs=1e-12)

    def test_field_normalization_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            kappa = rng.uniform(0.5, 2.0)
            eta = rng.uniform(0, kappa) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c1, c2 = nlo_psa_field(kappa, eta, rng.uniform(0, 2))
            assert abs(c1)**2 - abs(c2)**2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_overdriven_coupling(self):
        with pytest.raises(DomainError):
            nlo_psa_field(1.0, 2.0, 1.0)


class TestLossModels:
    def test_detection_loss_limits(self):
        assert detection_loss(0.37, 1.0) == 0.37
        assert detection_loss(0.37, 0.0) == 1.0
        assert detection_loss(0.1, 0.9) == pytest.approx(0.19, abs=1e-15)

    @given(s=st.floats(0, 10), eta=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_detection_loss_closed_form(self, s, eta):
        assert detection_loss(s, eta) == pytest.approx(eta * s + 1 - eta, abs=1e-12)

    def test_unbalanced_perfect_correlation(self):
        assert unbalanced_loss(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert unbalanced_loss(0.5, 0.8, 0.1, 0.0) == pytest.approx(0.8)

    def test_unbalanced_simplified_form(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            s, eta = rng.uniform(0, 3), rng.uniform(0, 1)
            full = unbalanced_loss(s, s, s, eta)
            simplified = ((1 - eta)**2 * s + (1 - eta) * eta) / (1 + eta)
            assert full == pytest.approx(simplified, abs=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            detection_loss(1.0, 1.5)
        with pytest.raises(DomainError):
            unbalanced_loss(1.0, 1.0, 0.0, -0.1)
