"""Noise-spectra tests, including the synthetic ideal-amplifier oracle."""

import numpy as np
import pytest

from fourwave.atom import AtomParams
from fourwave.errors import DomainError, NormalizationError, PoleError
from fourwave.propagation import (IntegratedDiffusion, MediumParams, calibrated,
                                  generator)
from fourwave.spectra import (NOISE_FIELDS, NoiseSpectrum, compute_spectrum,
                              evaluate, intensity_difference_noise_parts,
                              observables, probe_intensity_noise_parts,
                              symmetric_grid, to_dB)
from fourwave.units import TWO_PI


def medium(gamma_e_mhz=5.75, gamma_g_mhz=0.01, omega0_mhz=3036.0,
           delta1_mhz=2000.0, delta2_mhz=-217.0, rabi_mhz=2000.0,
           optical_depth=150.0):
    atom = AtomParams.from_mhz(gamma_e_mhz, gamma_g_mhz, omega0_mhz,
                               delta1_mhz, delta2_mhz, rabi_mhz)
    return MediumParams(atom=atom, optical_depth=optical_depth)


def bogoliubov(gain: float):
    """Synthetic phase-insensitive amplifier matrix, |A|^2 - |B|^2 = 1."""
    c, s = np.sqrt(gain), np.sqrt(gain - 1.0)
    return np.array([[c, s], [s, c]], dtype=complex)


NO_DIFFUSION = IntegratedDiffusion.zero()


class TestIdealAmplifierOracle:
    @pytest.mark.parametrize("gain", [1.0, 1.5, 3.0, 10.0])
    def test_pair_spectra(self, gain):
        abcd = bogoliubov(gain)
        expected = 1.0 / (2.0 * gain - 1.0)
        obs = observables(abcd, abcd, abcd, NO_DIFFUSION)
        assert obs.S_Nminus == pytest.approx(expected, abs=1e-12)
        assert obs.S_phiplus == pytest.approx(expected, abs=1e-12)
        assert obs.inseparability == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("gain", [1.0, 1.5, 3.0, 10.0])
    def test_single_mode_spectra(self, gain):
        abcd = bogoliubov(gain)
        sna = observables(abcd, abcd, abcd, NO_DIFFUSION).S_Na
        assert sna == pytest.approx(2.0 * gain - 1.0, abs=1e-12)


class TestTransparentMedium:
    def test_all_spectra_at_standard_quantum_limit(self):
        mp = medium(optical_depth=0.0)
        w = TWO_PI * 1.0
        obs = evaluate(mp, w)
        for name in NOISE_FIELDS:
            assert getattr(obs, name) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def mp():
    return calibrated(medium())


class TestMicroscopicSpectra:

    def test_parity(self, mp):
        for f in (0.5, 1.0, 3.0):
            w = TWO_PI * f
            plus, minus = evaluate(mp, w), evaluate(mp, -w)
            for name in NOISE_FIELDS:
                assert getattr(plus, name) == pytest.approx(getattr(minus, name),
                                                            abs=1e-10)

    def test_inseparability_is_half_sum(self, mp):
        obs = evaluate(mp, TWO_PI * 1.5)
        assert obs.inseparability == 0.5 * (obs.S_Nminus + obs.S_phiplus)

    def test_langevin_noise_never_improves_correlations(self, mp):
        for f in (0.5, 1.0, 2.0, 4.0):
            w = TWO_PI * f
            noisy, clean = evaluate(mp, w, langevin=True), evaluate(mp, w, langevin=False)
            for name in ("S_Nminus", "S_phiplus", "inseparability"):
                assert getattr(noisy, name) >= getattr(clean, name) - 1e-12

    def test_single_mode_floor(self, mp):
        for f in (0.3, 1.0, 5.0):
            assert evaluate(mp, TWO_PI * f).S_Na >= 1.0 - 1e-6

    def test_sub_shot_noise_entanglement_point(self, mp):
        obs = evaluate(mp, TWO_PI * 1.0)
        assert obs.S_Nminus < 1.0
        assert obs.S_phiplus < 1.0
        assert obs.inseparability < 1.0


class TestEvaluatePoles:
    # no pump, no ground decay: the only pole is at omega = delta2
    @pytest.mark.parametrize("delta2_mhz, omega_mhz, pole_mhz", (
        (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, -1.0, 1.0)),
        ids=("all-three", "zero", "plus-omega", "minus-omega"))
    def test_reports_the_pole_frequency(self, delta2_mhz, omega_mhz, pole_mhz):
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=delta2_mhz)
        with pytest.raises(PoleError) as err:
            evaluate(mp, TWO_PI * omega_mhz)
        assert err.value.omega == TWO_PI * pole_mhz

    def test_exponents_at_all_three_frequencies_precede_any_exponential(self):
        # expm of the exponent at 0 would fail (norm beyond 2^64 squarings);
        # the pole at +omega is reported first
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=1.0,
                    optical_depth=1e30)
        seen = []

        def exponent(m, omegas):
            seen.append(omegas)
            return generator(m, omegas)

        with pytest.raises(PoleError) as err:
            evaluate(mp, TWO_PI * 1.0, exponent=exponent)
        assert err.value.omega == TWO_PI * 1.0
        assert len(seen) == 1
        assert np.array_equal(seen[0], [0.0, TWO_PI * 1.0, -TWO_PI * 1.0])


class TestHelpers:
    def test_db_conversion(self):
        assert to_dB(1.0) == 0.0
        assert to_dB(0.2) == pytest.approx(-6.9897, abs=1e-3)
        assert to_dB(0.5) == pytest.approx(-3.0103, abs=1e-3)
        with pytest.raises(DomainError):
            to_dB(0.0)

    def test_zero_gain_rejected(self):
        abcd0 = np.zeros((2, 2), dtype=complex)
        with pytest.raises(NormalizationError):
            probe_intensity_noise_parts(abcd0, np.eye(2), np.eye(2), NO_DIFFUSION)
        with pytest.raises(NormalizationError):
            intensity_difference_noise_parts(abcd0, np.eye(2), np.eye(2), NO_DIFFUSION)

    def test_symmetric_grid(self):
        grid = symmetric_grid(TWO_PI * 5.0, 10)
        assert np.allclose(grid, -grid[::-1])
        assert len(grid) == 10

    def test_compute_spectrum_labels_and_lengths(self):
        mp = medium(optical_depth=0.0)
        freqs = symmetric_grid(TWO_PI * 2.0, 6)
        spectrum = compute_spectrum(mp, freqs, "inseparability")
        assert isinstance(spectrum, NoiseSpectrum)
        assert spectrum.label == "inseparability"
        assert np.allclose(spectrum.values, 1.0, atol=1e-12)
        for kind in ("nonsense", "probe_phase"):
            with pytest.raises(DomainError):
                compute_spectrum(mp, freqs, kind)
