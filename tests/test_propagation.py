"""Propagation tests: generator, transfer, gains, Langevin coefficients."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourwave import numkernel, propagation, spectra
from fourwave.atom import AtomParams, build_coherence_system, diffusion_set, steady_state
from fourwave.errors import CalibrationError, PoleError
from fourwave.propagation import (CALIBRATION_FREQ, POLE_CONDITION_LIMIT, MediumParams,
                                  _screened_generator, commutator_defect, gains, generator,
                                  integrated_diffusion)
from fourwave.numkernel import expm, noise_integral
from fourwave.units import TWO_PI
from fourwave.vapor import VaporParams, doppler_generator, velocity_nodes


def medium(gamma_e_mhz=5.75, gamma_g_mhz=0.01, omega0_mhz=3036.0,
           delta1_mhz=1000.0, delta2_mhz=0.0, rabi_mhz=300.0,
           optical_depth=150.0):
    atom = AtomParams.from_mhz(gamma_e_mhz, gamma_g_mhz, omega0_mhz,
                               delta1_mhz, delta2_mhz, rabi_mhz)
    return MediumParams(atom=atom, optical_depth=optical_depth)


FIG2 = dict(gamma_g_mhz=0.01, rabi_mhz=300.0, delta1_mhz=1000.0,
            optical_depth=150.0)
QBS = dict(gamma_g_mhz=0.5, rabi_mhz=520.0, delta1_mhz=1000.0,
           delta2_mhz=-52.0, optical_depth=300.0)
ENTANGLED = dict(gamma_g_mhz=0.01, rabi_mhz=2000.0, delta1_mhz=2000.0,
                 delta2_mhz=-217.0, optical_depth=150.0)


class TestGenerator:
    def test_zero_depth_is_zero(self):
        g = generator(medium(optical_depth=0.0), TWO_PI * 1.0)
        assert np.max(np.abs(g)) == 0

    def test_no_pump_decouples_modes(self):
        g = generator(medium(rabi_mhz=0.0), TWO_PI * 1.0)
        assert g[0, 1] == 0
        assert g[1, 0] == 0

    def test_resonance_pole_reported_with_frequency(self):
        # no pump, no ground decay: the ground-coherence row of the
        # coherence system vanishes exactly at omega = delta2
        from fourwave.errors import PoleError
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=0.0)
        with pytest.raises(PoleError) as err:
            generator(mp, 0.0)
        assert err.value.omega == 0.0

    def test_absorption_peak_light_shifted_above_line(self):
        # probe absorption maximum sits above the bare one-photon detuning
        deltas = np.linspace(950.0, 1250.0, 301)
        absorption = []
        for d2 in deltas:
            g = generator(medium(gamma_g_mhz=0.001, rabi_mhz=500.0,
                                 delta1_mhz=1000.0, delta2_mhz=d2), 0.0)
            absorption.append(-g[0, 0].real)
        peak = deltas[int(np.argmax(absorption))]
        assert 1000.0 < peak < 1150.0


# The [atom]/[medium] point of configs/vapor_gain_scan.ini.
VAPOR_POINT = dict(gamma_g_mhz=1.0, rabi_mhz=330.0, delta1_mhz=800.0,
                   delta2_mhz=4.0, optical_depth=4500.0)


def doppler_shifts():
    """The delta1 shifts k*v of a hot-rubidium Doppler average, rad/us."""
    return velocity_nodes(VaporParams.rb85_d1(temperature_c=120.0))[2]


class TestStackedGenerator:
    @pytest.mark.parametrize("point", (VAPOR_POINT, FIG2), ids=("vapor", "fig2"))
    def test_stack_equals_per_point_calls(self, point):
        mp = medium(**point)
        w = TWO_PI * 1.0
        omegas = np.array([0.0, w, -w, TWO_PI * 3.7])
        shifts = doppler_shifts()
        stacked, unshifted = generator(mp.at_nodes(shifts), omegas[:, None]), generator(mp, omegas)
        assert stacked.shape == (4, 40, 2, 2)
        for i, omega in enumerate(omegas):
            assert np.array_equal(unshifted[i], generator(mp, omega))
            for j, s in enumerate(shifts):
                single = generator(mp.with_atom(delta1=mp.atom.delta1 + s), omega)
                assert np.array_equal(stacked[i, j], single)

    @pytest.mark.parametrize("point", (VAPOR_POINT, FIG2, QBS), ids=("vapor", "fig2", "qbs"))
    def test_broadcast_delta1_is_the_detuning_shift(self, point):
        # the removed detuning_shift argument added its array to delta1 and
        # put its axis after the frequency axis: a broadcast delta1 does the
        # same, and so does a medium stacked over a sweep with nodes behind
        mp = medium(**point)
        w = TWO_PI * 1.0
        omegas = np.array([0.0, w, -w])
        shifts = doppler_shifts()
        shifted = generator(mp.with_atom(delta1=mp.atom.delta1 + shifts), omegas[:, None])
        assert np.array_equal(shifted, generator(mp.at_nodes(shifts), omegas[:, None]))
        for j, s in enumerate(shifts):
            assert np.array_equal(shifted[:, j], generator(
                mp.with_atom(delta1=mp.atom.delta1 + s), omegas))
        deltas = mp.atom.delta2 + TWO_PI * np.array([-3.0, 0.0, 5.0])
        sweep = mp.with_atom(delta2=deltas).at_nodes(shifts)
        stacked = generator(sweep, omegas[:, None, None])
        assert stacked.shape == (3, 3, 40, 2, 2)
        for r, d2 in enumerate(deltas):
            assert np.array_equal(stacked[:, r], generator(
                mp.with_atom(delta2=d2, delta1=mp.atom.delta1 + shifts), omegas[:, None]))

    def test_pole_names_first_pole_frequency_and_its_nodes(self):
        # no pump, no ground decay: every node is singular at omega = delta2
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=2.0)
        d2 = mp.atom.delta2
        with pytest.raises(PoleError) as err:
            generator(mp.at_nodes(np.array([0.0, 1.0, 2.0])),
                      np.array([0.0, -d2, d2, d2])[:, None])
        assert err.value.omega == d2
        assert err.value.nodes == [0, 1, 2]


def frobenius(m):
    return np.linalg.norm(m, axis=(-2, -1))


def coherence_kernel(mp, omega):
    """(generator prefactor, the kernel T M1'(omega)^-1, the generator) of
    _screened_generator at a 1-D omega, as (..., 2, 4) and (..., 2, 2) stacks."""
    screened = _screened_generator(mp, omega)
    return screened[0], propagation._kernel(screened), propagation._matrices(screened[1])


class TestClosedFormKernel:
    # against T M1'^-1 by LAPACK over the ranges of the configs and scripts
    # (a pole by the kappa_F rule is skipped), to 1e-12 kappa_F relative:
    # the kernel to its own norm, the generator to the norm of the product
    # i p (T M1'^-1) s1 it stands for
    @given(gamma_e=st.floats(0.5, 20.0), gamma_g=st.floats(1e-3, 5.0),
           omega0=st.floats(500.0, 7000.0), delta1=st.floats(-3000.0, 3000.0),
           delta2=st.floats(-300.0, 300.0), rabi=st.floats(0.0, 2000.0),
           depth=st.floats(0.0, 5000.0),
           omegas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_the_inverse(self, gamma_e, gamma_g, omega0, delta1, delta2, rabi, depth,
                                omegas):
        p = AtomParams.from_mhz(gamma_e, gamma_g, omega0, delta1, delta2, rabi)
        w = TWO_PI * np.array(omegas)
        m, s1, t = build_coherence_system(p, steady_state(p), w)
        assume(np.all(np.linalg.cond(m, "fro") <= POLE_CONDITION_LIMIT))
        inv = np.linalg.inv(m)
        tol = 1e-12 * frobenius(m) * frobenius(inv)
        prefactor, kernel, gens = coherence_kernel(MediumParams(p, depth), w)
        assert np.all(frobenius(kernel - t @ inv) <= tol * frobenius(t @ inv))
        exact = 1j * prefactor * (t @ inv @ s1)
        scale = abs(prefactor[..., 0, 0]) * frobenius(t @ inv) * frobenius(s1)
        assert np.all(frobenius(gens - exact) <= tol * scale)

    @pytest.mark.parametrize("point", (FIG2, QBS, ENTANGLED), ids=("fig2", "qbs", "entangled"))
    def test_scale_free(self, point):
        # every rate and detuning times 2**-300, where det M1' of the entries
        # as given underflows to 0: the generator is the same, bit for bit,
        # and the kernel 2**300 times larger
        s, mp = 2.0**-300, medium(**point)
        tiny = MediumParams(AtomParams(*(s * v for v in vars(mp.atom).values())),
                            mp.optical_depth)
        w = TWO_PI * np.array([0.0, 1.0, -4.8])
        _, kernel, gens = coherence_kernel(mp, w)
        _, tiny_kernel, tiny_gens = coherence_kernel(tiny, s * w)
        assert np.array_equal(tiny_gens, gens)
        assert np.array_equal(s * tiny_kernel, kernel)


class TestScreenConditionNumber:
    # the kappa_F that the pole screen compares, against |M1'|_F |M1'^-1|_F
    # with M1' and its inverse from numpy, over TestClosedFormKernel's draws
    @given(gamma_e=st.floats(0.5, 20.0), gamma_g=st.floats(1e-3, 5.0),
           omega0=st.floats(500.0, 7000.0), delta1=st.floats(-3000.0, 3000.0),
           delta2=st.floats(-300.0, 300.0), rabi=st.floats(0.0, 2000.0),
           depth=st.floats(0.0, 5000.0),
           omegas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_is_the_frobenius_condition_number(self, gamma_e, gamma_g, omega0, delta1, delta2,
                                               rabi, depth, omegas):
        p = AtomParams.from_mhz(gamma_e, gamma_g, omega0, delta1, delta2, rabi)
        w = TWO_PI * np.array(omegas)
        m = build_coherence_system(p, steady_state(p), w)[0]
        assume(np.all(np.linalg.cond(m, "fro") <= POLE_CONDITION_LIMIT))
        screened, kappa2 = [], propagation._kappa2
        with mock.patch.object(propagation, "_kappa2",
                               lambda *args: screened.append(kappa2(*args)) or screened[-1]):
            _screened_generator(MediumParams(p, depth), w)
        np.testing.assert_allclose(np.sqrt(screened[0]), frobenius(m) * frobenius(np.linalg.inv(m)),
                                   rtol=1e-12, atol=0.0)


def pump_free_stack(log10_conds):
    """A pump-free medium with gamma_g = 0 over a last axis of delta2 values:
    M1' at omega = 0 is diagonal, so its 2-norm condition number is
    max|diag| / min|diag|, and the smallest entry is d = omega - delta2.
    Member k gets condition number 10**log10_conds[k], or d = 0 exactly for
    None."""
    mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0)
    largest = abs(np.diagonal(build_coherence_system(mp.atom, steady_state(mp.atom), 0.0)[0])).max()
    return mp.with_atom(delta2=np.array([0.0 if k is None else largest / 10.0**k
                                         for k in log10_conds]))


class TestPoleScreen:
    # a stack of a well-conditioned member and one of the given 2-norm
    # condition number (None: singular); kappa_2 <= kappa_F <= 2 kappa_2 here,
    # so 10**11.95, with kappa_2 below the limit, is a pole by its kappa_F
    CASES = ((10.0, False), (11.95, True), (12.05, True), (20.0, True), (None, True))

    @pytest.mark.parametrize("log10_cond, pole", CASES)
    def test_mask_is_the_exact_condition_test(self, log10_cond, pole):
        mp = pump_free_stack([3.0, log10_cond])
        m = build_coherence_system(mp.atom, steady_state(mp.atom), 0.0)[0]
        if log10_cond is not None:
            assert np.log10(np.linalg.cond(m[1])) == pytest.approx(log10_cond, abs=1e-6)
        # |M1'|_F |M1'^-1|_F, inf where M1' is singular
        poles = np.linalg.cond(m, "fro") > POLE_CONDITION_LIMIT
        assert poles.tolist() == [False, pole]
        if pole:
            with pytest.raises(PoleError) as err:
                _screened_generator(mp, 0.0)
            assert err.value.nodes == np.flatnonzero(poles).tolist()
        else:
            _screened_generator(mp, 0.0)

    def test_no_stack_calls_numpy_linalg(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg called while forming a generator stack")
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, forbidden)
        mp = medium(**VAPOR_POINT)
        w = TWO_PI * 1.0
        omegas = np.array([0.0, w, -w])
        assert generator(mp.at_nodes(doppler_shifts()), omegas[:, None]).shape == (3, 40, 2, 2)
        vp = VaporParams.rb85_d1(temperature_c=120.0)
        assert doppler_generator(mp, vp, omegas).shape == (3, 2, 2)
        assert doppler_generator(mp, vp, w).shape == (2, 2)
        for log10_cond in (11.95, 20.0, None):      # pole stacks
            with pytest.raises(PoleError):
                _screened_generator(pump_free_stack([3.0, log10_cond]), 0.0)


class TestTransfer:
    def test_identity_at_zero_depth(self):
        abcd = expm(generator(medium(optical_depth=0.0), TWO_PI * 2.0))
        assert np.allclose(abcd, np.eye(2), atol=1e-15)

    def test_det_identity(self):
        mp = medium(**FIG2)
        w = TWO_PI * 1.0
        abcd = expm(generator(mp, w))
        expected = np.exp(np.trace(generator(mp, w)))
        assert np.linalg.det(abcd) == pytest.approx(expected, rel=1e-9)

    def test_zero_frequency_matches_gains(self):
        mp = medium(**FIG2)
        abcd = expm(generator(mp, 0.0))
        g = gains(mp)
        assert g.gain_a == pytest.approx(abs(abcd[0, 0])**2, rel=1e-14)
        assert g.gain_b == pytest.approx(abs(abcd[1, 0])**2, rel=1e-14)


class TestGains:
    def test_transparent_medium(self):
        g = gains(medium(optical_depth=0.0))
        assert (g.gain_a, g.gain_b) == (1.0, 0.0)
        assert (g.phase_a, g.phase_b) == (0.0, 0.0)

    def test_quantum_beamsplitter_total_gain_below_unity(self):
        g = gains(medium(**QBS))
        assert g.gain_a + g.gain_b < 1.0
        assert g.gain_b > 0.0

    def test_raman_dip_and_mixing_peak(self):
        # probe gain shows an absorption dip near two-photon resonance and
        # an adjacent amplification peak
        deltas = np.linspace(-100.0, 100.0, 201)
        ga = np.array([gains(medium(**{**FIG2, "delta2_mhz": d})).gain_a
                       for d in deltas])
        assert ga.min() < 0.6
        assert ga.max() > 1.01
        assert abs(deltas[ga.argmin()]) < 50
        assert abs(deltas[ga.argmax()]) < 50

    def test_phases_in_principal_branch(self):
        g = gains(medium(**FIG2, delta2_mhz=-48.0))
        assert -np.pi < g.phase_a <= np.pi
        assert -np.pi < g.phase_b <= np.pi

    def test_continuity_in_two_photon_detuning(self):
        deltas = np.linspace(-60, -40, 41)
        ga = [gains(medium(**{**FIG2, "delta2_mhz": d})).gain_a for d in deltas]
        steps = np.abs(np.diff(ga))
        assert steps.max() < 0.2 * (max(ga) - min(ga) + 1e-12)


class TestIntegratedDiffusion:
    # w[sign, mode]: sign 0 at +omega, 1 at -omega; mode 0 is a, 1 is b
    def test_zero_depth(self):
        w = integrated_diffusion(medium(optical_depth=0.0), TWO_PI * 1.0)
        assert w.tolist() == [[0, 0], [0, 0]]

    def test_nonnegative(self):
        w = integrated_diffusion(medium(**FIG2), TWO_PI * 1.0)
        assert w.shape == (2, 2)
        for val in w.flat:
            assert val >= -1e-10
        # the mode-a weights, and with them the normalization scale, are positive
        assert (w[:, 0] > 0).all()

    def test_no_pump_keeps_conjugate_uncoupled(self):
        # with the pump off the mode coupling vanishes, so the b-channel
        # weights cannot enter the probe spectra (they weight |B|^2 = 0);
        # pure absorption still diffuses the probe channel
        mp = medium(rabi_mhz=0.0, delta2_mhz=1000.0, optical_depth=5.0)
        abcd = expm(generator(mp, TWO_PI * 1.0))
        assert abcd[0, 1] == 0
        assert abcd[1, 0] == 0
        w = integrated_diffusion(mp, TWO_PI * 1.0)
        assert w[0, 0] > 0

    @pytest.mark.parametrize("sign, mode", ((0, 0), (1, 0), (0, 1), (1, 1)),
                             ids=("a", "a-rev", "b", "b-rev"))
    @pytest.mark.parametrize("point, freq_mhz", ((FIG2, 1.0), (QBS, 1.0),
                                                 (ENTANGLED, 4.8)),
                             ids=("fig2-1MHz", "qbs-1MHz", "entangled-4.8MHz"))
    def test_matches_midpoint_riemann_sum(self, point, freq_mhz, sign, mode):
        # independent quadrature route for the z-integral and for its scale,
        # (1 - (|A|^2 - |B|^2)) over the d1 - d2 probe weight at the reference
        from fourwave.atom import diffusion_set
        mp = medium(**point)
        ds = diffusion_set(mp.atom)
        abcd, raw = self.riemann_weight(mp, CALIBRATION_FREQ, 0, ds.d1 - ds.d2)
        scale = (1.0 - (abs(abcd[0, 0])**2 - abs(abcd[0, 1])**2)) / raw
        w = TWO_PI * freq_mhz
        oracle = scale * self.riemann_weight(mp, -w if sign else w, mode, ds.dsym)[1]
        got = integrated_diffusion(mp, w)[sign, mode]
        assert got == pytest.approx(oracle, rel=1e-6)

    @staticmethod
    def riemann_weight(mp, omega, mode, dmat, n=20000):
        """The transfer at omega and pref times the midpoint Riemann sum of
        (e^{-Gz} K D K^+ e^{-G^+ z})[mode, mode], e^{-Gz} at the midpoints
        z_k = (k + 1/2)/n by repeated multiplication."""
        p = mp.atom
        m1p, s1, t = build_coherence_system(p, steady_state(p), omega)
        kernel = t @ np.linalg.inv(m1p)
        pref = mp.optical_depth * p.gamma_e / 4.0
        gen = 1j * pref * (kernel @ s1)
        step = expm(-gen / n)
        ez = np.empty((n, 2, 2), dtype=complex)
        ez[0] = expm(-gen / (2 * n))
        for k in range(1, n):
            ez[k] = ez[k - 1] @ step
        u = ez[:, mode, :] @ kernel
        return expm(gen), pref * np.einsum("ki,ij,kj->", u, dmat, u.conj()).real / n

    @pytest.mark.parametrize("optical_depth", (np.linspace(0.0, 300.0, 61)[:, None], 0.0),
                             ids=("stack", "transparent"))
    def test_equals_the_weights_evaluate_uses(self, monkeypatch, optical_depth):
        seen = []
        read_off = spectra.observables
        monkeypatch.setattr(spectra, "observables",
                            lambda *args: seen.append(args[-1]) or read_off(*args))
        mp = medium(**{**QBS, "optical_depth": optical_depth})
        omega = TWO_PI * np.linspace(0.5, 4.5, 5)
        spectra.evaluate(mp, omega)
        assert integrated_diffusion(mp, omega).tobytes() == seen[0].tobytes()


def broadcast_weights(mp, omegas, defect=False):
    """The Langevin weights of one (rows, ...) stack of omega broadcast against
    the medium, the reference row broadcast to every point and D stacked per
    row (the layout before the flat member axis), as _langevin normalizes them."""
    ref = propagation._reference(mp)
    r = len(ref)
    freqs = np.stack(np.broadcast_arrays(np.zeros(mp.shape), *ref, *omegas)[1:])
    pref, gens, _, _ = screened = _screened_generator(mp, freqs)
    kernel = propagation._kernel(screened).reshape(freqs.shape + (2, 4))
    ds = diffusion_set(mp.atom)
    d12 = ds.d1 - ds.d2
    dmats = np.stack([d12] * r + [d12 if defect else ds.dsym] * len(omegas))
    dmats = np.expand_dims(dmats, tuple(range(1, 1 + kernel.ndim - dmats.ndim)))
    qm = kernel @ dmats @ np.swapaxes(kernel.conj(), -1, -2)
    q = (qm[..., i, j].reshape(-1) for i, j in ((0, 0), (0, 1), (1, 1)))
    x = numkernel._noise_integral_rows(*-gens.reshape(4, -1), *q).T.reshape(kernel.shape[:-1])
    scale = 1.0
    if r:
        abcd = numkernel._expm_rows(*gens[:, :r].reshape(4, -1)).T.reshape(
            gens[:, :r].shape[1:] + (2, 2))
        raw = pref[..., 0, 0] * x[:r, ..., 0]
        deficit = 1.0 - (abs(abcd[..., 0, 0])**2 - abs(abcd[..., 0, 1])**2)
        vanishing = abs(raw) < 1e-14
        scale = np.where(vanishing, 1.0, deficit / np.where(vanishing, 1.0, raw))[0]
    return np.expand_dims(scale, -1) * pref[..., 0] * x[r:]


class TestFlatStack:
    """integrated_diffusion and commutator_defect, whose reference members the
    flat stack forms once per medium, equal the broadcast stack bit for bit."""

    MEDIA = {"omega-sweep": ({}, TWO_PI * np.linspace(0.1, 5.0, 50)),
             "media": ({"delta2_mhz": np.linspace(-80.0, -20.0, 61)}, TWO_PI * 1.0),
             "media-by-omega": ({"optical_depth": np.array([[0.0], [150.0], [300.0]])},
                                TWO_PI * np.array([0.3, 1.0, 2.5, 4.0])),
             "transparent": ({"optical_depth": 0.0}, TWO_PI * np.array([0.5, 2.0]))}

    @pytest.mark.parametrize("changes, omega", MEDIA.values(), ids=MEDIA.keys())
    def test_integrated_diffusion(self, changes, omega):
        mp = medium(**{**QBS, **changes})
        got = integrated_diffusion(mp, omega)
        want = broadcast_weights(mp, (omega, -omega))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("changes, omega", MEDIA.values(), ids=MEDIA.keys())
    def test_commutator_defect(self, changes, omega):
        mp = medium(**{**QBS, **changes})
        got = np.asarray(commutator_defect(mp, omega))
        want = broadcast_weights(mp, (omega,), defect=True)[0, ..., 0]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCalibration:
    # the only pole of this medium sits at omega = delta2 = the 1 MHz reference
    RAMAN_AT_REFERENCE = dict(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=1.0)

    def test_transparent_medium_forms_no_reference(self):
        mp = medium(**self.RAMAN_AT_REFERENCE, optical_depth=0.0)
        assert commutator_defect(mp, TWO_PI * 2.0) == 0.0

    def test_commutator_identity_across_frequencies(self):
        mp = medium(**FIG2)
        for f in np.linspace(0.2, 10.0, 12):
            w = TWO_PI * f
            abcd = expm(generator(mp, w))
            lhs = abs(abcd[0, 0])**2 - abs(abcd[0, 1])**2 + commutator_defect(mp, w)
            assert lhs == pytest.approx(1.0, abs=1e-4)

    def test_exact_at_reference_frequency(self):
        mp = medium(**QBS)
        w = TWO_PI * 1.0
        abcd = expm(generator(mp, w))
        lhs = abs(abcd[0, 0])**2 - abs(abcd[0, 1])**2 + commutator_defect(mp, w)
        assert lhs == pytest.approx(1.0, abs=1e-6)

    def test_errors_are_not_cached(self):
        mp = medium(**self.RAMAN_AT_REFERENCE)
        with pytest.raises(PoleError) as err:
            integrated_diffusion(mp, TWO_PI * 2.0)
        assert err.value.omega == TWO_PI * 1.0

    # a dense medium whose scale comes out negative: the d1 - d2 probe
    # weight at the reference has the sign opposite to the commutator deficit
    NEGATIVE_SCALE = dict(gamma_g_mhz=0.58, delta1_mhz=-1678.3, delta2_mhz=-54.0,
                          rabi_mhz=778.65, optical_depth=5000.0)

    @pytest.mark.parametrize("call", (integrated_diffusion, spectra.evaluate),
                             ids=("integrated_diffusion", "evaluate"))
    def test_non_positive_scale_raises(self, call):
        with pytest.raises(CalibrationError,
                           match=r"^calibration produced non-positive scale -3\.417e\+00$"):
            call(medium(**self.NEGATIVE_SCALE), TWO_PI * 2.0)


class TestRoundingContract:
    """A member rounds the same in a stack of any size: a 20000-member stack,
    past the 16384 complex members (256 KiB) from which numpy may reuse a
    temporary operand in place, equals its members run in chunks of at most
    1000, bit for bit."""

    MEMBERS, CHUNK = 20000, 1000

    @classmethod
    def assert_chunks_agree(cls, compute, *stacks):
        """compute on the whole stacks (members leading) against CHUNK members at a time."""
        whole = compute(*stacks)
        parts = np.concatenate([compute(*(s[k:k + cls.CHUNK] for s in stacks))
                                for k in range(0, cls.MEMBERS, cls.CHUNK)])
        assert whole.shape == parts.shape
        assert whole.tobytes() == parts.tobytes()

    def test_screened_generator_and_generator(self):
        mp = medium(**ENTANGLED)
        omega = TWO_PI * np.linspace(-5.0, 5.0, self.MEMBERS)

        def screened(w):        # the generator rows, the scale and the flat factors
            _, gens, t, factors = _screened_generator(mp, w)
            return np.vstack([gens, t, *factors]).T
        self.assert_chunks_agree(screened, omega)
        self.assert_chunks_agree(lambda w: generator(mp, w), omega)

    # log10 of the entry scale of B: |s| < 1 and the noise integral's Taylor
    # series for most members, |s| >= 1 for most, and both with |a| past _N_MAX
    @pytest.fixture(scope="class", params=((-4.0, -1.5), (0.5, 1.8), (-3.0, 1.3)),
                    ids=("small", "large", "mixed"))
    def stack(self, request):
        """A (MEMBERS, 2, 2) stack B and a Hermitian stack Q."""
        rng = np.random.default_rng(26)
        n = self.MEMBERS
        b = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        b *= 10.0 ** rng.uniform(*request.param, (n, 1, 1))
        k = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        return b, k @ np.swapaxes(k.conj(), -1, -2)

    @staticmethod
    def rows(m):
        """The flat contiguous rows m00, m01, m10, m11 of a (n, 2, 2) stack."""
        return np.ascontiguousarray(m.reshape(-1, 4).T)

    def test_expm(self, stack):
        self.assert_chunks_agree(expm, stack[0])
        self.assert_chunks_agree(lambda b: numkernel._expm_rows(*self.rows(b)).T, stack[0])

    def test_noise_integral(self, stack):
        self.assert_chunks_agree(noise_integral, *stack)

        def core(b, q):
            q00, q01, _, q11 = self.rows(q)
            return numkernel._noise_integral_rows(*self.rows(b), q00, q01, q11).T
        self.assert_chunks_agree(core, *stack)
