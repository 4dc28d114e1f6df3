"""Propagation tests: generator, transfer, gains, Langevin coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave.atom import AtomParams
from fourwave.errors import PoleError
from fourwave.propagation import (POLE_CONDITION_LIMIT, MediumParams,
                                  _folded_matmul, _inverse_and_poles,
                                  calibrate_langevin_scale,
                                  commutator_defect, gains, generator,
                                  integrated_diffusion)
from fourwave.numkernel import expm, gauss_hermite_nodes
from fourwave.units import TWO_PI
from fourwave.vapor import VaporParams, doppler_generator, velocity_sigma


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


def doppler_shifts(order=40):
    """The delta1 shifts k*v of a hot-rubidium Doppler average, rad/us."""
    vp = VaporParams.rb85_d1(temperature_c=120.0)
    velocities, _ = gauss_hermite_nodes(order, velocity_sigma(vp))
    return TWO_PI / vp.wavelength * velocities * 1e-6


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


def conditioned(rng, log10_cond, defect=0):
    """Random complex 4x4 matrix of 2-norm condition number 10**log10_cond;
    defect 1 zeroes a row and defect 2 repeats a column (exactly singular)."""
    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return q
    m = (unitary() * np.logspace(0.0, -log10_cond, 4)) @ unitary()
    if defect == 1:
        m[2] = 0.0
    elif defect == 2:
        m[:, 3] = m[:, 1]
    return m


class TestPoleScreen:
    # members: (log10 condition number, rank defect, log10 scale); about one
    # in four is exactly singular
    @given(seed=st.integers(0, 2**32 - 1),
           members=st.lists(st.tuples(st.floats(0.0, 20.0),
                                      st.sampled_from((0,) * 6 + (1, 2)),
                                      st.floats(-3.0, 3.0)), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_mask_is_the_exact_condition_test(self, seed, members):
        rng = np.random.default_rng(seed)
        m = np.stack([10.0**scale * conditioned(rng, log10_cond, defect)
                      for log10_cond, defect, scale in members])
        inv, poles = _inverse_and_poles(m)
        assert np.array_equal(poles, np.linalg.cond(m) > POLE_CONDITION_LIMIT)
        if not poles.any():
            assert np.array_equal(inv, np.linalg.inv(m))

    @pytest.mark.parametrize("log10_cond, svd", (
        (0.0, False), (10.0, False), (11.95, True), (12.05, True), (20.0, True)))
    def test_svd_runs_only_where_the_screen_cannot_decide(self, monkeypatch,
                                                          log10_cond, svd):
        # kappa_2 <= kappa_F <= 4 kappa_2 for 4x4: the screen at 5e11 always
        # passes kappa_2 = 1e10 and always fails kappa_2 >= 8.9e11
        calls, exact = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m) or exact(m))
        m = np.stack([conditioned(np.random.default_rng(3), 1.0),
                      conditioned(np.random.default_rng(4), log10_cond)])
        _, poles = _inverse_and_poles(m)
        assert bool(calls) == svd
        assert poles.tolist() == [False, exact(m[1]) > POLE_CONDITION_LIMIT]

    def test_well_conditioned_stacks_never_reach_the_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.cond called on a well-conditioned stack")
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        mp = medium(**VAPOR_POINT)
        w = TWO_PI * 1.0
        omegas = np.array([0.0, w, -w])
        assert generator(mp.at_nodes(doppler_shifts()), omegas[:, None]).shape == (3, 40, 2, 2)
        vp = VaporParams.rb85_d1(temperature_c=120.0)
        assert doppler_generator(mp, vp, omegas).shape == (3, 2, 2)
        assert doppler_generator(mp, vp, w).shape == (2, 2)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFoldedProduct:
    # per leading axis of a: both vary, b is broadcast (size 1) or a is;
    # then b drops its leading size-1 axes or gains leading axes of its own
    @given(seed=st.integers(0, 2**32 - 1),
           axes=st.lists(st.tuples(st.integers(2, 4), st.sampled_from(("both", "b", "a"))),
                         max_size=3),
           rows=st.integers(1, 3), inner=st.integers(1, 4), cols=st.integers(1, 3),
           b_axes=st.sampled_from(("same", "fewer", "more")))
    @settings(max_examples=300)
    def test_equals_matmul_byte_for_byte(self, seed, axes, rows, inner, cols, b_axes):
        rng = np.random.default_rng(seed)
        a_lead = [1 if who == "a" else n for n, who in axes]
        b_lead = [1 if who == "b" else n for n, who in axes]
        if b_axes == "fewer":
            while b_lead and b_lead[0] == 1:
                b_lead.pop(0)
        elif b_axes == "more":
            b_lead = [2] + b_lead
        a = complex_normal(rng, (*a_lead, rows, inner))
        b = complex_normal(rng, (*b_lead, inner, cols))
        folded, plain = _folded_matmul(a, b), a @ b
        assert folded.shape == plain.shape
        assert folded.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("a_shape, b_shape", (
        ((3, 61, 40, 2, 4), (40, 4, 2)),    # a vapor sweep's kernel @ s1
        ((2, 61, 2, 4), (4, 4)),            # its noise kernel @ D
        ((3, 61, 40, 1, 4), (40, 4, 2)),    # one-row operands stay unfolded
    ))
    def test_vapor_layouts(self, a_shape, b_shape):
        rng = np.random.default_rng(7)
        a, b = complex_normal(rng, a_shape), complex_normal(rng, b_shape)
        a[..., 0, 0] = 0.0      # exact zeros and their signs pass through too
        a[..., -1, 1] = -0.0
        assert _folded_matmul(a, b).tobytes() == (a @ b).tobytes()


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
    def test_zero_depth(self):
        d = integrated_diffusion(medium(optical_depth=0.0), TWO_PI * 1.0)
        assert (d.d_aa, d.d_aa_rev, d.d_bb, d.d_bb_rev) == (0, 0, 0, 0)

    def test_nonnegative(self):
        d = integrated_diffusion(medium(**FIG2), TWO_PI * 1.0)
        for val in (d.d_aa, d.d_aa_rev, d.d_bb, d.d_bb_rev):
            assert val >= -1e-10

    def test_no_pump_keeps_conjugate_uncoupled(self):
        # with the pump off the mode coupling vanishes, so the b-channel
        # coefficients cannot enter the probe spectra (they weight |B|^2 = 0);
        # pure absorption still diffuses the probe channel
        mp = medium(rabi_mhz=0.0, delta2_mhz=1000.0, optical_depth=5.0)
        abcd = expm(generator(mp, TWO_PI * 1.0))
        assert abcd[0, 1] == 0
        assert abcd[1, 0] == 0
        d = integrated_diffusion(mp, TWO_PI * 1.0)
        assert d.d_aa > 0

    @pytest.mark.parametrize("field", ("d_aa", "d_aa_rev", "d_bb", "d_bb_rev"))
    @pytest.mark.parametrize("point, freq_mhz", ((FIG2, 1.0), (QBS, 1.0),
                                                 (ENTANGLED, 4.8)),
                             ids=("fig2-1MHz", "qbs-1MHz", "entangled-4.8MHz"))
    def test_matches_midpoint_riemann_sum(self, point, freq_mhz, field):
        # independent quadrature route for the z-integral; e^{-G z} at the
        # midpoints z_k = (k + 1/2)/n by repeated multiplication
        from fourwave.atom import build_coherence_system, diffusion_set, steady_state
        mp = medium(**point)
        w = TWO_PI * freq_mhz
        row = 0 if field.startswith("d_aa") else 1
        omega = -w if field.endswith("_rev") else w
        p = mp.atom
        m1p, s1, t = build_coherence_system(p, steady_state(p), omega)
        kernel = t @ np.linalg.inv(m1p)
        pref = mp.optical_depth * p.gamma_e / 4.0
        gen_w = 1j * pref * (kernel @ s1)
        dsym = diffusion_set(p).dsym
        n = 20000
        step = expm(-gen_w / n)
        ez = np.empty((n, 2, 2), dtype=complex)
        ez[0] = expm(-gen_w / (2 * n))
        for k in range(1, n):
            ez[k] = ez[k - 1] @ step
        u = ez[:, row, :] @ kernel
        oracle = (calibrate_langevin_scale(mp) * pref
                  * np.einsum("ki,ij,kj->", u, dsym, u.conj()).real / n)
        got = getattr(integrated_diffusion(mp, w), field)
        assert got == pytest.approx(oracle, rel=1e-6)


class TestCalibration:
    def test_zero_depth_returns_unity(self):
        assert calibrate_langevin_scale(medium(optical_depth=0.0)) == 1.0

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

    def test_scale_positive(self):
        assert calibrate_langevin_scale(medium(**FIG2)) > 0

    def test_errors_are_not_cached(self):
        # pole at omega = delta2 = the 1 MHz reference frequency
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=1.0)
        with pytest.raises(PoleError) as err:
            calibrate_langevin_scale(mp)
        assert err.value.omega == TWO_PI * 1.0
