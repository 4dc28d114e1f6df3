"""Atom-model tests: drift matrix, steady state, coherence system, diffusion."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fourwave.atom import (AtomParams, build_coherence_system, build_drift_m0,
                           decay_rates, diffusion_set, drift_source,
                           preparation_probability, slowest_relaxation,
                           steady_state)
from fourwave.errors import DegenerateModelError, DomainError
from fourwave.units import TWO_PI


def atom(gamma_e=1.0, gamma_g=0.0, omega0=0.0, delta1=0.0, delta2=0.0, rabi=0.0):
    return AtomParams(gamma_e=gamma_e, gamma_g=gamma_g, omega0=omega0,
                      delta1=delta1, delta2=delta2, rabi=rabi)


# Structurally nonzero off-diagonal slots of the displayed drift matrix
# (row, col), zero-based.
M0_OFFDIAG_PATTERN = {
    (0, 1), (0, 3), (0, 4),
    (1, 0), (1, 5), (1, 6),
    (2, 3), (2, 4),
    (3, 0), (3, 2),
    (4, 0), (4, 2),
    (5, 0), (5, 1), (5, 2),
    (6, 0), (6, 1), (6, 2),
}


class TestDriftMatrix:
    def test_direct_entries_no_pump(self):
        m = build_drift_m0(atom(gamma_e=1.0))
        assert m[0, 0] == 0.5j
        assert m[0, 3] == 0
        assert m[3, 3] == 0.5j

    def test_pump_coupling_entries(self):
        m = build_drift_m0(atom(rabi=2.0))
        assert m[0, 3] == -1.0
        assert m[0, 4] == +1.0

    def test_sparsity_pattern(self):
        m = build_drift_m0(atom(gamma_e=1.3, gamma_g=0.2, omega0=3.0,
                                delta1=0.7, rabi=0.9))
        nz = {(i, j) for i in range(7) for j in range(7)
              if i != j and m[i, j] != 0}
        assert nz == M0_OFFDIAG_PATTERN


class TestSteadyState:
    def test_resonant_unit_pump(self):
        ss = steady_state(atom(gamma_e=1.0, rabi=1.0))
        assert ss.pops == pytest.approx((1/3, 1/3, 1/6, 1/6), abs=1e-14)
        assert ss.coh[0] == pytest.approx(-1j/6, abs=1e-14)

    def test_no_pump(self):
        ss = steady_state(atom(gamma_e=1.0, delta1=0.7, omega0=3.0))
        assert ss.pops[2] == 0
        assert ss.pops[3] == pytest.approx(0, abs=1e-15)
        assert ss.coh[0] == 0

    def test_matches_long_time_ode(self):
        # integrate d/dt S = i M0 S - i S0 from the unpumped 50/50 state
        p = atom(gamma_e=1.0, rabi=0.7, delta1=0.4, omega0=3.0)
        m0, s0 = build_drift_m0(p), drift_source(p)
        y0 = np.array([0.5, 0.5, 0, 0, 0, 0, 0], dtype=complex)
        sol = solve_ivp(lambda _, y: 1j * (m0 @ y) - 1j * s0, (0.0, 400.0), y0,
                        rtol=1e-11, atol=1e-13, method="DOP853")
        ss = steady_state(p)
        expect = np.array([ss.pops[0], ss.pops[1], ss.pops[2], *ss.coh])
        assert np.max(np.abs(sol.y[:, -1] - expect)) < 1e-8

    def test_closure_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = atom(gamma_e=rng.uniform(0.1, 50),
                     gamma_g=rng.uniform(0, 1),
                     omega0=rng.uniform(0, 2e4),
                     delta1=rng.uniform(-1e4, 1e4),
                     rabi=rng.uniform(0, 1.5e4))
            ss = steady_state(p)
            assert abs(sum(ss.pops) - 1.0) < 1e-10
            assert all(-1e-12 <= pop <= 1 + 1e-12 for pop in ss.pops)

    def test_excited_populations_equal(self):
        # s33 = s44 = rabi^2 / (2 D) for every parameter set
        p = atom(gamma_e=2.3, omega0=1.9e4, delta1=4.4e3, rabi=6.3e3)
        ss = steady_state(p)
        denom = p.gamma_e**2 + 2 * (p.rabi**2 + p.delta1**2
                                    + (p.delta1 + p.omega0)**2)
        assert ss.pops[2] == pytest.approx(p.rabi**2 / (2 * denom), rel=1e-12)
        assert ss.pops[3] == pytest.approx(ss.pops[2], rel=1e-9)

    def test_solves_linear_system(self):
        p = atom(gamma_e=1.7, omega0=8.0, delta1=-2.0, rabi=3.0)
        ss = steady_state(p)
        vec = np.array([ss.pops[0], ss.pops[1], ss.pops[2], *ss.coh])
        resid = build_drift_m0(p) @ vec - drift_source(p)
        assert np.max(np.abs(resid)) < 1e-10


class TestCoherenceSystem:
    def test_no_pump_diagonal(self):
        p = atom(gamma_e=1.0, gamma_g=0.1, omega0=3.0, delta1=0.5, delta2=0.2)
        ss = steady_state(p)
        m1p, s1, t = build_coherence_system(p, ss, 0.0)
        off = m1p - np.diag(np.diag(m1p))
        assert np.max(np.abs(off)) == 0
        assert np.max(np.abs(s1[2:, :])) == 0

    def test_ground_coherence_entry(self):
        p = atom(gamma_e=1.0, gamma_g=0.3, delta2=0.9)
        ss = steady_state(p)
        m1p, _, _ = build_coherence_system(p, ss, 0.0)
        assert m1p[3, 3] == pytest.approx(1j * 0.3 - 0.9)

    def test_frequency_shift_is_identity(self):
        p = atom(gamma_e=1.0, rabi=0.5, delta1=0.2, omega0=2.0)
        ss = steady_state(p)
        m_w, _, _ = build_coherence_system(p, ss, 1.25)
        m_0, _, _ = build_coherence_system(p, ss, 0.0)
        assert np.allclose(m_w - m_0, 1.25 * np.eye(4), atol=1e-15)

    def test_projector_shape(self):
        p = atom(gamma_e=1.0)
        _, _, t = build_coherence_system(p, steady_state(p), 0.0)
        assert np.array_equal(t, [[1, 0, 0, 0], [0, -1, 0, 0]])


class TestStackedSteadyState:
    # numpy floats, like the velocity nodes of a Doppler average: the
    # per-node calls then run the same numpy arithmetic as the stack
    SHIFTS = np.linspace(-3000.0, 3000.0, 4001)
    P = AtomParams.from_mhz(5.75, 1.0, 3036.0, 800.0, 4.0, 330.0)

    def test_stack_equals_per_node_states(self):
        ss = steady_state(dataclasses.replace(self.P, delta1=self.P.delta1 + self.SHIFTS))
        for j, s in enumerate(self.SHIFTS):
            one = steady_state(dataclasses.replace(self.P, delta1=self.P.delta1 + s))
            for stacked, single in zip(ss.pops + ss.coh, one.pops + one.coh):
                assert stacked[j] == single

    def test_coherence_system_stacks_frequency_then_shift(self):
        shifts = self.SHIFTS[::1000]
        omegas = np.array([0.0, 1.5, -1.5])
        nodes = dataclasses.replace(self.P, delta1=self.P.delta1 + shifts)
        m1p, s1, _ = build_coherence_system(nodes, steady_state(nodes), omegas[:, None])
        m0 = build_drift_m0(nodes)
        assert m1p.shape == (3, 5, 4, 4) and s1.shape == (5, 4, 2)
        for j, s in enumerate(shifts):
            p = dataclasses.replace(self.P, delta1=self.P.delta1 + s)
            assert np.array_equal(m0[j], build_drift_m0(p))
            for i, w in enumerate(omegas):
                one, s1_one, _ = build_coherence_system(p, steady_state(p), w)
                assert np.array_equal(m1p[i, j], one)
                assert np.array_equal(s1[j], s1_one)

    def test_residual_checked_on_every_node(self, monkeypatch):
        import fourwave.atom as atom_mod
        exact = atom_mod._drift_rows

        def broken_on_last_node(p):
            rows = exact(p)
            rows[0][0] = rows[0][0] + (np.arange(np.size(p.delta1)) == np.size(p.delta1) - 1)
            return rows

        monkeypatch.setattr(atom_mod, "_drift_rows", broken_on_last_node)
        with pytest.raises(DegenerateModelError):
            steady_state(dataclasses.replace(self.P, delta1=self.P.delta1 + self.SHIFTS[:3]))


class TestDiffusionSet:
    def test_pump_free_zeros(self):
        ds = diffusion_set(atom(gamma_e=1.0, gamma_g=0.2, delta1=0.5, omega0=2.0))
        assert ds.d1[1, 1] == 0
        assert ds.d1[2, 2] == 0
        # every pump-proportional entry vanishes
        assert np.max(np.abs(ds.d1 - np.diag(np.diag(ds.d1)))) == 0

    def test_displayed_entry(self):
        g, gam, om, dl, w0 = 1.0, 0.01, 0.5, 1.0, 3.0
        ds = diffusion_set(atom(gamma_e=g, gamma_g=gam, delta1=dl,
                                omega0=w0, rabi=om))
        tau = 2*g**2 + 4*om**2 + 4*w0**2 + 8*dl**2 + 8*dl*w0
        expected = 1j * g * om * (g + 2j * (dl + w0)) / (2 * tau)
        assert ds.d1[0, 2] == pytest.approx(expected, rel=1e-14)
        assert ds.d1[2, 0] == pytest.approx(np.conj(expected), rel=1e-14)

    def test_hermitian_nonnegative_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ds = diffusion_set(atom(gamma_e=rng.uniform(0.1, 40),
                                    gamma_g=rng.uniform(0, 2),
                                    omega0=rng.uniform(0, 2e4),
                                    delta1=rng.uniform(0, 1e4),
                                    rabi=rng.uniform(0, 1e4)))
            for m in (ds.d1, ds.d2, ds.dsym):
                assert np.max(np.abs(m - m.conj().T)) < 1e-14 * max(1, np.max(np.abs(m)))
                assert np.min(np.diag(m).real) >= -1e-12

    def test_symmetrized_is_exact_average(self):
        ds = diffusion_set(atom(gamma_e=2.0, gamma_g=0.1, delta1=1.0,
                                omega0=4.0, rabi=1.5))
        assert np.array_equal(ds.dsym, (ds.d1 + ds.d2) / 2)


class TestRelaxation:
    def test_analytic_pump_free_rates(self):
        # Omega = 0 block-diagonal drift: decay rates {0, 1, 1, 1/2 x4}
        p = atom(gamma_e=1.0)
        rates = decay_rates(p)
        nonzero = rates[rates > 1e-12]
        assert nonzero.min() == pytest.approx(0.5, rel=1e-12)
        assert slowest_relaxation(p) == pytest.approx(2.0, rel=1e-12)

    def test_rate_scaling(self):
        p = atom(gamma_e=1.0, gamma_g=0.0, omega0=3.0, delta1=0.7, rabi=0.9)
        t0 = slowest_relaxation(p)
        s = 3.7
        scaled = atom(gamma_e=s, omega0=3.0*s, delta1=0.7*s, rabi=0.9*s)
        assert slowest_relaxation(scaled) == pytest.approx(t0 / s, rel=1e-10)

    def test_stability_over_experimental_grid(self):
        # one-photon detuning 0.7..3 GHz, Rabi 0.3..2 GHz
        g = TWO_PI * 5.75
        w0 = TWO_PI * 3036.0
        for dl in np.linspace(TWO_PI*700, TWO_PI*3000, 8):
            for om in np.linspace(TWO_PI*300, TWO_PI*2000, 8):
                rates = decay_rates(atom(gamma_e=g, omega0=w0, delta1=dl, rabi=om))
                assert rates.min() >= -1e-10 * rates.max()

    def test_preparation_probability_limits(self):
        p = atom(gamma_e=1.0, omega0=3.0, delta1=0.7, rabi=0.9)
        t0 = slowest_relaxation(p)
        assert preparation_probability(p, 0.0) == 0.0
        assert preparation_probability(p, t0) == pytest.approx(1 - 1/np.e, rel=1e-12)
        assert preparation_probability(p, 40 * t0) == pytest.approx(1.0, abs=1e-12)
        ts = np.linspace(0, 5 * t0, 50)
        ps = [preparation_probability(p, t) for t in ts]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            preparation_probability(atom(), -0.1)


class TestParamValidation:
    def test_rejects_nonpositive_linewidth(self):
        with pytest.raises(DomainError):
            atom(gamma_e=0.0)

    def test_rejects_negative_rabi(self):
        with pytest.raises(DomainError):
            atom(rabi=-1.0)

    def test_from_mhz_applies_two_pi(self):
        p = AtomParams.from_mhz(gamma_e=5.75, gamma_g=0.0, omega0=3036,
                                delta1=1000, delta2=0, rabi=300)
        assert p.gamma_e == pytest.approx(TWO_PI * 5.75)
        assert p.omega0 == pytest.approx(TWO_PI * 3036)
