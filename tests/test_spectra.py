"""Noise-spectra tests, including the synthetic ideal-amplifier oracle."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fourwave import config, propagation, spectra
from fourwave.atom import AtomParams
from fourwave.errors import DomainError, NormalizationError, PoleError
from fourwave.numkernel import expm
from fourwave.propagation import MediumParams, generator
from fourwave.spectra import NOISE_FIELDS, evaluate, observables, to_dB
from fourwave.units import TWO_PI
from fourwave.vapor import VaporParams, doppler_generator

from test_propagation import ENTANGLED, QBS, VAPOR_POINT


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


NO_DIFFUSION = np.zeros((2, 2))     # w[+-omega, mode]


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


class TestReadOffOracle:
    """observables against the formulas of each spectrum written out term by
    term, on random complex transfer matrices and random non-negative
    diffusion weights: bit for bit, which pins each output combination and
    its signs."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_equals_the_written_out_formulas(self, seed):
        rng = np.random.default_rng(seed)
        shape = (3, 50)
        abcd0, abcd_w, abcd_mw = (
            10.0 ** rng.uniform(-3, 3, (*shape, 1, 1))
            * (rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2)))
            for _ in range(3))
        w = rng.exponential(size=(2, *shape, 2)) * 10.0 ** rng.uniform(-6, 2, (2, *shape, 1))
        d_aa, d_bb, d_aa_rev, d_bb_rev = w[0, ..., 0], w[0, ..., 1], w[1, ..., 0], w[1, ..., 1]
        a0, c0 = abcd0[..., 0, 0], abcd0[..., 1, 0]
        (aw, bw), (cw, dw) = np.moveaxis(abcd_w, (-2, -1), (0, 1))
        (am, bm), (cm, dm) = np.moveaxis(abcd_mw, (-2, -1), (0, 1))
        denom = 2.0 * (abs(a0)**2 + abs(c0)**2)
        s_nminus = (abs(np.conj(a0)*aw - np.conj(c0)*cw)**2 * (1.0 + d_aa)
                    + abs(a0*np.conj(am) - c0*np.conj(cm))**2 * (1.0 + d_aa_rev)
                    + abs(np.conj(a0)*bw - np.conj(c0)*dw)**2 * (1.0 + d_bb)
                    + abs(a0*np.conj(bm) - c0*np.conj(dm))**2 * (1.0 + d_bb_rev)) / denom
        s_phiplus = (abs(a0*cw - c0*aw)**2 * (1.0 + d_aa)
                     + abs(a0*cm - c0*am)**2 * (1.0 + d_aa_rev)
                     + abs(a0*dw - c0*bw)**2 * (1.0 + d_bb)
                     + abs(a0*dm - c0*bm)**2 * (1.0 + d_bb_rev)) / denom
        s_na = 0.5 * (abs(aw)**2 * (1.0 + d_aa) + abs(am)**2 * (1.0 + d_aa_rev)
                      + abs(bw)**2 * (1.0 + d_bb) + abs(bm)**2 * (1.0 + d_bb_rev))
        obs = observables(abcd0, abcd_w, abcd_mw, w)
        expected = {"gain_a": abs(a0)**2, "gain_b": abs(c0)**2, "S_Nminus": s_nminus,
                    "S_phiplus": s_phiplus, "inseparability": 0.5 * (s_nminus + s_phiplus),
                    "S_Na": s_na}
        for name, value in expected.items():
            assert np.array_equal(getattr(obs, name), value), name


class TestTransparentMedium:
    # optical depth 0: every generator is 0 and every transfer the identity,
    # so the gains are exactly 1 and 0 and every spectrum exactly the SQL at
    # every frequency, with the atoms at rest and velocity averaged
    OMEGAS = TWO_PI * np.concatenate([-np.geomspace(10.0, 0.25, 20), np.geomspace(0.25, 10.0, 20)])

    @pytest.mark.parametrize("vapor", (None, VaporParams.rb85_d1()), ids=("cold", "vapor"))
    @pytest.mark.parametrize("point", (ENTANGLED, QBS, VAPOR_POINT),
                             ids=("entangled", "qbs", "vapor-config"))
    def test_all_spectra_at_standard_quantum_limit(self, point, vapor):
        obs = evaluate(medium(**{**point, "optical_depth": 0.0}), self.OMEGAS, vapor=vapor)
        assert np.all(obs.gain_a == 1.0) and np.all(obs.gain_b == 0.0)
        for name in NOISE_FIELDS:
            assert np.all(getattr(obs, name) == 1.0), name


@pytest.fixture(scope="module")
def mp():
    return medium()


class TestMicroscopicSpectra:

    def test_parity(self, mp):
        for f in (0.5, 1.0, 3.0):
            w = TWO_PI * f
            plus, minus = evaluate(mp, w), evaluate(mp, -w)
            for name in NOISE_FIELDS:
                assert getattr(plus, name) == pytest.approx(getattr(minus, name),
                                                            abs=1e-10)

    # the cold working points of the configs and scripts, and around them;
    # the noise spectra are even in the analysis frequency
    @given(gamma_g=st.floats(0.01, 1.0), delta1=st.floats(700.0, 2000.0),
           delta2=st.floats(-217.0, 30.0), rabi=st.floats(100.0, 2000.0),
           depth=st.floats(1.0, 5000.0), freq=st.floats(0.2, 10.0))
    @settings(max_examples=300)
    def test_parity_over_the_cold_ranges(self, gamma_g, delta1, delta2, rabi, depth, freq):
        mp = medium(gamma_g_mhz=gamma_g, delta1_mhz=delta1, delta2_mhz=delta2,
                    rabi_mhz=rabi, optical_depth=depth)
        try:
            plus, minus = evaluate(mp, TWO_PI * freq), evaluate(mp, -TWO_PI * freq)
        except PoleError:
            reject()
        for name in NOISE_FIELDS:
            np.testing.assert_allclose(getattr(minus, name), getattr(plus, name), rtol=1e-12,
                                       err_msg=name)

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

    def test_exponents_at_all_three_frequencies_precede_any_exponential(self, monkeypatch):
        # every kernel is screened before any exponential is taken, so the
        # pole at +omega is reported and the exponential core is never called.
        # Without Langevin noise: the pole is also at the calibration frequency
        def no_expm(*rows):
            raise AssertionError("an exponential was taken before every kernel was screened")
        monkeypatch.setattr(propagation, "_expm_rows", no_expm)
        mp = medium(rabi_mhz=0.0, gamma_g_mhz=0.0, delta2_mhz=1.0)
        with pytest.raises(PoleError) as err:
            evaluate(mp, TWO_PI * 1.0, langevin=False)
        assert err.value.omega == TWO_PI * 1.0     # the stack is (0, +omega, -omega)


class TestNonFiniteOmega:
    @pytest.mark.parametrize("omega", (np.nan, np.inf, -np.inf, [1.0, np.nan]))
    @pytest.mark.parametrize("compute", (
        evaluate, generator,
        lambda mp, omega: evaluate(mp, omega, vapor=VaporParams.rb85_d1())),
        ids=("evaluate", "generator", "evaluate-vapor"))
    def test_is_a_domain_error_naming_omega(self, mp, capfd, compute, omega):
        with pytest.raises(DomainError, match="omega must be finite, got") as err:
            compute(mp, omega)
        assert err.value.field == "omega"
        np.testing.assert_equal(err.value.value, np.ravel(omega)[-1])     # NaN equals NaN
        assert capfd.readouterr().err == ""


class TestHelpers:
    def test_db_conversion(self):
        assert to_dB(1.0) == 0.0
        assert to_dB(0.2) == pytest.approx(-6.9897, abs=1e-3)
        assert to_dB(0.5) == pytest.approx(-3.0103, abs=1e-3)
        with pytest.raises(DomainError):
            to_dB(0.0)

    def test_db_conversion_broadcasts(self):
        values = [0.5, 0.2, 7.0]
        assert to_dB(np.array(values)).tolist() == [to_dB(v) for v in values]
        with pytest.raises(DomainError, match="got -1.0"):
            to_dB(np.array([0.5, -1.0]))

    def test_zero_gain_rejected(self):
        abcd0 = np.zeros((2, 2), dtype=complex)
        with pytest.raises(NormalizationError, match="zero total gain"):
            observables(abcd0, np.eye(2), np.eye(2), NO_DIFFUSION)
        abcd0[1, 0] = 1.0       # conjugate gain only
        with pytest.raises(NormalizationError, match="zero probe gain"):
            observables(abcd0, np.eye(2), np.eye(2), NO_DIFFUSION)


class TestStackedEvaluate:
    # the [atom]/[medium] point of configs/vapor_gain_scan.ini
    POINT = dict(gamma_g_mhz=1.0, rabi_mhz=330.0, delta1_mhz=800.0, delta2_mhz=4.0,
                 optical_depth=4500.0)

    @pytest.mark.parametrize("axis, values", (
        ("delta2", TWO_PI * np.array([-25.0, -3.0, 4.0, 17.0])),
        ("rabi", TWO_PI * np.array([250.0, 330.0, 410.0])),
    ))
    @pytest.mark.parametrize("hot", (False, True), ids=("cold", "vapor"))
    def test_stack_equals_each_medium_alone(self, axis, values, hot):
        # a one-medium stack runs the same array arithmetic (bit for bit); a
        # scalar medium rounds its complex products without fused
        # multiply-adds, so it agrees to rounding only
        vapor = VaporParams.rb85_d1(temperature_c=120.0) if hot else None
        mp = medium(**self.POINT)
        w = TWO_PI * 1.0
        stacked = evaluate(mp.with_atom(**{axis: values}), w, vapor=vapor)
        for i, value in enumerate(values):
            one = evaluate(mp.with_atom(**{axis: values[i:i + 1]}), w, vapor=vapor)
            scalar = evaluate(mp.with_atom(**{axis: value}), w, vapor=vapor)
            for name in ("gain_a", "gain_b", *NOISE_FIELDS):
                assert getattr(stacked, name)[i] == getattr(one, name)[0], (name, i)
                assert getattr(scalar, name) == pytest.approx(getattr(one, name)[0], rel=1e-12)

    @pytest.mark.parametrize("hot", (False, True), ids=("cold", "vapor"))
    def test_frequency_stack_equals_each_frequency_alone(self, hot):
        # 1 MHz is the calibration frequency
        vapor = VaporParams.rb85_d1(temperature_c=120.0) if hot else None
        mp = medium(**self.POINT)
        omegas = TWO_PI * np.array([0.3, 1.0, 2.5, 4.0])
        stacked = evaluate(mp, omegas, vapor=vapor)
        for i in range(len(omegas)):
            one = evaluate(mp, omegas[i:i + 1], vapor=vapor)
            for name in ("gain_a", "gain_b", *NOISE_FIELDS):
                assert getattr(stacked, name)[i] == getattr(one, name)[0], (name, i)

    SWEEPS = {"omega-sweep": ((), TWO_PI * np.linspace(0.1, 5.0, 50)),
              "media": ((61,), TWO_PI * 1.0),
              "media-by-omega": ((3, 1), TWO_PI * np.array([0.3, 1.0, 2.5, 4.0]))}

    @pytest.mark.parametrize("langevin", (True, False), ids=("langevin", "clean"))
    @pytest.mark.parametrize("hot", (False, True), ids=("cold", "vapor"))
    @pytest.mark.parametrize("shape, omega", SWEEPS.values(), ids=SWEEPS.keys())
    def test_sweep_equals_each_point_alone(self, shape, omega, hot, langevin):
        # bit for bit: the reference and 0, formed once per medium of a sweep,
        # and each +-omega member round as at a one-point stack of the same rank
        vapor = VaporParams.rb85_d1(temperature_c=120.0) if hot else None
        mp = medium(**self.POINT)
        if shape:
            mp = mp.with_atom(delta2=TWO_PI * np.linspace(-25.0, 17.0, np.prod(shape))
                              .reshape(shape))
        stacked = evaluate(mp, omega, langevin=langevin, vapor=vapor)
        points = np.broadcast_shapes(shape, np.shape(omega))
        for index in np.ndindex(points):
            at = tuple(slice(i, i + 1) for i in index)
            one = evaluate(mp.with_atom(delta2=np.broadcast_to(mp.atom.delta2, points)[at]),
                           np.broadcast_to(omega, points)[at], langevin=langevin, vapor=vapor)
            for name in ("gain_a", "gain_b", *NOISE_FIELDS):
                assert getattr(stacked, name)[at].tobytes() == getattr(one, name).tobytes(), \
                    (name, index)


class TestWithoutLangevinNoise:
    """Without Langevin noise evaluate reads the same transfers at 0 and
    +-omega as with it, past the reference row that only the noise has, and
    zero diffusion weights."""

    OMEGAS = TWO_PI * np.array([0.3, 1.0, 4.0])
    MEDIA = {"cold": (medium(), None),
             "transparent": (medium(optical_depth=0.0), None),     # no reference row
             "vapor": (medium(**TestStackedEvaluate.POINT),
                       VaporParams.rb85_d1(temperature_c=120.0))}

    @pytest.mark.parametrize("mp, vapor", MEDIA.values(), ids=MEDIA.keys())
    def test_gains_as_with_noise_and_the_zero_weight_read_off(self, mp, vapor):
        clean = evaluate(mp, self.OMEGAS, langevin=False, vapor=vapor)
        noisy = evaluate(mp, self.OMEGAS, vapor=vapor)
        for name in ("gain_a", "gain_b"):
            assert getattr(clean, name).tobytes() == getattr(noisy, name).tobytes(), name
        # (0, +omega, -omega), each broadcast to every point
        freqs = np.stack(np.broadcast_arrays(np.zeros(mp.shape), 0.0, self.OMEGAS,
                                             -self.OMEGAS)[1:])
        exps = generator(mp, freqs) if vapor is None else doppler_generator(mp, vapor, freqs)
        read_off = observables(*expm(exps), NO_DIFFUSION)
        for name in ("gain_a", "gain_b", *NOISE_FIELDS):
            assert getattr(clean, name).tobytes() == getattr(read_off, name).tobytes(), name


class TestWorkPerEvaluate:
    """Each evaluate call forms one generator stack on a flat member axis, the
    reference and 0 once per medium and +-omega at every point, assembles the
    kernel on the reference and +-omega members only, takes every exponential
    in one _expm_rows call and every noise integral in one _noise_integral_rows
    call, and one diffusion set; a vapor adds one _screened_generator call per
    frequency group of the Doppler average (0, +omega, -omega), each on the
    velocity nodes of its own members."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"expm": [], "diffusion_set": 0, "screened": 0}
        expm, noise, kernel, diffusion_set = (
            propagation._expm_rows, propagation._noise_integral_rows, propagation._kernel,
            propagation.diffusion_set)

        def count_expm(*rows):      # number of members
            calls["expm"].append(len(rows[0]))
            return expm(*rows)

        def count_noise(*rows):     # number of members; a key once called
            calls.setdefault("noise", []).append(len(rows[0]))
            return noise(*rows)

        def count_kernel(screened, members):    # the flat member indices
            out = kernel(screened, members)
            assert len(out) == len(members)
            calls.setdefault("kernel", []).append(members.tolist())
            return out

        def count_diffusion_set(p):
            calls["diffusion_set"] += 1
            return diffusion_set(p)

        def counted(solve, doppler):
            def count_solve(*args, **kwargs):
                calls["screened"] += 1
                if doppler:     # node members; a key once called
                    calls.setdefault("nodes", []).append(
                        math.prod(np.broadcast_shapes(args[0].shape, np.shape(args[1]))))
                return solve(*args, **kwargs)
            return count_solve
        # the exponentials, kernel, noise integrals and diffusion set that
        # evaluate reaches through propagation._transfers and _langevin
        monkeypatch.setattr(propagation, "_expm_rows", count_expm)
        monkeypatch.setattr(propagation, "_noise_integral_rows", count_noise)
        monkeypatch.setattr(propagation, "_kernel", count_kernel)
        monkeypatch.setattr(propagation, "diffusion_set", count_diffusion_set)
        # the stack at rest, and the Doppler average's, solved for the generator only
        for name in ("spectra", "vapor"):
            monkeypatch.setattr(f"fourwave.{name}._screened_generator",
                                counted(propagation._screened_generator, name == "vapor"))
        return calls

    OMEGAS = TWO_PI * np.linspace(0.1, 5.0, 50)

    def test_cold_medium_with_langevin_noise(self, counts):
        evaluate(medium(), self.OMEGAS)
        # exponentials: the reference and 0 once, +-omega at 50 frequencies
        # (2 + 2N, not 4N = 200); kernel and noise integrals: d1 - d2 at the
        # reference and dsym at +-omega
        assert counts == {"expm": [102], "kernel": [[0, *range(2, 102)]], "noise": [101],
                          "diffusion_set": 1, "screened": 1}

    def test_cold_medium_without_langevin_noise(self, counts):
        evaluate(medium(), self.OMEGAS, langevin=False)
        assert counts == {"expm": [101], "diffusion_set": 0, "screened": 1}

    def test_transparent_medium_forms_no_reference(self, counts):
        evaluate(medium(optical_depth=0.0), self.OMEGAS)
        assert counts == {"expm": [101], "kernel": [list(range(1, 101))], "noise": [100],
                          "diffusion_set": 1, "screened": 1}

    def test_vapor_medium(self, counts):
        evaluate(medium(**TestStackedEvaluate.POINT), TWO_PI * 1.0,
                 vapor=VaporParams.rb85_d1(temperature_c=120.0))
        # exponentials: the reference on the atom at rest and the averages at
        # 0, +-omega; generator stacks: the stack at rest and one Doppler
        # average per group, each on the 40 nodes of the point
        assert counts == {"expm": [4], "kernel": [[0, 2, 3]], "noise": [3],
                          "diffusion_set": 1, "screened": 4, "nodes": [40] * 3}

    def test_vapor_frequency_sweep(self, counts):
        # the Doppler average at 0 once for the medium, not at every omega:
        # 40 + 2 x 50 x 40 = 4040 node members, not 3 x 50 x 40 = 6000
        evaluate(medium(**TestStackedEvaluate.POINT), self.OMEGAS,
                 vapor=VaporParams.rb85_d1(temperature_c=120.0))
        assert counts == {"expm": [102], "kernel": [[0, *range(2, 102)]], "noise": [101],
                          "diffusion_set": 1, "screened": 4, "nodes": [40, 2000, 2000]}

    def test_media_by_frequencies(self, counts):
        # (3, 1) media by 4 frequencies: the reference and 0 once per medium
        mp = medium(delta2_mhz=np.array([[-60.0], [-52.0], [-44.0]]))
        evaluate(mp, TWO_PI * np.array([0.5, 1.0, 2.0, 4.0]))
        assert counts == {"expm": [3 + 3 + 24], "kernel": [[0, 1, 2, *range(6, 30)]],
                          "noise": [27], "diffusion_set": 1, "screened": 1}


class TestVaporColdLimit:
    # a vapor at 1e-8 K differs from the cold medium by about 1e-8 relative
    POINTS = {"vapor-config": TestStackedEvaluate.POINT, "entangled": {},
              "qbs": dict(gamma_g_mhz=0.5, rabi_mhz=520.0, delta1_mhz=1000.0,
                          delta2_mhz=-52.0, optical_depth=300.0)}

    @pytest.mark.parametrize("point", POINTS.values(), ids=POINTS.keys())
    def test_agrees_with_the_cold_medium(self, point):
        mp = medium(**point)
        omegas = TWO_PI * np.array([0.3, 1.0, 4.0])
        frozen = dataclasses.replace(VaporParams.rb85_d1(), temperature=1e-8)
        hot, cold = evaluate(mp, omegas, vapor=frozen), evaluate(mp, omegas)
        for name in ("gain_a", "gain_b", *NOISE_FIELDS):
            np.testing.assert_allclose(getattr(hot, name), getattr(cold, name), rtol=1e-6,
                                       err_msg=name)

    @pytest.mark.parametrize("point", POINTS.values(), ids=POINTS.keys())
    def test_underflowed_temperature_is_the_cold_medium(self, point):
        # k_B T underflows to 0 at 5e-324 K: every velocity node is at rest
        mp = medium(**point)
        omegas = TWO_PI * np.array([0.3, 1.0, 4.0])
        frozen = dataclasses.replace(VaporParams.rb85_d1(), temperature=5e-324)
        hot, cold = evaluate(mp, omegas, vapor=frozen), evaluate(mp, omegas)
        for name in ("gain_a", "gain_b", *NOISE_FIELDS):
            np.testing.assert_allclose(getattr(hot, name), getattr(cold, name), rtol=1e-13,
                                       err_msg=name)


class TestVaporParity:
    def test_parity_over_the_shipped_vapor_sweep(self):
        # the vapor model's gains and noise spectra are even in the analysis
        # frequency, as the cold model's are, on every row of the sweep
        path = Path(__file__).resolve().parents[1] / "configs" / "vapor_gain_scan.ini"
        cfg = config.parse_config(path.read_text(encoding="utf-8"))
        point = config.at_sweep_value(cfg, np.array(config.sweep_values(cfg)))
        mp, vp = config.medium_params_from(point), config.vapor_params_from(point)
        omegas = TWO_PI * np.array([[0.3], [1.0], [4.0]])       # x the 61 rows
        plus = evaluate(mp, omegas, vapor=vp)
        minus = evaluate(mp, -omegas, vapor=vp)
        for name in ("gain_a", "gain_b", *NOISE_FIELDS):
            p, m = getattr(plus, name), getattr(minus, name)
            finite = np.isfinite(p) & np.isfinite(m)
            assert p.shape == (3, 61) and finite.any(), name
            np.testing.assert_allclose(m[finite], p[finite], rtol=1e-12, err_msg=name)
