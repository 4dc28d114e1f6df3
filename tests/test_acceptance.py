"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import math
import sys

import numpy as np
import pytest

from fourwave.atom import AtomParams, preparation_probability, steady_state
from fourwave.eit import (LambdaParams, absorption_peak_separation,
                          susceptibility, transparency_window)
from fourwave.numkernel import expm
from fourwave.propagation import (IntegratedDiffusion, MediumParams,
                                  commutator_defect, generator)
from fourwave.reference import (SliceChainParams, detection_loss,
                                nlo_pia_transfer, nlo_psa_field,
                                sliced_amp_loss, unbalanced_loss)
from fourwave.spectra import evaluate, observables, to_dB
from fourwave.units import TWO_PI
from fourwave.vapor import (VaporParams, doppler_absorption,
                            doppler_generator, doppler_width,
                            saturated_vapor_pressure_torr, slice_consistency,
                            vapor_fraction)

GAMMA_E_MHZ = 5.75
OMEGA0_MHZ = 3036.0


def medium(gamma_g_mhz, rabi_mhz, delta1_mhz, delta2_mhz, depth,
           gamma_e_mhz=GAMMA_E_MHZ):
    atom = AtomParams.from_mhz(gamma_e_mhz, gamma_g_mhz, OMEGA0_MHZ,
                               delta1_mhz, delta2_mhz, rabi_mhz)
    return MediumParams(atom=atom, optical_depth=depth)


def report(number: int, description: str, passed: bool):
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}"
    print(line)
    sys.stdout.flush()
    assert passed, line


ENTANGLED = dict(gamma_g_mhz=0.01, rabi_mhz=2000.0, delta1_mhz=2000.0,
                 delta2_mhz=-217.0, depth=150.0)
QBS = dict(gamma_g_mhz=0.5, rabi_mhz=520.0, delta1_mhz=1000.0,
           delta2_mhz=-52.0, depth=300.0)
FIG2 = dict(gamma_g_mhz=0.01, rabi_mhz=300.0, delta1_mhz=1000.0,
            delta2_mhz=0.0, depth=150.0)


def test_01_cold_atom_entanglement_figure():
    mp = medium(**ENTANGLED)
    at1 = evaluate(mp, TWO_PI * 1.0)
    snm_db = to_dB(at1.S_Nminus)
    sphp_db = to_dB(at1.S_phiplus)
    both_in_band = -7.5 <= snm_db <= -4.5 and -7.5 <= sphp_db <= -4.5
    insep_low = evaluate(mp, TWO_PI * 2.0).inseparability
    insep_high = evaluate(mp, TWO_PI * 4.0).inseparability
    crosses = insep_low < 1.0 < insep_high
    report(1, f"entangled pair at 1 MHz: S_N-={snm_db:+.2f} dB, "
              f"S_phi+={sphp_db:+.2f} dB, inseparability crosses 1 in "
              f"[2, 4] MHz ({insep_low:.3f} -> {insep_high:.3f})",
           both_in_band and crosses)


def test_02_quantum_beamsplitter_regime():
    mp = medium(**QBS)
    obs = evaluate(mp, TWO_PI * 1.0)
    total = obs.gain_a + obs.gain_b
    snm = obs.S_Nminus
    report(2, f"quantum beamsplitter: Ga+Gb={total:.3f} < 1 and "
              f"S_N-(1 MHz)={snm:.3f} < 1",
           total < 1.0 and snm < 1.0)


def test_03_population_dominance():
    closure_ok, dominance_ok = True, True
    for rabi in np.linspace(0.0, 2000.0, 20):
        for delta in np.linspace(0.0, 1500.0, 20):
            p = AtomParams.from_mhz(GAMMA_E_MHZ, 0.0, OMEGA0_MHZ,
                                    delta, 0.0, rabi)
            ss = steady_state(p)
            closure_ok &= abs(sum(ss.pops) - 1.0) < 1e-10
            dominance_ok &= ss.pops[1] > 0.5
    report(3, "steady state: population sits mainly in the lower hyperfine "
              "level (s22 > 0.5) with closure 1e-10 on a 20x20 grid",
           closure_ok and dominance_ok)


def test_04_ideal_amplifier_oracle():
    ok = True
    zero = IntegratedDiffusion.zero()
    for g in (1.0, 1.5, 3.0, 10.0):
        c, s = math.sqrt(g), math.sqrt(g - 1.0)
        abcd = np.array([[c, s], [s, c]], dtype=complex)
        expected = 1.0 / (2.0 * g - 1.0)
        obs = observables(abcd, abcd, abcd, zero)
        ok &= abs(obs.S_Nminus - expected) < 1e-12
        ok &= abs(obs.S_phiplus - expected) < 1e-12
        ok &= abs(obs.inseparability - expected) < 1e-12
        ok &= abs(obs.S_Na - (2.0 * g - 1.0)) < 1e-12
    report(4, "synthetic two-mode amplifier reproduces 1/(2G-1) and 2G-1 "
              "to 1e-12 for G in {1, 1.5, 3, 10}", ok)


def test_05_commutator_sum_rule():
    mp = medium(**FIG2)
    worst_residual, worst_floor = 0.0, np.inf
    for f in np.linspace(0.2, 10.0, 50):
        w = TWO_PI * f
        abcd = expm(generator(mp, w))
        identity = (abs(abcd[0, 0])**2 - abs(abcd[0, 1])**2
                    + commutator_defect(mp, w))
        worst_residual = max(worst_residual, abs(identity - 1.0))
        worst_floor = min(worst_floor, evaluate(mp, w).S_Na)
    report(5, f"commutator sum rule residual {worst_residual:.2e} < 1e-4 and "
              f"single-mode noise floor {worst_floor:.9f} >= 1 - 1e-6 "
              f"on a 50-point grid",
           worst_residual < 1e-4 and worst_floor >= 1.0 - 1e-6)


def test_06_langevin_monotonicity_and_parity():
    mp = medium(**ENTANGLED)
    monotone, parity = True, True
    for f in (0.5, 1.0, 2.0, 3.0, 5.0):
        w = TWO_PI * f
        noisy, clean = evaluate(mp, w), evaluate(mp, w, langevin=False)
        minus = evaluate(mp, -w)
        for name in ("S_Nminus", "S_phiplus", "inseparability"):
            monotone &= getattr(noisy, name) >= getattr(clean, name) - 1e-12
            parity &= abs(getattr(noisy, name) - getattr(minus, name)) < 1e-10
    report(6, "Langevin terms never improve correlations; spectra even in "
              "the analysis frequency to 1e-10", monotone and parity)


def test_07_doppler_suite():
    vp = VaporParams.rb85_d1(temperature_c=119.85)   # 393 K
    mp = medium(gamma_g_mhz=1.0, rabi_mhz=300.0, delta1_mhz=700.0,
                delta2_mhz=4.0, depth=4500.0)
    # (a) frozen vapor reproduces the cold generator
    frozen = VaporParams(temperature=1e-9, atomic_mass=vp.atomic_mass,
                         wavelength=vp.wavelength, pump_waist=vp.pump_waist,
                         probe_waist=vp.probe_waist, cell_length=vp.cell_length,
                         cross_section=vp.cross_section)
    cold_limit = np.max(np.abs(doppler_generator(mp, frozen, 0.0)
                               - generator(mp, 0.0)))
    # (b) ordered slice product against summed exponents, 2000 slices
    dev = slice_consistency(mp, vp, TWO_PI * 1.0, n_slices=2000, seed=20260809)
    # (c) hot-vs-cold gain shift across the pump-power scan; the absolute
    # shift stays below 5% of the (unit-floored) cold gain everywhere, and
    # below 5% of the cold gain itself wherever the medium amplifies
    worst_floored, worst_amplifying = 0.0, 0.0
    for rabi in np.linspace(100.0, 600.0, 11):
        mpi = medium(gamma_g_mhz=1.0, rabi_mhz=rabi, delta1_mhz=700.0,
                     delta2_mhz=4.0, depth=4500.0)
        cold = abs(expm(generator(mpi, 0.0))[0, 0])**2
        hot = abs(expm(doppler_generator(mpi, vp, 0.0))[0, 0])**2
        worst_floored = max(worst_floored, abs(hot - cold) / max(cold, 1.0))
        if cold >= 1.0:
            worst_amplifying = max(worst_amplifying, abs(hot - cold) / cold)
    report(7, f"Doppler: cold limit {cold_limit:.1e} < 1e-10; slice deviation "
              f"{dev.product_vs_sum:.2e} < 1e-3 at 2000 slices; gain shift "
              f"{100*worst_floored:.2f}% (floored) and "
              f"{100*worst_amplifying:.2f}% (amplifying range) < 5%",
           cold_limit < 1e-10 and dev.product_vs_sum < 1e-3
           and worst_floored < 0.05 and worst_amplifying < 0.05)


def test_08_preparation_probability():
    # conditions of the measured-gain comparison: the preparation study is
    # published with Gamma = 36 MHz, pump 300 MHz at 700 MHz detuning,
    # transit time 1 us
    p = AtomParams.from_mhz(36.0, 1.0, OMEGA0_MHZ, 700.0, 4.0, 300.0)
    prepared = preparation_probability(p, 1.0)
    in_band = abs(prepared - 0.97) <= 0.05
    ts = np.linspace(0.0, 5.0, 40)
    ps = [preparation_probability(p, t) for t in ts]
    monotone = ps[0] == 0.0 and all(b >= a for a, b in zip(ps, ps[1:]))
    report(8, f"prepared fraction {prepared:.3f} within 0.97 +/- 0.05; "
              f"P(0) = 0 and monotone", in_band and monotone)


def test_09_eit():
    gamma = 1.0
    lp0 = LambdaParams(gamma_e=gamma, gamma_g=0.0, delta1=0.0, rabi_c=gamma)
    transparent = susceptibility(lp0, 0.0) == 0
    grid = np.linspace(-3.0, 3.0, 4001)
    sep = absorption_peak_separation(lp0, grid)
    sep_ok = abs(sep - lp0.rabi_c) / lp0.rabi_c < 0.10
    # window width scales linearly in the control field with slope
    # sqrt(2 gamma_g / gamma_e)
    gamma_g = 0.02
    rabis = np.linspace(0.5, 4.0, 8)
    widths = [transparency_window(
        LambdaParams(gamma_e=gamma, gamma_g=gamma_g, delta1=0.0, rabi_c=r))
        for r in rabis]
    slope = np.polyfit(rabis, widths, 1)[0]
    slope_ok = abs(slope - math.sqrt(2 * gamma_g / gamma)) \
        / math.sqrt(2 * gamma_g / gamma) < 0.05
    report(9, f"EIT: perfect transparency at line centre, peak separation "
              f"{sep:.3f} within 10% of the control Rabi frequency, window "
              f"slope within 5% of sqrt(2 gamma/Gamma)",
           transparent and sep_ok and slope_ok)


def test_10_reference_chain():
    g, n = 1.002, 120
    ga, _, snm = sliced_amp_loss(SliceChainParams(g, 1.0, n))
    g_tot = math.cosh(n * math.acosh(math.sqrt(g)))**2
    lossless_ok = (abs(ga - g_tot) / g_tot < 1e-9
                   and abs(snm - 1.0 / (2 * g_tot - 1.0)) < 1e-9)
    results = {}
    for count in (80, 160):
        gi = math.cosh(math.acosh(math.sqrt(4.0)) / count)**2
        ti = 0.85 ** (1.0 / count)
        results[count] = sliced_amp_loss(SliceChainParams(gi, ti, count))[2]
    count_ok = abs(results[160] - results[80]) / results[80] < 0.01
    rng = np.random.default_rng(2026)
    nlo_ok, loss_ok = True, True
    for _ in range(100):
        # moderate couplings: the machine-precision identity check needs
        # cosh^2 terms that have not eaten all double-precision headroom
        eta = rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        m = nlo_pia_transfer(eta, rng.uniform(0, 2))
        nlo_ok &= abs(abs(m[0, 0])**2 - abs(m[0, 1])**2 - 1.0) < 1e-12
        kappa = rng.uniform(0.5, 2.0)
        c1, c2 = nlo_psa_field(kappa, rng.uniform(0, kappa), rng.uniform(0, 2))
        nlo_ok &= abs(abs(c1)**2 - abs(c2)**2 - 1.0) < 1e-12
        s, eta_t = rng.uniform(0, 3), rng.uniform(0, 1)
        loss_ok &= abs(detection_loss(s, eta_t) - (eta_t * s + 1 - eta_t)) < 1e-12
        sa, sb, cross, etp = rng.uniform(0, 3, 4)
        etp = min(etp / 3, 1.0)
        expected = (etp**2 * sa + sb - 2 * etp * cross + etp * (1 - etp)) / (1 + etp)
        loss_ok &= abs(unbalanced_loss(sa, sb, cross, etp) - expected) < 1e-12
    report(10, "reference chain matches the composed ideal amplifier to 1e-9, "
               "slice count converged below 1%, amplifier identities to 1e-12 "
               "and loss formulas on 100 random inputs",
           lossless_ok and count_ok and nlo_ok and loss_ok)


def test_11_vapor_utilities():
    pressure = saturated_vapor_pressure_torr(298.15)
    pressure_ok = abs(pressure - 3.92e-7) / 3.92e-7 < 0.25
    fraction_ok = vapor_fraction(273.15 + 120.0) == pytest.approx(0.075, abs=1e-12)
    vp = VaporParams.rb85_d1(temperature_c=120.0)
    sig = doppler_width(vp)
    coeff = lambda nu: -math.log(doppler_absorption(vp, nu, 3.0))
    from scipy.optimize import brentq
    half = coeff(0.0) / 2
    right = brentq(lambda nu: coeff(nu) - half, 0.0, 20 * sig, xtol=1e-12 * sig)
    fwhm_ok = abs(2 * right - math.sqrt(8 * math.log(2)) * sig) \
        / (math.sqrt(8 * math.log(2)) * sig) < 1e-6
    report(11, f"vapor pressure {pressure:.2e} Torr within 25% of 3.92e-7, "
               f"vapor fraction exactly 7.5% at 120 C, Doppler FWHM matches "
               f"sqrt(8 ln 2) sigma to 1e-6",
           pressure_ok and fraction_ok and fwhm_ok)
