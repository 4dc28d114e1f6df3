#!/usr/bin/env python3
"""Noise spectra of the entangled probe/conjugate pair in a cold medium.

Sweeps the analysis frequency at the strong-pump working point
(pump and one-photon detuning at 2 GHz, two-photon detuning compensating
the light shift) and reports where the inseparability crosses 1.
"""

import argparse

import numpy as np

from fourwave import AtomParams, MediumParams, calibrated, evaluate, to_dB
from fourwave.units import TWO_PI


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="entanglement_spectrum.csv")
    ap.add_argument("--fmax-mhz", type=float, default=5.0)
    ap.add_argument("--points", type=int, default=50)
    args = ap.parse_args()

    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=0.01, omega0=3036.0,
                               delta1=2000.0, delta2=-217.0, rabi=2000.0)
    mp = calibrated(MediumParams(atom=atom, optical_depth=150.0))

    freqs = np.linspace(args.fmax_mhz / args.points, args.fmax_mhz, args.points)
    rows = []
    crossing = None
    prev = None
    for f in freqs:
        obs = evaluate(mp, TWO_PI * f)
        insep = obs.inseparability
        rows.append((f, obs.S_Nminus, obs.S_phiplus, insep))
        if prev is not None and prev < 1.0 <= insep:
            crossing = f
        prev = insep

    with open(args.out, "w", newline="") as fh:
        fh.write("freq_mhz,S_Nminus,S_phiplus,inseparability\n")
        for f, snm, sphp, insep in rows:
            fh.write(f"{f:.6g},{snm:.9g},{sphp:.9g},{insep:.9g}\n")

    at1 = evaluate(mp, TWO_PI * 1.0)
    print(f"at 1 MHz: S_N- = {to_dB(at1.S_Nminus):+.2f} dB, "
          f"S_phi+ = {to_dB(at1.S_phiplus):+.2f} dB")
    if crossing:
        print(f"inseparability crosses 1 near {crossing:.2f} MHz")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
