#!/usr/bin/env python3
"""Quantum-beamsplitter regime: correlations below shot noise at total
gain below one.

Scans the two-photon detuning around the Raman/mixing boundary and prints
the window where Ga + Gb < 1 while the intensity-difference noise stays
below the standard quantum limit.
"""

import argparse

import numpy as np

from fourwave import AtomParams, MediumParams, evaluate
from fourwave.units import TWO_PI


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="qbs_scan.csv")
    ap.add_argument("--start-mhz", type=float, default=-80.0)
    ap.add_argument("--stop-mhz", type=float, default=-20.0)
    ap.add_argument("--points", type=int, default=61)
    args = ap.parse_args()

    deltas = np.linspace(args.start_mhz, args.stop_mhz, args.points)
    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=0.5, omega0=3036.0,
                               delta1=1000.0, delta2=deltas, rabi=520.0)
    mp = MediumParams(atom=atom, optical_depth=300.0)   # one medium per delta2
    obs = evaluate(mp, TWO_PI * 1.0)
    rows = list(zip(deltas, obs.gain_a, obs.gain_b, obs.S_Nminus))

    with open(args.out, "w", newline="") as fh:
        fh.write("delta2_mhz,Ga,Gb,S_Nminus\n")
        for d2, ga, gb, snm in rows:
            fh.write(f"{d2:.6g},{ga:.9g},{gb:.9g},{snm:.9g}\n")

    quantum_bs = [(d2, ga + gb, snm) for d2, ga, gb, snm in rows
                  if ga + gb < 1.0 and snm < 1.0]
    if quantum_bs:
        best = min(quantum_bs, key=lambda r: r[2])
        print(f"{len(quantum_bs)} beamsplitter-like points with sub-SQL "
              f"correlations; best: delta2 = {best[0]:.1f} MHz, "
              f"Ga+Gb = {best[1]:.3f}, S_N- = {best[2]:.3f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
