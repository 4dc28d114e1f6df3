#!/usr/bin/env python3
"""Effect of the velocity distribution on the probe gain in a hot vapor.

Compares the velocity-averaged gain to the all-atoms-at-rest gain across a
pump-power scan at fixed detuning (hot rubidium cell, 120 C).
"""

import argparse

import numpy as np

from fourwave import AtomParams, MediumParams, VaporParams, doppler_generator
from fourwave.numkernel import expm
from fourwave.propagation import generator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="hot_cold_gain.csv")
    ap.add_argument("--delta1-mhz", type=float, default=700.0)
    ap.add_argument("--depth", type=float, default=4500.0)
    args = ap.parse_args()

    vp = VaporParams.rb85_d1(temperature_c=120.0)
    rabis = np.linspace(100.0, 600.0, 26)
    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=1.0, omega0=3036.0,
                               delta1=args.delta1_mhz, delta2=4.0, rabi=rabis)
    mp = MediumParams(atom=atom, optical_depth=args.depth)     # one medium per Rabi frequency
    cold = abs(expm(generator(mp, 0.0))[:, 0, 0])**2
    hot = abs(expm(doppler_generator(mp, vp, 0.0))[:, 0, 0])**2
    shifts = 100.0 * (hot - cold) / cold
    with open(args.out, "w", newline="") as fh:
        fh.write("rabi_mhz,Ga_cold,Ga_hot,shift_percent\n")
        for rabi, ga_cold, ga_hot, shift in zip(rabis, cold, hot, shifts):
            fh.write(f"{rabi:.6g},{ga_cold:.9g},{ga_hot:.9g},{shift:.4g}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
