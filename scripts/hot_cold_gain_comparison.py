#!/usr/bin/env python3
# The help text: assigned rather than a docstring, so that python -OO keeps it.
__doc__ = """Effect of the velocity distribution on the probe gain in a hot vapor.

Compares the velocity-averaged gain to the all-atoms-at-rest gain across a
pump-power scan at fixed detuning (hot rubidium cell, 120 C).

usage: hot_cold_gain_comparison.py [-h] [--out PATH] [--delta1-mhz D] [--depth OD]

  -h, --help       print this help and exit
  --out PATH       the CSV to write                   (default hot_cold_gain.csv)
  --delta1-mhz D   the one-photon detuning, MHz                   (default 700)
  --depth OD       the optical depth, >= 0                        (default 4500)

Exit status: 0 ok, 1 the model rejected the parameters or the CSV could not
be written, 2 usage error.
"""

import sys
from getopt import GetoptError, getopt

import numpy as np

from fourwave import AtomParams, MediumParams, VaporParams, doppler_generator
from fourwave.errors import FourwaveError
from fourwave.numkernel import expm
from fourwave.propagation import generator


def compare(out, delta1_mhz, depth):
    """Write the hot/cold gain CSV to ``out``."""
    vp = VaporParams.rb85_d1(temperature_c=120.0)
    rabis = np.linspace(100.0, 600.0, 26)
    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=1.0, omega0=3036.0,
                               delta1=delta1_mhz, delta2=4.0, rabi=rabis)
    mp = MediumParams(atom=atom, optical_depth=depth)     # one medium per Rabi frequency
    cold = abs(expm(generator(mp, 0.0))[:, 0, 0])**2
    hot = abs(expm(doppler_generator(mp, vp, 0.0))[:, 0, 0])**2
    shifts = 100.0 * (hot - cold) / cold
    with open(out, "w", newline="") as fh:
        fh.write("rabi_mhz,Ga_cold,Ga_hot,shift_percent\n")
        for rabi, ga_cold, ga_hot, shift in zip(rabis, cold, hot, shifts):
            fh.write(f"{rabi:.6g},{ga_cold:.9g},{ga_hot:.9g},{shift:.4g}\n")
    print(f"wrote {out}")


def main(argv=None):
    """Run the command line ``argv`` (default sys.argv[1:]); an error ends in
    SystemExit with the exit status."""
    try:
        pairs, words = getopt(sys.argv[1:] if argv is None else argv, "h",
                              ["help", "out=", "delta1-mhz=", "depth="])
        options = dict(pairs)
        if "-h" in options or "--help" in options:
            print(__doc__, end="")
            return
        if words:
            raise GetoptError(f"unexpected argument {words[0]!r}")
        delta1_mhz = float(options.get("--delta1-mhz", 700.0))
        depth = float(options.get("--depth", 4500.0))
    except (GetoptError, ValueError) as exc:
        print(f"usage error: {exc} (see --help)", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        compare(options.get("--out", "hot_cold_gain.csv"), delta1_mhz, depth)
    except (FourwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
