#!/usr/bin/env python3
# The help text: assigned rather than a docstring, so that python -OO keeps it.
__doc__ = """Quantum-beamsplitter regime: correlations below shot noise at total
gain below one.

Scans the two-photon detuning around the Raman/mixing boundary and prints
the window where Ga + Gb < 1 while the intensity-difference noise stays
below the standard quantum limit.

usage: qbs_two_photon_scan.py [-h] [--out PATH] [--start-mhz D] [--stop-mhz D] [--points N]

  -h, --help      print this help and exit
  --out PATH      the CSV to write                        (default qbs_scan.csv)
  --start-mhz D   the first two-photon detuning, MHz            (default -80)
  --stop-mhz D    the last two-photon detuning, MHz             (default -20)
  --points N      N >= 1 detunings, evenly spaced from start to stop (default 61)

Exit status: 0 ok, 1 the model rejected the parameters or the CSV could not
be written, 2 usage error.
"""

import sys
from getopt import GetoptError, getopt

import numpy as np

from fourwave import AtomParams, MediumParams, evaluate
from fourwave.errors import FourwaveError
from fourwave.units import TWO_PI


def scan(out, start_mhz, stop_mhz, points):
    """Write the detuning-scan CSV to ``out`` and print its summary."""
    deltas = np.linspace(start_mhz, stop_mhz, points)
    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=0.5, omega0=3036.0,
                               delta1=1000.0, delta2=deltas, rabi=520.0)
    mp = MediumParams(atom=atom, optical_depth=300.0)   # one medium per delta2
    obs = evaluate(mp, TWO_PI * 1.0)
    rows = list(zip(deltas, obs.gain_a, obs.gain_b, obs.S_Nminus))

    with open(out, "w", newline="") as fh:
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
    print(f"wrote {out}")


def main(argv=None):
    """Run the command line ``argv`` (default sys.argv[1:]); an error ends in
    SystemExit with the exit status."""
    try:
        pairs, words = getopt(sys.argv[1:] if argv is None else argv, "h",
                              ["help", "out=", "start-mhz=", "stop-mhz=", "points="])
        options = dict(pairs)
        if "-h" in options or "--help" in options:
            print(__doc__, end="")
            return
        if words:
            raise GetoptError(f"unexpected argument {words[0]!r}")
        start_mhz = float(options.get("--start-mhz", -80.0))
        stop_mhz = float(options.get("--stop-mhz", -20.0))
        points = int(options.get("--points", 61))
        if points < 1:
            raise GetoptError(f"--points must be at least 1, got {points}")
    except (GetoptError, ValueError) as exc:
        print(f"usage error: {exc} (see --help)", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        scan(options.get("--out", "qbs_scan.csv"), start_mhz, stop_mhz, points)
    except (FourwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
