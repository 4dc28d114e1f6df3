#!/usr/bin/env python3
# The help text: assigned rather than a docstring, so that python -OO keeps it.
__doc__ = """Noise spectra of the entangled probe/conjugate pair in a cold medium.

Sweeps the analysis frequency at the strong-pump working point
(pump and one-photon detuning at 2 GHz, two-photon detuning compensating
the light shift) and reports where the inseparability crosses 1.

usage: entanglement_spectrum.py [-h] [--out PATH] [--fmax-mhz F] [--points N]

  -h, --help      print this help and exit
  --out PATH      the CSV to write             (default entanglement_spectrum.csv)
  --fmax-mhz F    the top analysis frequency, MHz, finite            (default 5)
  --points N      N >= 1 frequencies fmax/N, 2 fmax/N, ..., fmax    (default 50)

Exit status: 0 ok, 1 the model rejected the parameters or the CSV could not
be written, 2 usage error.
"""

import math
import sys
from getopt import GetoptError, getopt

import numpy as np

from fourwave import AtomParams, MediumParams, evaluate, to_dB
from fourwave.errors import FourwaveError
from fourwave.units import TWO_PI


def spectrum(out, fmax_mhz, points):
    """Write the spectrum CSV to ``out`` and print its summary."""
    atom = AtomParams.from_mhz(gamma_e=5.75, gamma_g=0.01, omega0=3036.0,
                               delta1=2000.0, delta2=-217.0, rabi=2000.0)
    mp = MediumParams(atom=atom, optical_depth=150.0)

    freqs = np.linspace(fmax_mhz / points, fmax_mhz, points)
    # the sweep and, last, the 1 MHz point: one stacked evaluation
    obs = evaluate(mp, TWO_PI * np.append(freqs, 1.0))
    rows = list(zip(freqs, obs.S_Nminus, obs.S_phiplus, obs.inseparability))
    crossing = None
    for (_, _, _, prev), (f, _, _, insep) in zip(rows, rows[1:]):
        if prev < 1.0 <= insep:
            crossing = f

    with open(out, "w", newline="") as fh:
        fh.write("freq_mhz,S_Nminus,S_phiplus,inseparability\n")
        for f, snm, sphp, insep in rows:
            fh.write(f"{f:.6g},{snm:.9g},{sphp:.9g},{insep:.9g}\n")

    print(f"at 1 MHz: S_N- = {to_dB(obs.S_Nminus[-1]):+.2f} dB, "
          f"S_phi+ = {to_dB(obs.S_phiplus[-1]):+.2f} dB")
    if crossing:
        print(f"inseparability crosses 1 near {crossing:.2f} MHz")
    print(f"wrote {out}")


def main(argv=None):
    """Run the command line ``argv`` (default sys.argv[1:]); an error ends in
    SystemExit with the exit status."""
    try:
        pairs, words = getopt(sys.argv[1:] if argv is None else argv, "h",
                              ["help", "out=", "fmax-mhz=", "points="])
        options = dict(pairs)
        if "-h" in options or "--help" in options:
            print(__doc__, end="")
            return
        if words:
            raise GetoptError(f"unexpected argument {words[0]!r}")
        fmax_mhz = float(options.get("--fmax-mhz", 5.0))
        points = int(options.get("--points", 50))
        if not math.isfinite(fmax_mhz):     # an option error, not evaluate's DomainError (exit 1)
            raise GetoptError(f"--fmax-mhz must be finite, got {fmax_mhz}")
        if points < 1:
            raise GetoptError(f"--points must be at least 1, got {points}")
    except (GetoptError, ValueError) as exc:
        print(f"usage error: {exc} (see --help)", file=sys.stderr)
        raise SystemExit(2) from None
    try:
        spectrum(options.get("--out", "entanglement_spectrum.csv"), fmax_mhz, points)
    except (FourwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


if __name__ == "__main__":
    main()
