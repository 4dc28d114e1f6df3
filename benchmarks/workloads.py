"""Benchmark workloads: inputs made from a seed, and checks of the outputs.

A workload is a list of stages run one after another in one interpreter.
A stage is either ``fourwave run`` on a generated copy of a shipped config,
or a shipped script's ``main()`` with generated command-line arguments.

Seed 0 (DEFAULT_SEED) runs the shipped configs and the script defaults
exactly, and its outputs are compared with the stored reference outputs.
Any other seed shifts each sweep grid by a seeded fraction of one step,
keeping point count and range width; those runs get the checks that need
no reference: exit status, rectangular rows, row count and no ``error:``
flag.
"""

import configparser
import csv
import io
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# A value matches its reference within this relative tolerance; columns
# printed with only a few significant digits get one unit of the last digit.
REFERENCE_RTOL = 1e-6
COLUMN_RTOL = {"shift_percent": 1e-3}     # hot_cold_gain.csv prints 4 digits

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Rows of vapor_delta2_scan at delta2 = -30 ... -26 MHz are a known defect of
# the program: their noise columns run from 3e7 to 7e120.  They stay in the
# sweep and are timed, but are compared on their well-conditioned columns only.
KNOWN_DEFECT_ROWS = {
    "vapor_delta2_scan": {
        "sweep_values": ["-30", "-29", "-28", "-27", "-26"],
        "columns": ["Ga", "Gb", "prepared_fraction"],
    },
}


@dataclass(frozen=True)
class Stage:
    """One program invocation of a pass."""

    kind: str           # "cli" or "script"
    source: str         # repository-relative config or script path
    output: str         # output file name in the work directory
    points: int         # rows the stage writes
    args: tuple = ()    # script arguments besides --out
    config_text: str = ""


def grid_fraction(seed: int) -> float:
    """Seeded fraction of one grid step, in [0, 1); 0 for DEFAULT_SEED."""
    return 0.0 if seed == DEFAULT_SEED else random.Random(seed).random()


def _shift_sweep(text: str, shift: float) -> tuple[str, int]:
    """Config text with [sweep] start and stop moved by ``shift``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    sweep = parser["sweep"]
    count = int(sweep["count"])
    if not shift:
        return text, count
    step = (float(sweep["stop"]) - float(sweep["start"])) / max(count - 1, 1)
    lines, section = [], None
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]").strip()
        key = stripped.split("=", 1)[0].strip()
        if section == "sweep" and "=" in stripped and key in ("start", "stop"):
            line = f"{key} = {float(sweep[key]) + shift * step!r}\n"
        lines.append(line)
    return "".join(lines), count


def _config_stage(root, source, output, fraction) -> Stage:
    with open(os.path.join(root, source)) as fh:
        text, count = _shift_sweep(fh.read(), fraction)
    return Stage("cli", source, output, count, config_text=text)


def _cold_omega_sweep(root, f):
    return [_config_stage(root, "configs/entangled_pair.ini", "entangled_pair.csv", f)]


def _vapor_delta2_scan(root, f):
    return [_config_stage(root, "configs/vapor_gain_scan.ini", "vapor_gain_scan.csv", f)]


def _noise_scripts(root, f):
    # entanglement_spectrum's grid is fmax/points ... fmax, so --fmax-mhz is
    # its only grid argument: the top point moves by the seeded fraction of
    # a step (0.1 MHz) and the lower points proportionally less.
    spectrum_args = ("--fmax-mhz", repr(5.0 + 0.1 * f)) if f else ()
    qbs_args = ("--start-mhz", repr(-80.0 + f), "--stop-mhz", repr(-20.0 + f)) if f else ()
    return [
        Stage("script", "scripts/entanglement_spectrum.py", "entanglement_spectrum.csv",
              50, spectrum_args),
        Stage("script", "scripts/qbs_two_photon_scan.py", "qbs_scan.csv", 61, qbs_args),
    ]


def _doppler_gain_scan(root, f):
    # The Rabi grid is fixed inside the script; the seed moves its one
    # grid-free input, the one-photon detuning, by up to 10 MHz instead.
    args = ("--delta1-mhz", repr(700.0 + 10.0 * f)) if f else ()
    return [Stage("script", "scripts/hot_cold_gain_comparison.py", "hot_cold_gain.csv",
                  26, args)]


WORKLOADS = {
    "cold_omega_sweep": _cold_omega_sweep,
    "vapor_delta2_scan": _vapor_delta2_scan,
    "noise_scripts": _noise_scripts,
    "doppler_gain_scan": _doppler_gain_scan,
}


def make_stages(workload: str, seed: int, root: str) -> list[Stage]:
    return WORKLOADS[workload](root, grid_fraction(seed))


def _matches(value: str, reference: str, rtol: float) -> bool:
    if value == reference:
        return True
    try:
        return math.isclose(float(value), float(reference), rel_tol=rtol)
    except ValueError:
        return False


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def failed_rows(workload: str, stage: Stage, text: str, reference: str | None) -> tuple[set, list]:
    """Indices of the failed rows of one stage output, and what failed.

    A row fails when it is misshaped, carries an ``error:`` flag or, given
    the reference output, disagrees with it.  A wrong row count or header
    fails every row of the stage.
    """
    every = set(range(stage.points))
    rows = _rows(text)
    if len(rows) != stage.points + 1:
        return every, [f"{stage.output}: {len(rows) - 1} rows, expected {stage.points}"]
    header, body = rows[0], rows[1:]
    ref_rows = _rows(reference) if reference is not None else None
    if ref_rows is not None and (ref_rows[0] != header or len(ref_rows) != len(rows)):
        return every, [f"{stage.output}: header or length differs from the reference"]
    defects = KNOWN_DEFECT_ROWS.get(workload, {})
    bad, problems = set(), []
    for i, row in enumerate(body):
        problem = _row_problem(row, header, ref_rows[i + 1] if ref_rows else None, defects)
        if problem:
            bad.add(i)
            problems.append(f"{stage.output} row {i}: {problem}")
    return bad, problems


def _row_problem(row, header, ref, defects) -> str | None:
    if len(row) != len(header):
        return f"{len(row)} fields"
    if any(cell.startswith("error:") for cell in row):
        return "error flag"
    if ref is None:
        return None
    columns = range(len(header))
    if ref[0] in defects.get("sweep_values", ()):
        columns = [0] + [header.index(c) for c in defects["columns"]]
    differ = [header[j] for j in columns
              if not _matches(row[j], ref[j], COLUMN_RTOL.get(header[j], REFERENCE_RTOL))]
    return f"{','.join(differ)} differ from reference" if differ else None


def reference_text(workload: str, stage: Stage) -> str:
    with open(os.path.join(REFERENCE_DIR, workload, stage.output)) as fh:
        return fh.read()
