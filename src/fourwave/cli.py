# The help text: assigned rather than a docstring, so that python -OO keeps it.
__doc__ = """Batch front-end: parameter sweeps emitting tabular spectra.

usage: fourwave {run,validate,reference} --config PATH [--out PATH] [--format {csv,json}] [--db]

  run                  sweep the config's one axis and write a row per sweep value
  validate             print every config problem that would stop run
  reference            run a config with model = reference
  -h, --help           print this help and exit
  --config PATH        the run configuration (required)
  --out PATH           write to PATH, not output.path      (run and reference only)
  --format {csv,json}  override output.format              (run and reference only)
  --db                 append decibel columns of the noise (run and reference only)

Exit status: 0 ok, 1 run failed (leaving no output file), 2 usage or config
error.  Rows are written in sweep order as they are computed, the same for a
fixed config; a row on a resonance pole is written empty with flag 'pole', one
that fails or holds a non-finite value with flag 'error:<reason>', and the run
exits 0.
"""

import math
import os
import sys
from functools import partial
from getopt import GetoptError, getopt

import numpy as np

from . import __version__
from . import config as cfgmod
from . import spectra as spec
from .config import ConfigParseError, RunConfig
from .errors import FourwaveError, PoleError
from .numkernel import VELOCITY_NODES
from .units import mhz_to_rad_us

USAGE = __doc__.split("\n\n")[1]
COMMANDS = ("run", "validate", "reference")
LONG_OPTIONS = ("help", "config=", "out=", "format=", "db")
NOISE_COLUMNS = ("S_Nminus", "S_phiplus", "inseparability", "S_Na", "S_N")

# Coherence matrices in one stacked evaluation, at most 4 a row (an EIT or
# reference row counts 4: a stack holds 2048 of them) and 3 x VELOCITY_NODES more
# a vapor row; a larger sweep is split in halves.  Exactly: 4N for N cold media
# and 2 + 2N for a cold omega sweep of N rows, and 120N or 40 + 80N more from the
# Doppler average.  Rows are written as each stack finishes, so this bounds a
# run's memory and nothing else: a stack of 68 vapor rows peaked within 0.1 MB of
# one row at a time; configs/vapor_gain_scan.ini is one stack.
BLOCK_MATRICES = 8192


def _columns(model: str, kind: str = "") -> list[str]:
    if model in ("cold", "vapor"):
        extra = ["prepared_fraction"] if model == "vapor" else []
        return ["sweep_value", "Ga", "Gb", *spec.NOISE_FIELDS, *extra, "flag"]
    if model == "eit":
        return ["sweep_value", "chi_re", "chi_im", "flag"]
    if kind == "psa":
        return ["sweep_value", "psa_gain", "S_N", "flag"]
    return ["sweep_value", "Ga", "Gb", "S_Nminus", "flag"]


def _rows(stack, members: int, names: list[str], values: np.ndarray):
    """Rows of consecutive sweep values (an array), in sweep order, a block of
    columns (name -> list of cells) per stack: stack(values) builds a stack's
    parameters outside the guard (a DomainError fails the run) and returns its
    evaluation, the cells of ``names`` in order.  The guard flags a row 'pole'
    (PoleError) or 'error:<message>' (another FourwaveError, an ArithmeticError
    or a non-finite cell).  A stack above BLOCK_MATRICES (``members`` a row), or
    one that raises, is split in halves, so every row gets the flag it gets alone."""
    half = len(values) // 2
    if not half or len(values) * members <= BLOCK_MATRICES:
        evaluate = stack(values)
        try:
            columns = evaluate()
        except (FourwaveError, ArithmeticError) as exc:
            if not half:
                yield {"sweep_value": values.tolist(),
                       "flag": ["pole" if isinstance(exc, PoleError) else f"error:{exc}"]}
                return
        else:
            table = np.empty((len(names), len(values)))      # (column, row)
            for k, column in enumerate(columns):
                table[k] = column
            finite = np.isfinite(table)
            block = {"sweep_value": values.tolist(), "flag": [""] * len(values),
                     **dict(zip(names, table.tolist()))}
            for i in (~finite.all(0)).nonzero()[0].tolist():
                block["flag"][i] = f"error:non-finite {names[finite[:, i].argmin()]}"
                for name in names:
                    block[name][i] = None
            yield block
            return
    yield from _rows(stack, members, names, values[:half])
    yield from _rows(stack, members, names, values[half:])


def _medium_stack(cfg: RunConfig, values: np.ndarray):
    """A cold or vapor stack's evaluation, vapor gains after the residual absorption."""
    point = cfgmod.at_sweep_value(cfg, values)
    vp = cfgmod.vapor_params_from(point) if cfg.model == "vapor" else None
    mp = cfgmod.medium_params_from(point)

    def cells():
        omega = mhz_to_rad_us(values if cfg.sweep_axis == "omega_mhz" else cfg.omega_mhz)
        obs = spec.evaluate(mp, omega, langevin=cfg.langevin, vapor=vp)
        noise = [getattr(obs, name) for name in spec.NOISE_FIELDS]
        if vp is None:
            return [obs.gain_a, obs.gain_b, *noise]
        from .vapor import residual_transmission
        prepared, front_loss = residual_transmission(mp, vp)
        return [front_loss * obs.gain_a, front_loss * obs.gain_b, *noise, prepared]
    return cells


def _eit_stack(cfg: RunConfig, values: np.ndarray):
    """An EIT stack's evaluation on its LambdaParams, one Python float at a time."""
    from .eit import susceptibility
    lp = cfgmod.eit_params_from(cfg)

    def row(delta2):
        return (chi := susceptibility(lp, mhz_to_rad_us(delta2))).real, chi.imag
    return lambda: [*zip(*map(row, values.tolist()))]


def _reference_stack(cfg: RunConfig, values: np.ndarray):
    """A reference stack's evaluation on its fixed keys, one Python float at a time."""
    from . import reference as ref
    if (kind := cfg.reference["kind"]) == "chain":
        fixed = {key: float(cfg.reference[key])
                 for key in ("slice_gain", "slice_transmission", "n_slices")}

        def row(value):
            return ref.sliced_amp_loss(ref.SliceChainParams(**{**fixed, cfg.sweep_axis: value}))
    elif kind == "pia":     # pia and psa sweep their gain
        def row(gain):
            return *ref.ideal_pia_means(gain, 1.0)[:2], ref.ideal_pia_noise(gain)
    else:
        theta = math.radians(float(cfg.reference.get("theta_deg", "0")))
        big = math.radians(float(cfg.reference.get("big_theta_deg", "90")))

        def row(gain):
            return ref.psa_gain(gain, theta), ref.psa_noise(gain, theta, big)
    return lambda: [*zip(*map(row, values.tolist()))]


def _table(block: dict, names) -> list[list]:
    """The columns ``names`` of a block of rows, None where it has none; a
    name_db column holds 10 log10 of the positive floats of column name."""
    rows = len(block["flag"])
    table = [block.get(name.removesuffix("_db")) or [None] * rows for name in names]
    return [[10.0 * math.log10(v) if isinstance(v, float) and v > 0 else None for v in column]
            if name.endswith("_db") else column for name, column in zip(names, table)]


def run(cfg: RunConfig, with_db: bool = False) -> int:
    """Execute the sweep, writing each block of rows as it is evaluated;
    returns exit status.  A run that fails leaves no output file."""
    if problems := cfgmod.validate(cfg):
        print(*(f"config error at {d}" for d in problems), sep="\n", file=sys.stderr)
        return 2
    names = _columns(cfg.model, cfg.reference.get("kind", ""))
    stack = {"eit": _eit_stack, "reference": _reference_stack}.get(cfg.model, _medium_stack)
    members = 4 + (3 * VELOCITY_NODES if cfg.model == "vapor" else 0)     # matrices a row
    blocks = _rows(partial(stack, cfg), members, names[1:-1], np.array(cfgmod.sweep_values(cfg)))
    if with_db:
        names[-1:-1] = [f"{name}_db" for name in names if name in NOISE_COLUMNS]
    labels = [f"sweep_value[{cfg.sweep_axis}]", *names[1:]]     # axis key carries the unit
    write = _write_csv if cfg.output_format == "csv" else _write_json
    path, fh = cfg.output_path, None
    try:
        with open(path, "w", newline="") as fh:
            write(fh, labels, (_table(block, names) for block in blocks), cfg)
    except BaseException as exc:
        if fh is not None and os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)     # the partial output; never a device or a link
        if not isinstance(exc, OSError):
            raise
        print(f"run failed: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def _csv_cell(text: str) -> str:
    """text as csv.writer(fh, lineterminator="\\n") writes it (a lone CR as is)."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text


def _write_csv(fh, labels, tables, cfg: RunConfig):
    # csv.writer's bytes; numbers never need quoting, labels and flags may
    fh.write(",".join(map(_csv_cell, labels)) + "\n")
    for *numbers, flags in tables:
        cells = [["" if x is None else f"{x:.12g}" for x in column] for column in numbers]
        cells.append([_csv_cell(flag) if flag else flag for flag in flags])
        fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _write_json(fh, labels, tables, cfg: RunConfig):
    """The bytes of json.dumps(payload, indent=2) + "\n", rows written as
    they come: numbers and nulls, and the flag last (null when empty)."""
    import hashlib
    import json
    meta = {"model": cfg.model, "sweep_axis": cfg.sweep_axis, "version": __version__,
            "config_sha256": hashlib.sha256(cfg.text.encode()).hexdigest()}
    if cfg.model == "vapor":
        meta["velocity_order"] = VELOCITY_NODES
    head = json.dumps({"schema": {"columns": labels}, "meta": meta, "rows": []}, indent=2)
    fh.write(head[:-len("]\n}")])
    comma = ""
    for *numbers, flags in tables:
        cells = [json.dumps(column)[1:-1].split(", ") for column in numbers]
        cells.append([json.dumps(flag) if flag else "null" for flag in flags])
        fh.write(comma + ",".join("\n    [\n      " + ",\n      ".join(row) + "\n    ]"
                                  for row in zip(*cells)))
        comma = ","
    fh.write("\n  ]\n}\n")


def _parse(argv) -> tuple[str, dict]:
    """The command ("help" for -h) and the options, by name, of a command line."""
    command, *rest = argv or [""]
    pairs, words = getopt(rest, "h", LONG_OPTIONS)
    options = {name.lstrip("-"): value for name, value in pairs}
    if command in ("-h", "--help") or {"h", "help"} & options.keys():
        return "help", options
    if command not in COMMANDS or words:
        got = " ".join([command, *words]) or "none"
        raise GetoptError(f"expected one command of {', '.join(COMMANDS)}, got {got}")
    if swallowed := [name for name, value in options.items() if value == "-h" or value[:2] == "--"
                     and any(long.startswith(value[2:]) for long in LONG_OPTIONS)]:
        raise GetoptError(f"option --{swallowed[0]} requires argument")    # got one as its value
    if "config" not in options:
        raise GetoptError("option --config is required")
    if command == "validate" and (extra := sorted(options.keys() - {"config"})):
        raise GetoptError(f"validate takes no option --{extra[0]}")
    if options.get("format", "csv") not in cfgmod.FORMATS:
        raise GetoptError(f"option --format must be csv or json, got {options['format']!r}")
    return command, options


def main(argv=None) -> int:
    """Run the command line ``argv`` (default sys.argv[1:]); returns the exit status."""
    try:
        command, options = _parse(sys.argv[1:] if argv is None else argv)
    except GetoptError as exc:
        print(f"{USAGE}\nfourwave: error: {exc}", file=sys.stderr)
        return 2
    if command == "help":
        print(__doc__, end="")
        return 0
    try:
        with open(options["config"], encoding="utf-8") as fh:
            cfg = cfgmod.parse_config(fh.read())
    except (OSError, UnicodeDecodeError, ConfigParseError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if command == "validate":
        problems = cfgmod.validate(cfg)
        for d in problems:
            print(str(d))
        return 0 if not problems else 2

    if command == "reference" and cfg.model != "reference":
        print("config error at run.model: the reference subcommand requires "
              f"model = reference, got {cfg.model!r}", file=sys.stderr)
        return 2
    cfg.output_path = options.get("out") or cfg.output_path
    cfg.output_format = options.get("format", cfg.output_format)
    try:
        return run(cfg, with_db="db" in options)
    except FourwaveError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
