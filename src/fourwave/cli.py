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

Exit status: 0 ok, 1 run failed, 2 usage or config error.  Rows are written in
sweep order, the same for a fixed config; a row whose frequency sits on a
resonance pole is written empty with flag 'pole', and the run exits 0.
"""

import csv
import io
import math
import sys
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

# Coherence matrices in one stacked evaluation of a cold or vapor sweep, at most
# 4 per cold row (the reference, 0, +omega and -omega) and 3 x VELOCITY_NODES
# more per vapor row (the Doppler nodes at 0, +-omega); a larger sweep is split
# in halves.  A stack of 68 vapor rows peaked within 0.1 MB of one row at a
# time (31.3 MB resident); configs/vapor_gain_scan.ini (7564 matrices) is one
# stack.
BLOCK_MATRICES = 8192


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def _columns(model: str, kind: str = "") -> list[str]:
    if model in ("cold", "vapor"):
        extra = ["prepared_fraction"] if model == "vapor" else []
        return ["sweep_value", "Ga", "Gb", *spec.NOISE_FIELDS, *extra, "flag"]
    if model == "eit":
        return ["sweep_value", "chi_re", "chi_im", "flag"]
    if kind == "psa":
        return ["sweep_value", "psa_gain", "S_N", "flag"]
    return ["sweep_value", "Ga", "Gb", "S_Nminus", "flag"]


def _medium_rows(cfg: RunConfig, values: list[float]) -> list[dict]:
    """Cold or vapor rows of consecutive sweep values, evaluated as one
    stacked medium; the vapor model folds the front-loaded residual
    absorption into the gains.  A stack above BLOCK_MATRICES, or one that
    raises, is split in halves down to single values, so every row gets
    the flag it gets alone."""
    half = len(values) // 2
    members = 4 + (3 * VELOCITY_NODES if cfg.model == "vapor" else 0)
    if half and len(values) * members > BLOCK_MATRICES:
        return _medium_rows(cfg, values[:half]) + _medium_rows(cfg, values[half:])
    swept = np.array(values)
    point = cfgmod.at_sweep_value(cfg, swept)
    mp = cfgmod.medium_params_from(point)
    omega = mhz_to_rad_us(swept if cfg.sweep_axis == "omega_mhz" else cfg.omega_mhz)
    vp = cfgmod.vapor_params_from(point) if cfg.model == "vapor" else None
    try:
        obs = spec.evaluate(mp, omega, langevin=cfg.langevin, vapor=vp)
        prepared, front_loss = None, 1.0
        if vp is not None:
            from .vapor import residual_transmission
            prepared, front_loss = residual_transmission(mp, vp)
    except FourwaveError as exc:
        if half:
            return _medium_rows(cfg, values[:half]) + _medium_rows(cfg, values[half:])
        return [{"sweep_value": values[0],
                 "flag": "pole" if isinstance(exc, PoleError) else f"error:{exc}"}]
    columns = {"Ga": front_loss * obs.gain_a, "Gb": front_loss * obs.gain_b,
               **{name: getattr(obs, name) for name in spec.NOISE_FIELDS},
               "prepared_fraction": prepared}
    columns = {name: np.broadcast_to(column, swept.shape).tolist()
               for name, column in columns.items() if column is not None}
    rows = []
    for i, value in enumerate(values):
        row = {name: column[i] for name, column in columns.items()}
        bad = [name for name, x in row.items() if not math.isfinite(x)]
        rows.append({"sweep_value": value, "flag": f"error:non-finite {bad[0]}"} if bad
                    else {"sweep_value": value, **row, "flag": ""})
    return rows


def _eit_row(cfg: RunConfig, axis: str, value: float) -> dict:
    from .eit import susceptibility
    lp = cfgmod.eit_params_from(cfg)
    try:
        chi = susceptibility(lp, mhz_to_rad_us(value))
    except PoleError:
        return {"sweep_value": value, "flag": "pole"}
    return {"sweep_value": value, "chi_re": chi.real, "chi_im": chi.imag, "flag": ""}


def _reference_row(cfg: RunConfig, axis: str, value: float) -> dict:
    from . import reference as refmod
    kind = cfg.reference.get("kind", "pia")
    try:
        if kind == "pia":
            gain = value if axis == "gain" else float(cfg.reference["gain"])
            n_a, n_b, _ = refmod.ideal_pia_means(gain, 1.0)
            return {"sweep_value": value, "Ga": n_a, "Gb": n_b,
                    "S_Nminus": refmod.ideal_pia_noise(gain), "flag": ""}
        if kind == "psa":
            gain = value if axis == "gain" else float(cfg.reference["gain"])
            theta = math.radians(float(cfg.reference.get("theta_deg", "0")))
            big = math.radians(float(cfg.reference.get("big_theta_deg", "90")))
            return {"sweep_value": value, "psa_gain": refmod.psa_gain(gain, theta),
                    "S_N": refmod.psa_noise(gain, theta, big), "flag": ""}
        params = {key: float(value if key == axis else cfg.reference[key])
                  for key in ("slice_gain", "slice_transmission", "n_slices")}
        params["n_slices"] = int(params["n_slices"])
        ga, gb, snm = refmod.sliced_amp_loss(refmod.SliceChainParams(**params))
        return {"sweep_value": value, "Ga": ga, "Gb": gb, "S_Nminus": snm, "flag": ""}
    except FourwaveError as exc:
        return {"sweep_value": value, "flag": f"error:{exc}"}


_ROW_BUILDERS = {"eit": _eit_row, "reference": _reference_row}


def run(cfg: RunConfig, with_db: bool = False) -> int:
    """Execute the sweep and write the output file; returns exit status."""
    problems = cfgmod.validate(cfg)
    if problems:
        for d in problems:
            print(f"config error at {d}", file=sys.stderr)
        return 2
    axis, values = cfg.sweep_axis, cfgmod.sweep_values(cfg)
    rows = _medium_rows(cfg, values) if cfg.model in ("cold", "vapor") \
        else [_ROW_BUILDERS[cfg.model](cfg, axis, v) for v in values]

    columns = _columns(cfg.model, cfg.reference.get("kind", ""))
    if with_db:
        columns = _with_db_columns(columns, rows)
    labels = [f"sweep_value[{axis}]" if c == "sweep_value" else c
              for c in columns]     # axis key carries the unit
    text = _render_csv(labels, columns, rows) if cfg.output_format == "csv" \
        else _render_json(labels, columns, rows, cfg)
    try:
        with open(cfg.output_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"run failed: cannot write {cfg.output_path}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


def _with_db_columns(columns, rows):
    out = list(columns)
    insert_at = out.index("flag")
    for name in [c for c in columns if c in NOISE_COLUMNS]:
        db_name = f"{name}_db"
        for row in rows:
            val = row.get(name)
            row[db_name] = 10.0 * math.log10(val) if isinstance(val, float) and val > 0 \
                else None
        out.insert(insert_at, db_name)
        insert_at += 1
    return out


def _render_csv(labels, columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(labels)
    writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
    return buf.getvalue()


def _render_json(labels, columns, rows, cfg: RunConfig) -> str:
    import hashlib
    import json
    meta = {"model": cfg.model, "sweep_axis": cfg.sweep_axis, "seed": cfg.seed,
            "version": __version__, "config_sha256": hashlib.sha256(cfg.text.encode()).hexdigest()}
    if cfg.model == "vapor":
        meta["velocity_order"] = VELOCITY_NODES
    payload = {"schema": {"columns": labels}, "meta": meta,
               "rows": [[row.get(c) if row.get(c) != "" else None for c in columns]
                        for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _load(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return cfgmod.parse_config(fh.read())


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
        cfg = _load(options["config"])
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
    if options.get("out"):
        cfg.output_path = options["out"]
    cfg.output_format = options.get("format", cfg.output_format)
    try:
        return run(cfg, with_db="db" in options)
    except FourwaveError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
