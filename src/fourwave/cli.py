"""Batch front-end: parameter sweeps emitting tabular spectra.

Subcommands:

    fourwave run --config cfg.ini [--out PATH] [--format csv|json] [--db]
    fourwave validate --config cfg.ini
    fourwave reference --config cfg.ini [...]      ; model=reference shortcut

Output is deterministic for a fixed config and seed; rows are written in
sweep order.  Rows whose frequency point sits on a resonance pole are
emitted with an empty value set and a 'pole' flag; the run still exits 0.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import config as cfgmod
from . import reference as refmod
from . import spectra as spec
from . import vapor as vapmod
from .config import ConfigParseError, RunConfig
from .errors import FourwaveError, PoleError
from .units import mhz_to_rad_us

NOISE_COLUMNS = ("S_Nminus", "S_phiplus", "inseparability", "S_Na", "S_N")

# Coherence matrices (rows x 3 frequencies x velocity nodes) in one stacked
# evaluation of a cold or vapor sweep; a larger sweep is split in halves.  A
# full stack (68 vapor rows) peaks 3.5 MB above one row at a time (37.0 vs
# 33.5 MB resident); configs/vapor_gain_scan.ini (7320 matrices) is one stack.
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
    nodes = cfg.velocity_order if cfg.model == "vapor" else 1
    if half and len(values) * 3 * nodes > BLOCK_MATRICES:
        return _medium_rows(cfg, values[:half]) + _medium_rows(cfg, values[half:])
    swept = np.array(values)
    point = cfgmod.at_sweep_value(cfg, swept)
    mp = cfgmod.medium_params_from(point)
    omega = mhz_to_rad_us(swept if cfg.sweep_axis == "omega_mhz" else cfg.omega_mhz)
    vp = cfgmod.vapor_params_from(point) if cfg.model == "vapor" else None
    try:
        obs = spec.evaluate(mp, omega, langevin=cfg.langevin, vapor=vp, order=cfg.velocity_order)
        prepared, front_loss = (None, 1.0) if vp is None \
            else vapmod.residual_transmission(mp, vp)
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
    payload = {
        "schema": {"columns": labels},
        "meta": {"model": cfg.model, "sweep_axis": cfg.sweep_axis, "seed": cfg.seed},
        "rows": [[row.get(c) if row.get(c) != "" else None for c in columns]
                 for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _load(path: str) -> RunConfig:
    with open(path) as fh:
        return cfgmod.parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fourwave",
        description="Gain and quantum-noise spectra of double-lambda four-wave mixing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "reference"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        if name != "validate":
            p.add_argument("--out", default=None, help="override output.path")
            p.add_argument("--format", default=None, choices=("csv", "json"))
            p.add_argument("--db", action="store_true",
                           help="append decibel columns for noise quantities")
    args = parser.parse_args(argv)

    try:
        cfg = _load(args.config)
    except (OSError, ConfigParseError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        problems = cfgmod.validate(cfg)
        for d in problems:
            print(str(d))
        return 0 if not problems else 2

    if args.command == "reference" and cfg.model != "reference":
        print("config error at run.model: the reference subcommand requires "
              f"model = reference, got {cfg.model!r}", file=sys.stderr)
        return 2
    if args.out:
        cfg.output_path = args.out
    if args.format:
        cfg.output_format = args.format
    try:
        return run(cfg, with_db=args.db)
    except FourwaveError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
