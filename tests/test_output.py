"""What `fourwave run` writes: the streamed CSV and JSON writers against the
dict renderers they replaced, byte for byte; memory bounded by the stack,
not the sweep; and a run that fails leaves no output file."""

import csv
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave import cli
from fourwave import config as cfgmod
from fourwave.cli import main
from fourwave.errors import DomainError, FourwaveError, PoleError
from fourwave.numkernel import VELOCITY_NODES
from fourwave.units import mhz_to_rad_us

from test_config_cli import (CHAIN_CONFIG, EIT_CONFIG, REFERENCE_CONFIG, TRANSMISSIONS,
                             cold_config)
from test_sweeps import CONFIG, POINT

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# The row-by-row output path the streamed writers replaced: a dict per row,
# rendered once the whole sweep is done.  Kept as the oracle.

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def _medium_rows(cfg, values: list[float]) -> list[dict]:
    half = len(values) // 2
    members = 4 + (3 * VELOCITY_NODES if cfg.model == "vapor" else 0)
    if half and len(values) * members > cli.BLOCK_MATRICES:
        return _medium_rows(cfg, values[:half]) + _medium_rows(cfg, values[half:])
    swept = np.array(values)
    point = cfgmod.at_sweep_value(cfg, swept)
    mp = cfgmod.medium_params_from(point)
    omega = mhz_to_rad_us(swept if cfg.sweep_axis == "omega_mhz" else cfg.omega_mhz)
    vp = cfgmod.vapor_params_from(point) if cfg.model == "vapor" else None
    try:
        obs = cli.spec.evaluate(mp, omega, langevin=cfg.langevin, vapor=vp)
        prepared, front_loss = None, 1.0
        if vp is not None:
            from fourwave.vapor import residual_transmission
            prepared, front_loss = residual_transmission(mp, vp)
    except FourwaveError as exc:
        if half:
            return _medium_rows(cfg, values[:half]) + _medium_rows(cfg, values[half:])
        return [{"sweep_value": values[0],
                 "flag": "pole" if isinstance(exc, PoleError) else f"error:{exc}"}]
    columns = {"Ga": front_loss * obs.gain_a, "Gb": front_loss * obs.gain_b,
               **{name: getattr(obs, name) for name in cli.spec.NOISE_FIELDS},
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


def _eit_row(cfg, value: float) -> dict:
    from fourwave.eit import susceptibility
    try:
        chi = susceptibility(cfgmod.eit_params_from(cfg), mhz_to_rad_us(value))
    except PoleError:
        return {"sweep_value": value, "flag": "pole"}
    return {"sweep_value": value, "chi_re": chi.real, "chi_im": chi.imag, "flag": ""}


def _reference_row(cfg, value: float) -> dict:
    from fourwave import reference as refmod
    axis, kind = cfg.sweep_axis, cfg.reference.get("kind", "pia")
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
        ga, gb, snm = refmod.sliced_amp_loss(refmod.SliceChainParams(**params))
        return {"sweep_value": value, "Ga": ga, "Gb": gb, "S_Nminus": snm, "flag": ""}
    except PoleError:
        return {"sweep_value": value, "flag": "pole"}
    except (FourwaveError, ArithmeticError) as exc:
        return {"sweep_value": value, "flag": f"error:{exc}"}


def _finite(row: dict) -> dict:
    """The row, or its sweep value and the flag of its first non-finite cell."""
    bad = [name for name, x in row.items() if isinstance(x, float) and not math.isfinite(x)]
    return {"sweep_value": row["sweep_value"], "flag": f"error:non-finite {bad[0]}"} \
        if bad else row


def _with_db_columns(columns, rows):
    out = list(columns)
    insert_at = out.index("flag")
    for name in [c for c in columns if c in cli.NOISE_COLUMNS]:
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


def _render_json(labels, columns, rows, cfg) -> str:
    meta = {"model": cfg.model, "sweep_axis": cfg.sweep_axis, "version": cli.__version__,
            "config_sha256": hashlib.sha256(cfg.text.encode()).hexdigest()}
    if cfg.model == "vapor":
        meta["velocity_order"] = VELOCITY_NODES
    payload = {"schema": {"columns": labels}, "meta": meta,
               "rows": [[row.get(c) if row.get(c) != "" else None for c in columns]
                        for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def oracle(text: str, fmt: str, with_db: bool) -> str:
    cfg = cfgmod.parse_config(text)
    axis, values = cfg.sweep_axis, cfgmod.sweep_values(cfg)
    rows = _medium_rows(cfg, values) if cfg.model in ("cold", "vapor") \
        else [_finite(_eit_row(cfg, v) if cfg.model == "eit" else _reference_row(cfg, v))
              for v in values]
    columns = cli._columns(cfg.model, cfg.reference.get("kind", ""))
    if with_db:
        columns = _with_db_columns(columns, rows)
    labels = [f"sweep_value[{axis}]" if c == "sweep_value" else c for c in columns]
    return _render_csv(labels, columns, rows) if fmt == "csv" \
        else _render_json(labels, columns, rows, cfg)


def edited(template: str, *edits) -> str:
    """The config template, written to o.csv, with each (old, new) edit made."""
    text = template.format(path="o.csv")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


def shipped(name: str) -> str:
    return (CONFIGS / f"{name}.ini").read_text()


CASES = {
    "entangled_pair": shipped("entangled_pair"),
    "vapor_gain_scan": shipped("vapor_gain_scan"),
    "reference_pia": shipped("reference_pia"),
    # a pole row in the middle of a stack (tests/test_sweeps.py::test_pole_row_mid_block)
    "pole-mid-stack": CONFIG.format(
        model="cold", axis="omega_mhz", start=1.5, stop=2.5, count=5, path="o.csv",
        **{**POINT["cold"], "rabi_mhz": 0.0, "gamma_g_mhz": 0.0, "delta2_mhz": 2.0}),
    # 12 rows flagged error:non-finite S_Nminus (tests/test_config_fuzz.py)
    "non-finite": shipped("vapor_gain_scan").replace("optical_depth = 4500",
                                                     "optical_depth = 1000001"),
    "chain-commas": CHAIN_CONFIG.format(path="o.csv"),
    "eit": EIT_CONFIG.format(path="o.csv"),
    "psa": REFERENCE_CONFIG.format(path="o.csv").replace(
        "kind = pia", "kind = psa").replace("gain = 3", "gain = 3\ntheta_deg = 30"),
    "count-1": cold_config("o.csv", axis="omega_mhz", start=2.5, stop=2.5, count=1),
    # a total gain that underflows to 0, a chain and a psa gain that overflow
    "chain-underflow": edited(CHAIN_CONFIG, ("slice_gain = 1.2", "slice_gain = 1"),
                              ("n_slices = 4", "n_slices = 10000"), *TRANSMISSIONS),
    "chain-overflow": edited(CHAIN_CONFIG, ("n_slices = 4", "n_slices = 100000"), *TRANSMISSIONS),
    "psa-overflow": edited(REFERENCE_CONFIG, ("kind = pia", "kind = psa"),
                           ("start = 3", "start = 1e308"), ("stop = 3", "stop = 1e308")),
    # deamplification by 2.5e-9 (G = 1e8 at theta = 180 degrees)
    "psa-deamplified": edited(REFERENCE_CONFIG, ("kind = pia", "kind = psa\ntheta_deg = 180"),
                              ("start = 3", "start = 1e8"), ("stop = 3", "stop = 1e8")),
    # flagged rows inside one EIT or reference stack: a pole at delta2 = 0 and
    # three gains below 1
    "eit-pole": edited(EIT_CONFIG, ("rabi_c_mhz = 5.75", "rabi_c_mhz = 0")),
    "pia-below-unit-gain": edited(REFERENCE_CONFIG, ("start = 3", "start = 0.5"),
                                  ("stop = 3", "stop = 10"), ("count = 1", "count = 40")),
    # 21 deamplifications from G = 1e7 to 1e8, each the closed form with an empty flag
    "psa-deamplified-stack": edited(REFERENCE_CONFIG,
                                    ("kind = pia", "kind = psa\ntheta_deg = 180"),
                                    ("start = 3", "start = 1e7"), ("stop = 3", "stop = 1e8"),
                                    ("count = 1", "count = 21")),
}


@pytest.mark.parametrize("fmt, with_db", (("csv", False), ("json", False), ("csv", True),
                                          ("json", True)), ids=("csv", "json", "csv-db",
                                                                "json-db"))
@pytest.mark.parametrize("name", (*CASES, "split-stacks"))
def test_output_equals_the_dict_renderers(tmp_path, monkeypatch, name, fmt, with_db):
    if name == "split-stacks":    # stacks of 4 rows, the last one of 2
        monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 4)
    text = CASES.get(name, CASES["entangled_pair"])
    ini, out = tmp_path / "cfg.ini", tmp_path / f"out.{fmt}"
    ini.write_text(text)
    command = "reference" if "model = reference" in text else "run"
    argv = [command, "--config", str(ini), "--out", str(out), "--format", fmt]
    assert main(argv + ["--db"] * with_db) == 0
    expected = oracle(text, fmt, with_db)
    assert out.read_text() == expected
    if name == "non-finite":
        assert expected.count("error:non-finite S_Nminus") == 12
    if name == "psa-deamplified-stack" and fmt == "csv":
        # each row 1/(2G - 1 + 2 sqrt(G(G-1))), the reciprocal of the amplification at theta = 0
        rows = [row.split(",") for row in expected.splitlines()[1:]]
        assert [(row[1], row[-1]) for row in rows] == [
            (f"{1.0 / (2.0 * g - 1.0 + 2.0 * math.sqrt(g * (g - 1.0))):.12g}", "")
            for g in (float(row[0]) for row in rows)]
    if name == "chain-commas" and fmt == "csv":
        assert ',"error:slice_transmission' in expected     # quoted: it holds commas


def omega_sweep(count: int, path) -> str:
    return shipped("entangled_pair").replace("count = 50", f"count = {count}") \
        .replace("path = entangled_pair.csv", f"path = {path}")


def traced_peak(tmp_path, count: int) -> int:
    ini = tmp_path / f"sweep{count}.ini"
    ini.write_text(omega_sweep(count, tmp_path / "out.csv"))
    tracemalloc.start()
    try:
        assert main(["run", "--config", str(ini)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_the_stack_not_the_sweep(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 64)     # stacks of 64 rows
    traced_peak(tmp_path, 64)       # lazy imports and first-use caches
    short, long = traced_peak(tmp_path, 128), traced_peak(tmp_path, 1280)
    assert long <= 1.25 * short, (short, long)
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1281


@given(labels=st.lists(st.text(), min_size=2, max_size=3), flags=st.lists(st.text(), max_size=6),
       numbers=st.lists(st.one_of(st.none(), st.floats(allow_nan=False)), min_size=6, max_size=6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_csv_bytes_equal_the_csv_module(labels, flags, numbers):
    # any flag text, an error message with commas, quotes or line breaks
    # included, is quoted as csv.writer quotes it; numbers never need quoting
    table = [numbers[:len(flags)]] * (len(labels) - 1) + [flags]
    ours, theirs = io.StringIO(newline=""), io.StringIO(newline="")
    cli._write_csv(ours, labels, [table, table], None)
    writer = csv.writer(theirs, lineterminator="\n")
    writer.writerow(labels)
    for _ in range(2):
        writer.writerows(zip(*[[_fmt(x) for x in column] for column in table[:-1]], flags))
    assert ours.getvalue() == theirs.getvalue()


def test_unwritable_output_fails_before_any_evaluation(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.spec, "evaluate", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "o.csv"
    ini = tmp_path / "cfg.ini"
    ini.write_text(cold_config(out, count=3))
    assert main(["run", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == (f"run failed: cannot write {out}: "
                                       "No such file or directory\n")
    assert calls == []


def test_run_failing_after_the_first_stack_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 4)
    out, ini = tmp_path / "o.csv", tmp_path / "cfg.ini"
    ini.write_text(cold_config(out, count=11))
    built, medium_params_from = [], cfgmod.medium_params_from

    def second_stack_fails(point, atom=None):
        if atom is None:        # run's stacks; validate passes the atom it built
            built.append(point)
            if len(built) == 2:
                assert out.exists()     # opened before the first stack
                raise DomainError("medium: no second stack")
        return medium_params_from(point, atom)
    monkeypatch.setattr(cfgmod, "medium_params_from", second_stack_fails)
    assert main(["run", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == "run failed: medium: no second stack\n"
    assert len(built) == 2 and not out.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_write_reports_and_keeps_a_device(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(cold_config("/dev/full", count=3))
    assert main(["run", "--config", str(ini)]) == 1
    assert capsys.readouterr().err == ("run failed: cannot write /dev/full: "
                                       "No space left on device\n")
    assert Path("/dev/full").exists()
