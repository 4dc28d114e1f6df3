"""Stacked sweeps: a cold or vapor sweep evaluated as stacked media, split
in halves above the size budget or on an error, writes the same CSV text as
each of its values evaluated alone, error and pole rows included."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave import cli
from fourwave.cli import main
from fourwave.config import SWEEP_AXES, parse_config, sweep_values

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[run]
model = {model}
langevin = on
omega_mhz = {omega_mhz}

[atom]
gamma_e_mhz = 5.75
gamma_g_mhz = {gamma_g_mhz}
omega0_mhz = 3036
delta1_mhz = {delta1_mhz}
delta2_mhz = {delta2_mhz}
rabi_mhz = {rabi_mhz}

[medium]
optical_depth = {optical_depth}

[vapor]
temperature_c = {temperature_c}
atomic_mass_u = 85
wavelength_nm = 795
pump_waist_um = 600
probe_waist_um = 300
cell_length_mm = 12.5
cross_section_cm2 = 1e-9

[sweep]
axis = {axis}
start = {start!r}
stop = {stop!r}
count = {count}

[output]
path = {path}
"""

POINT = {"cold": dict(gamma_g_mhz=0.01, delta1_mhz=1000.0, delta2_mhz=0.0, rabi_mhz=300.0,
                      optical_depth=150.0, omega_mhz=1.0, temperature_c=120.0),
         "vapor": dict(gamma_g_mhz=1.0, delta1_mhz=800.0, delta2_mhz=4.0, rabi_mhz=330.0,
                       optical_depth=4500.0, omega_mhz=1.0, temperature_c=120.0)}

# Sweep ranges inside the parameter domain.
RANGES = {"delta1_mhz": (500.0, 1500.0), "delta2_mhz": (-60.0, 60.0),
          "rabi_mhz": (0.0, 600.0), "optical_depth": (0.0, 4500.0),
          "omega_mhz": (0.1, 5.0), "temperature_c": (60.0, 160.0)}


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The stack shape, media by frequencies, of every spectra.evaluate call."""
    calls, evaluate = [], cli.spec.evaluate

    def spy(mp, omega, **kwargs):
        calls.append(np.broadcast_shapes(mp.shape, np.shape(omega)))
        return evaluate(mp, omega, **kwargs)
    monkeypatch.setattr(cli.spec, "evaluate", spy)
    return calls


def csv_rows(directory, name, model, axis, start, stop, count, **point):
    out = directory / f"{name}.csv"
    ini = directory / f"{name}.ini"
    text = CONFIG.format(model=model, axis=axis, start=start, stop=stop, count=count,
                         path=out, **point)
    ini.write_text(text)
    assert main(["run", "--config", str(ini)]) == 0
    return out.read_text().splitlines(), sweep_values(parse_config(text))


def assert_stacked_equals_alone(directory, model, axis, start, stop, count, **point):
    stacked, values = csv_rows(directory, "stacked", model, axis, start, stop, count, **point)
    alone = [csv_rows(directory, f"alone{i}", model, axis, v, v, 1, **point)[0]
             for i, v in enumerate(values)]
    assert all(rows[0] == stacked[0] for rows in alone)
    assert [rows[1] for rows in alone] == stacked[1:]
    return stacked[1:]


@pytest.mark.parametrize("model, axis", [(model, axis) for model in ("cold", "vapor")
                                         for axis in SWEEP_AXES[model]])
@given(data=st.data())
@settings(max_examples=4, derandomize=True, deadline=None)
def test_stacked_sweep_equals_each_value_alone(tmp_path_factory, model, axis, data):
    low, high = RANGES[axis]
    ends = st.floats(low, high, allow_nan=False)
    start, stop = data.draw(ends), data.draw(ends)
    count = data.draw(st.integers(3, 12))
    # a budget of two rows: every sweep is split, and stacks of two remain
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_MATRICES", 2 * 3 * (40 if model == "vapor" else 1))
        assert_stacked_equals_alone(tmp_path_factory.mktemp("sweep"), model, axis,
                                    start, stop, count, **POINT[model])


def test_shipped_vapor_sweep_is_one_stack(tmp_path, evaluate_calls):
    assert main(["run", "--config", str(ROOT / "configs" / "vapor_gain_scan.ini"),
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert evaluate_calls == [(61,)]


def test_budget_splits_in_halves(tmp_path, monkeypatch, evaluate_calls):
    monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 3)
    csv_rows(tmp_path, "stacked", "cold", "delta2_mhz", -5.0, 5.0, 11, **POINT["cold"])
    assert evaluate_calls == [(2,), (3,), (3,), (3,)]


def test_pole_row_mid_block(tmp_path):
    # no pump, no ground decay: the kernel is singular at omega = delta2 only
    point = {**POINT["cold"], "rabi_mhz": 0.0, "gamma_g_mhz": 0.0, "delta2_mhz": 2.0}
    rows = assert_stacked_equals_alone(tmp_path, "cold", "omega_mhz", 1.5, 2.5, 5, **point)
    assert [row.split(",")[-1] for row in rows] == ["", "", "pole", "", ""]


def test_pole_row_costs_a_logarithmic_number_of_calls(tmp_path, evaluate_calls):
    point = {**POINT["cold"], "rabi_mhz": 0.0, "gamma_g_mhz": 0.0, "delta2_mhz": 2.0}
    rows = assert_stacked_equals_alone(tmp_path, "cold", "omega_mhz", 1.5, 2.5, 61, **point)
    assert [row.split(",")[-1] for row in rows] == [""] * 30 + ["pole"] + [""] * 30
    stacked = evaluate_calls[:-61]      # each value alone makes one call
    assert stacked[0] == (61,) and len(stacked) <= 2 * math.ceil(math.log2(61)) + 1


def test_zero_depth_has_unit_langevin_scale(tmp_path):
    # the only pole sits at the 1 MHz calibration frequency; a medium without
    # optical depth has Langevin scale 1 and never meets it
    point = {**POINT["cold"], "rabi_mhz": 0.0, "gamma_g_mhz": 0.0, "delta2_mhz": 1.0,
             "optical_depth": 0.0}
    rows, _ = csv_rows(tmp_path, "zero", "cold", "omega_mhz", 2.0, 3.0, 3, **point)
    assert len(rows) == 4
    for row in rows[1:]:
        *values, flag = row.split(",")
        assert flag == "" and all(math.isfinite(float(v)) for v in values), row


def test_error_row_mid_block(tmp_path):
    # at delta2 = -17.5 MHz the transfer exponential of this dense medium
    # overflows; its neighbours evaluate
    point = {**POINT["cold"], "optical_depth": 4500.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = assert_stacked_equals_alone(tmp_path, "cold", "delta2_mhz", -22.5, -12.5, 5,
                                           **point)
    assert [row.split(",")[-1] for row in rows] == [
        "", "", "error:expm: overflow during squaring phase", "", ""]


def test_blow_ups_are_flagged_silently(tmp_path):
    # overflowing exponentials, a NaN noise integral and a NaN calibration
    # scale, side by side; no numpy warning reaches stderr
    point = {**POINT["cold"], "delta1_mhz": 700.0, "rabi_mhz": 520.0,
             "optical_depth": 4500.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = assert_stacked_equals_alone(tmp_path, "cold", "delta2_mhz", -70.0, -65.0, 11,
                                           **point)
        ini = tmp_path / "stacked.ini"
        assert main(["run", "--config", str(ini), "--format", "json",
                     "--out", str(tmp_path / "out.json")]) == 0
    overflow = "error:expm: overflow during squaring phase"
    non_finite = "error:non-finite S_Nminus"
    no_scale = "error:calibration produced non-finite scale nan"
    assert [row.split(",")[-1] for row in rows] == [
        "", non_finite, overflow, non_finite, "", no_scale, overflow, no_scale, "", "", ""]
    assert all(row.split(",")[1:-1] == [""] * 6 for row in rows if row.split(",")[-1])

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    payload = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
    assert [row[-1] for row in payload["rows"]][1:3] == [non_finite, overflow]
