"""Stacked sweeps: a cold or vapor sweep evaluated as stacked media, split
in halves above the size budget or on an error, writes the same CSV text as
each of its values evaluated alone, error and pole rows included.  EIT and
reference sweeps take the same stacks, evaluated one value at a time."""

import csv
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

from test_config_cli import EIT_CONFIG, REFERENCE_CONFIG

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
        patch.setattr(cli, "BLOCK_MATRICES", 2 * (124 if model == "vapor" else 4))
        assert_stacked_equals_alone(tmp_path_factory.mktemp("sweep"), model, axis,
                                    start, stop, count, **POINT[model])


def test_shipped_vapor_sweep_is_one_stack(tmp_path, evaluate_calls):
    assert main(["run", "--config", str(ROOT / "configs" / "vapor_gain_scan.ini"),
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert evaluate_calls == [(61,)]


def test_budget_splits_in_halves(tmp_path, monkeypatch, evaluate_calls):
    monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 4)
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


# gamma_g = 0 delta2 sweeps at omega = 2 MHz: across the Raman resonances of
# the kernels at -omega, 0, the 1 MHz calibration frequency and +omega, and
# within 1.6e-8 MHz of +omega, where the Frobenius condition number kappa_F of
# the coherence system crosses POLE_CONDITION_LIMIT.  Without the pump the entry
# d = omega + i gamma_g - delta2 of the diagonal M1' reaches 0 there; with it,
# det M1' stays away from 0.  Near +omega the flags differ by model: vapor
# rows 2 and 6 (delta2 = 2 -+ 8e-9 MHz) have kappa_F = 1.02e12 (kappa_2 =
# 8.3e11) and are poles, the cold rows there kappa_F = 6.4e11.
RAMAN_SWEEPS = ((-3.0, 3.0, 13), (2.0 - 1.6e-8, 2.0 + 1.6e-8, 9))
RAMAN_FLAGS = {0.0: (["", "", "pole", "", "", "", "pole", "", "pole", "", "pole", "", ""],
                     {"cold": [""] * 3 + ["pole"] * 3 + [""] * 3,
                      "vapor": [""] * 2 + ["pole"] * 5 + [""] * 2}),
               300.0: ([""] * 13, {"cold": [""] * 9, "vapor": [""] * 9})}


@pytest.mark.parametrize("model", ("cold", "vapor"))
@pytest.mark.parametrize("rabi_mhz", (0.0, 300.0), ids=("pump-off", "pump-on"))
def test_raman_pole_flags(tmp_path, model, rabi_mhz):
    point = {**POINT[model], "gamma_g_mhz": 0.0, "omega_mhz": 2.0, "rabi_mhz": rabi_mhz}
    wide, near = RAMAN_FLAGS[rabi_mhz]
    for sweep, flags in zip(RAMAN_SWEEPS, (wide, near[model])):
        rows = assert_stacked_equals_alone(tmp_path, model, "delta2_mhz", *sweep, **point)
        assert [row.split(",")[-1] for row in rows] == flags


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


def test_calibration_failure_is_flagged(tmp_path):
    # a dense medium whose Langevin scale comes out negative
    point = {**POINT["cold"], "gamma_g_mhz": 0.58, "delta1_mhz": -1678.3, "delta2_mhz": -54.0,
             "rabi_mhz": 778.65, "optical_depth": 5000.0}
    rows, _ = csv_rows(tmp_path, "negative", "cold", "omega_mhz", 2.0, 2.0, 1, **point)
    assert rows[1] == "2,,,,,,,error:calibration produced non-positive scale -3.417e+00"


def test_error_row_mid_block(tmp_path):
    # at delta2 = -17.5 MHz the noise integral of this dense medium
    # overflows; its neighbours evaluate
    point = {**POINT["cold"], "optical_depth": 4500.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = assert_stacked_equals_alone(tmp_path, "cold", "delta2_mhz", -22.5, -12.5, 5,
                                           **point)
    assert [row.split(",")[-1] for row in rows] == [
        "", "", "error:noise_integral: overflow in the closed form", "", ""]


def test_blow_ups_are_flagged_silently(tmp_path):
    # overflowing noise integrals at +-omega and at the calibration frequency,
    # between rows that evaluate; no numpy warning reaches stderr
    point = {**POINT["cold"], "delta1_mhz": 700.0, "rabi_mhz": 520.0,
             "optical_depth": 4500.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = assert_stacked_equals_alone(tmp_path, "cold", "delta2_mhz", -70.0, -65.0, 11,
                                           **point)
        ini = tmp_path / "stacked.ini"
        assert main(["run", "--config", str(ini), "--format", "json",
                     "--out", str(tmp_path / "out.json")]) == 0
    overflow = "error:noise_integral: overflow in the closed form"
    assert [row.split(",")[-1] for row in rows] == [
        "", overflow, overflow, overflow, "", overflow, overflow, overflow, "", "", ""]
    assert all(row.split(",")[1:-1] == [""] * 6 for row in rows if row.split(",")[-1])

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    payload = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
    assert [row[-1] for row in payload["rows"]][1:3] == [overflow, overflow]


@pytest.fixture
def stack_calls(monkeypatch):
    """The row count of every EIT or reference stack evaluation."""
    calls = []

    def spied(build):
        def stack(cfg, values):
            evaluate = build(cfg, values)

            def counted():
                calls.append(len(values))
                return evaluate()
            return counted
        return stack
    for name in ("_eit_stack", "_reference_stack"):
        monkeypatch.setattr(cli, name, spied(getattr(cli, name)))
    return calls


def scalar_rows(directory, template, *edits) -> list[list[str]]:
    """The CSV rows, header dropped, of run on the template with each edit made."""
    out, ini = directory / "out.csv", directory / "cfg.ini"
    text = template.format(path=out)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    ini.write_text(text)
    assert main(["run", "--config", str(ini)]) == 0
    with open(out, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_eit_sweep_is_one_evaluation(tmp_path, monkeypatch, stack_calls):
    assert [row[-1] for row in scalar_rows(tmp_path, EIT_CONFIG)] == [""] * 81
    assert stack_calls == [81]
    # an EIT row counts 4 matrices, as a cold row does: the same stacks
    monkeypatch.setattr(cli, "BLOCK_MATRICES", 4 * 4)
    scalar_rows(tmp_path, EIT_CONFIG, ("count = 81", "count = 11"))
    assert stack_calls[1:] == [2, 3, 3, 3]


# the first three gains of 0.5 to 10 in 40 rows, each below 1
PIA_FLAGS = [f"error:ideal_pia_means: gain must be >= 1, got {gain}"
             for gain in (0.5, 0.7435897435897436, 0.9871794871794872)]


@pytest.mark.parametrize("template, edits, flags", (
    # no control field and no ground decay: the susceptibility's only pole is delta2 = 0
    (EIT_CONFIG, (("rabi_c_mhz = 5.75", "rabi_c_mhz = 0"),), [""] * 40 + ["pole"] + [""] * 40),
    (REFERENCE_CONFIG, (("start = 3", "start = 0.5"), ("stop = 3", "stop = 10"),
                        ("count = 1", "count = 40")), PIA_FLAGS + [""] * 37),
), ids=("eit-pole", "pia-below-unit-gain"))
def test_flagged_row_costs_a_logarithmic_number_of_evaluations(tmp_path, stack_calls,
                                                                template, edits, flags):
    rows = scalar_rows(tmp_path, template, *edits)
    assert [row[-1] for row in rows] == flags
    assert all(cells == [""] * len(cells) for _, *cells, flag in rows if flag)
    n = len(flags)
    assert stack_calls[0] == n and len(stack_calls) <= 2 * math.ceil(math.log2(n)) + 1
