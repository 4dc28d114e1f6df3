"""Stacked sweeps: a cold or vapor sweep evaluated in blocks writes the same
CSV text as each of its values evaluated alone, error and pole rows included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourwave.cli import _sweep_values, main
from fourwave.config import SWEEP_AXES, parse_config

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

# Sweep ranges inside the parameter domain; a vapor block holds 8 rows, so a
# sweep of up to 12 values spans a block boundary.
RANGES = {"delta1_mhz": (500.0, 1500.0), "delta2_mhz": (-60.0, 60.0),
          "rabi_mhz": (0.0, 600.0), "optical_depth": (0.0, 4500.0),
          "omega_mhz": (0.1, 5.0), "temperature_c": (60.0, 160.0)}


def csv_rows(directory, name, model, axis, start, stop, count, **point):
    out = directory / f"{name}.csv"
    ini = directory / f"{name}.ini"
    text = CONFIG.format(model=model, axis=axis, start=start, stop=stop, count=count,
                         path=out, **point)
    ini.write_text(text)
    assert main(["run", "--config", str(ini)]) == 0
    return out.read_text().splitlines(), _sweep_values(parse_config(text))


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
    count = data.draw(st.integers(2, 12))
    assert_stacked_equals_alone(tmp_path_factory.mktemp("sweep"), model, axis,
                                start, stop, count, **POINT[model])


def test_pole_row_mid_block(tmp_path):
    # no pump, no ground decay: the kernel is singular at omega = delta2 only
    point = {**POINT["cold"], "rabi_mhz": 0.0, "gamma_g_mhz": 0.0, "delta2_mhz": 2.0}
    rows = assert_stacked_equals_alone(tmp_path, "cold", "omega_mhz", 1.5, 2.5, 5, **point)
    assert [row.split(",")[-1] for row in rows] == ["", "", "pole", "", ""]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_error_row_mid_block(tmp_path):
    # at delta2 = -17.5 MHz the transfer exponential of this dense medium
    # overflows; its neighbours evaluate
    point = {**POINT["cold"], "optical_depth": 4500.0}
    rows = assert_stacked_equals_alone(tmp_path, "cold", "delta2_mhz", -22.5, -12.5, 5,
                                       **point)
    assert [row.split(",")[-1] for row in rows] == [
        "", "", "error:expm: overflow during squaring phase", "", ""]
