"""Configuration parsing, validation and the batch CLI."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

import fourwave
from fourwave.cli import main
from fourwave.config import PARAMETER_KEYS, SWEEP_COUNT_LIMIT, parse_config, validate

COLD_TEMPLATE = """
[run]
model = cold
seed = {seed}
langevin = {langevin}
omega_mhz = 1.0

[atom]
gamma_e_mhz = 5.75
gamma_g_mhz = 0.01
omega0_mhz = 3036
delta1_mhz = 1000
delta2_mhz = 0
rabi_mhz = 300

[medium]
optical_depth = {depth}

[sweep]
axis = {axis}
start = {start}
stop = {stop}
count = {count}

[output]
path = {path}
format = {fmt}
"""


def cold_config(path, axis="delta2_mhz", start=-100, stop=100, count=41,
                depth=150, seed=7, langevin="on", fmt="csv"):
    return COLD_TEMPLATE.format(path=path, axis=axis, start=start, stop=stop,
                                count=count, depth=depth, seed=seed,
                                langevin=langevin, fmt=fmt)


REFERENCE_CONFIG = """
[run]
model = reference
seed = 1

[reference]
kind = pia
gain = 3

[sweep]
axis = gain
start = 3
stop = 3
count = 1

[output]
path = {path}
format = csv
"""

CHAIN_CONFIG = """
[run]
model = reference
seed = 1

[reference]
kind = chain
slice_gain = 1.2
slice_transmission = 0.9
n_slices = 4

[sweep]
axis = slice_transmission
start = -0.5
stop = 0.5
count = 3

[output]
path = {path}
format = csv
"""

# the chain's slice transmissions from 0.5 to 0.9
TRANSMISSIONS = (("start = -0.5", "start = 0.5"), ("stop = 0.5", "stop = 0.9"))

EIT_CONFIG = """
[run]
model = eit
seed = 1

[eit]
gamma_e_mhz = 5.75
gamma_g_mhz = 0
delta1_mhz = 0
rabi_c_mhz = 5.75

[sweep]
axis = delta2_mhz
start = -20
stop = 20
count = 81

[output]
path = {path}
format = csv
"""


VAPOR_BLOCK = """
[vapor]
temperature_c = 120
atomic_mass_u = 85
wavelength_nm = 795
pump_waist_um = 600
probe_waist_um = 300
cell_length_mm = 12.5
cross_section_cm2 = 1e-9
"""


QUADRATURE = """cross_section_cm2 = 1e-9

[quadrature]
velocity_order = {order}"""


def vapor_config(path, **kwargs):
    return cold_config(path, **kwargs).replace("model = cold",
                                               "model = vapor") + VAPOR_BLOCK


ROOT = Path(__file__).resolve().parents[1]


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestValidation:
    def test_valid_config_has_no_diagnostics(self, tmp_path):
        cfg = parse_config(cold_config(tmp_path / "o.csv"))
        assert validate(cfg) == []

    def test_missing_linewidth_reported_with_key_path(self, tmp_path):
        text = cold_config(tmp_path / "o.csv").replace("gamma_e_mhz = 5.75\n", "")
        diags = validate(parse_config(text))
        assert len(diags) == 1
        assert diags[0].key == "atom.gamma_e_mhz"

    def test_negative_count_reported(self, tmp_path):
        diags = validate(parse_config(cold_config(tmp_path / "o.csv", count=-3)))
        assert any(d.key == "sweep.count" for d in diags)

    def test_count_bounded_by_the_limit(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(tmp_path / "o.csv", count=SWEEP_COUNT_LIMIT))
        assert main(["validate", "--config", str(ini)]) == 0
        ini.write_text(cold_config(tmp_path / "o.csv", count=SWEEP_COUNT_LIMIT + 1))
        assert main(["validate", "--config", str(ini)]) == 2
        assert capsys.readouterr().out == (f"sweep.count: must be from 1 to {SWEEP_COUNT_LIMIT}, "
                                           f"got {SWEEP_COUNT_LIMIT + 1}\n")

    def test_wrong_axis_for_model(self, tmp_path):
        diags = validate(parse_config(cold_config(tmp_path / "o.csv",
                                      axis="temperature_c")))
        assert any(d.key == "sweep.axis" for d in diags)

    def test_unknown_model(self):
        diags = validate(parse_config("[run]\nmodel = warm\n"))
        assert diags[0].key == "run.model"

    def test_reference_axis_must_match_kind(self, tmp_path):
        text = REFERENCE_CONFIG.format(path=tmp_path / "o.csv")
        text = text.replace("axis = gain", "axis = slice_gain")
        diags = validate(parse_config(text))
        assert any(d.key == "sweep.axis" for d in diags)

    def test_psa_angles_must_be_finite(self, tmp_path):
        # an infinite angle once passed validate and made run raise from math.cos
        text = REFERENCE_CONFIG.format(path=tmp_path / "o.csv").replace(
            "kind = pia", "kind = psa\ntheta_deg = inf\nbig_theta_deg = 1e400")
        assert [str(d) for d in validate(parse_config(text))] == [
            "reference.theta_deg: must be finite, got inf",
            "reference.big_theta_deg: must be finite, got 1e400"]

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = tmp_path / "good.ini"
        good.write_text(cold_config(tmp_path / "o.csv"))
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.ini"
        bad.write_text(cold_config(tmp_path / "o.csv", count=0))
        assert main(["validate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ("run", "validate"))
    def test_non_integer_seed_is_a_read_error(self, tmp_path, capsys, command):
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(tmp_path / "o.csv", seed="abc"))
        assert main([command, "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err
        assert "run.seed" in err

    @pytest.mark.parametrize("command", ("run", "validate"))
    def test_unknown_langevin_value_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, langevin="of"))
        assert main([command, "--config", str(ini)]) == 2
        assert "run.langevin: must be on or off" in "".join(capsys.readouterr())
        assert not out.exists()

    @pytest.mark.parametrize("spelling, on", (
        ("on", True), ("On", True), ("TRUE", True), ("yes", True), ("1", True),
        ("off", False), ("Off", False), ("false", False), ("NO", False), ("0", False)))
    def test_langevin_takes_the_configparser_booleans(self, spelling, on):
        cfg = parse_config(cold_config("o.csv", langevin=spelling))
        assert cfg.langevin is on
        assert validate(cfg) == []

    @pytest.mark.parametrize("command", ("run", "validate"))
    def test_config_not_utf8_is_a_read_error(self, tmp_path, capsys, command):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(b"\xff\xfe[run]\n")
        assert main([command, "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("cannot read config: 'utf-8' codec can't decode")

    def test_percent_sign_in_a_value_is_literal(self, tmp_path):
        out = tmp_path / "out%.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, count=2))
        assert main(["validate", "--config", str(ini)]) == 0
        assert main(["run", "--config", str(ini)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("edits, message", (
        ((("rabi_mhz = 300", "rabi_mhz = -5"),), "atom.rabi_mhz: must be >= 0, got -5"),
        ((("gamma_g_mhz = 0.01", "gamma_g_mhz = nan"),),
         "atom.gamma_g_mhz: must be finite, got nan"),
        ((("optical_depth = 150", "optical_depth = -1.5"),),
         "medium.optical_depth: must be finite and >= 0, got -1.5"),
        ((("axis = delta2_mhz", "axis = rabi_mhz"), ("start = -100", "start = -5")),
         "atom.rabi_mhz: must be >= 0, got -5 (at rabi_mhz = -5)"),
        ((("axis = delta2_mhz", "axis = rabi_mhz"), ("start = -100", "start = 10"),
          ("stop = 100", "stop = -2.5")),
         "atom.rabi_mhz: must be >= 0, got -2.5 (at rabi_mhz = -2.5)"),
        ((("rabi_mhz = 300", "rabi_mhz = 1e200"),),
         "atom.rabi_mhz: must be at most 1e+12 rad/us in magnitude, got 1e200"),
        ((("optical_depth = 150", "optical_depth = 1e300"),),
         "medium.optical_depth: must be at most 1e+100, got 1e300"),
    ), ids=("negative-rabi", "nan-ground-decay", "negative-depth",
            "swept-rabi-start", "swept-rabi-stop", "overflowing-rabi", "huge-depth"))
    def test_domain_error_names_key_and_value_as_written(self, tmp_path, capsys,
                                                          edits, message):
        text = cold_config(tmp_path / "o.csv")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        assert [str(d) for d in validate(parse_config(text))] == [message]
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        assert main(["validate", "--config", str(ini)]) == 2
        assert capsys.readouterr().out == message + "\n"

    @pytest.mark.parametrize("model, section, key", [
        (model, section, key) for model, sections in (("cold", ("atom", "medium")),
                                                      ("vapor", ("atom", "medium", "vapor")),
                                                      ("eit", ("eit",)))
        for section in sections for key in PARAMETER_KEYS[section] if key != "delta2_mhz"])
    def test_every_parameter_key_named_by_its_diagnostic(self, model, section, key):
        text = {"cold": cold_config("o.csv"), "vapor": vapor_config("o.csv"),
                "eit": EIT_CONFIG.format(path="o.csv")}[model]
        assert f"\n{key} = " in text
        text = "\n".join(f"{key} = nan" if line.startswith(f"{key} =") else line
                         for line in text.splitlines())
        diags = [str(d) for d in validate(parse_config(text))]
        assert len(diags) == 1
        assert diags[0].startswith(f"{section}.{key}: must be ")
        assert diags[0].endswith(", got nan")

    @pytest.mark.parametrize("text, message", (
        (EIT_CONFIG.format(path="o.csv").replace("rabi_c_mhz = 5.75", "rabi_c_mhz = -1"),
         "eit.rabi_c_mhz: must be >= 0, got -1"),
        (EIT_CONFIG.format(path="o.csv").replace("gamma_g_mhz = 0", "gamma_g_mhz = nan"),
         "eit.gamma_g_mhz: must be finite, got nan"),
        (cold_config("o.csv", axis="optical_depth", start=-5),
         "medium.optical_depth: must be finite and >= 0, got -5 (at optical_depth = -5)"),
        (vapor_config("o.csv", axis="temperature_c", start=-300),
         "vapor.temperature_c: must be finite and > -273.15, got -300 (at temperature_c = -300)"),
        (cold_config("o.csv", axis="delta1_mhz", start=1e300),
         "atom.delta1_mhz: must be at most 1e+12 rad/us in magnitude, got 1e+300 "
         "(at delta1_mhz = 1e+300)"),
    ), ids=("eit-negative-rabi", "eit-nan-ground-decay", "swept-depth", "swept-temperature",
            "swept-overflowing-delta1"))
    def test_parameter_diagnostic_text(self, text, message):
        assert [str(d) for d in validate(parse_config(text))] == [message]

    def test_vapor_domain_errors_in_config_units(self, tmp_path):
        text = vapor_config(tmp_path / "o.csv", count=2, depth=1000)
        for old, new, message in (
                ("temperature_c = 120", "temperature_c = -300",
                 "vapor.temperature_c: must be finite and > -273.15, got -300"),
                ("wavelength_nm = 795", "wavelength_nm = 0",
                 "vapor.wavelength_nm: must be finite and > 0, got 0"),
                ("temperature_c = 120", "temperature_c = 1e300",
                 "vapor.temperature_c: must keep atom.delta1_mhz plus the Doppler shift of "
                 "each of the 40 velocity nodes at most 1e+12 rad/us in magnitude, got 1e300")):
            assert old in text
            diags = validate(parse_config(text.replace(old, new)))
            assert [str(d) for d in diags] == [message]

    @pytest.mark.parametrize("command, stream, prefix", (
        ("validate", "out", ""), ("run", "err", "config error at ")))
    def test_velocity_order_other_than_the_fixed_node_count(self, tmp_path, capsys,
                                                            command, stream, prefix):
        out = tmp_path / "o.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(vapor_config(out, count=2, depth=1000).replace(
            "cross_section_cm2 = 1e-9", QUADRATURE.format(order=80)))
        assert main([command, "--config", str(ini)]) == 2
        assert getattr(capsys.readouterr(), stream) == (
            f"{prefix}quadrature.velocity_order: must be 40, the fixed node count, got 80\n")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", (
        ("pump_waist_um = 600", "pump_waist_um = inf",
         "vapor.pump_waist_um: must be finite and > 0, got inf"),
        ("probe_waist_um = 300", "probe_waist_um = nan",
         "vapor.probe_waist_um: must be finite and > 0, got nan"),
        ("probe_waist_um = 300", "probe_waist_um = 900",
         "vapor.pump_waist_um: must be > vapor.probe_waist_um = 900, got 600"),
    ), ids=("infinite-pump-waist", "nan-probe-waist", "probe-wider-than-pump"))
    def test_vapor_waists_in_config_terms(self, tmp_path, old, new, message):
        text = vapor_config(tmp_path / "o.csv", count=2, depth=1000)
        assert old in text
        ini = tmp_path / "cfg.ini"
        ini.write_text(text.replace(old, new))
        assert [str(d) for d in validate(parse_config(ini.read_text()))] == [message]
        assert main(["run", "--config", str(ini)]) == 2

    @pytest.mark.parametrize("model, axis, count, built", (
        ("cold", "omega_mhz", 41, 1), ("cold", "delta2_mhz", 41, 2), ("cold", "delta2_mhz", 1, 1),
        ("vapor", "omega_mhz", 41, 1), ("vapor", "temperature_c", 41, 2)))
    def test_validate_builds_one_atom_per_sweep_point(self, monkeypatch, model, axis, count,
                                                       built):
        import fourwave.atom
        calls = []

        class Counted(fourwave.atom.AtomParams):
            def __post_init__(self):
                calls.append(self)
                super().__post_init__()
        monkeypatch.setattr(fourwave.atom, "AtomParams", Counted)
        start, stop = {"omega_mhz": (0.5, 5), "delta2_mhz": (-100, 100),
                       "temperature_c": (60, 160)}[axis]
        text = (cold_config if model == "cold" else vapor_config)(
            "o.csv", axis=axis, start=start, stop=stop, count=count)
        assert validate(parse_config(text)) == []
        assert len(calls) == built

    @pytest.mark.parametrize("model, edits, rejected", (
        ("cold", (), False),
        ("cold", (("rabi_mhz = 300", "rabi_mhz = -5"),), True),
        ("cold", (("gamma_e_mhz = 5.75", "gamma_e_mhz = 0"),), True),
        ("cold", (("optical_depth = 150", "optical_depth = nan"),), True),
        ("cold", (("optical_depth = 150", "optical_depth = -1"),), True),
        ("cold", (("axis = delta2_mhz", "axis = rabi_mhz"),
                  ("start = -100", "start = -5")), True),
        ("vapor", (), False),
        ("vapor", (("probe_waist_um = 300", "probe_waist_um = 900"),), True),
        ("vapor", (("axis = delta2_mhz", "axis = temperature_c"),
                   ("start = -100", "start = -300")), True),
        ("vapor", (("atomic_mass_u = 85", "atomic_mass_u = nan"),), True),
        ("vapor", (("wavelength_nm = 795", "wavelength_nm = 0"),), True),
        ("eit", (), False),
        ("eit", (("rabi_c_mhz = 5.75", "rabi_c_mhz = -1"),), True),
        ("eit", (("gamma_g_mhz = 0", "gamma_g_mhz = nan"),), True),
        ("eit", (("rabi_c_mhz = 5.75", "rabi_c_mhz = 1e200"),), True),
        ("eit", (("stop = 20", "stop = 1e300"),), True),
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = 30\nbig_theta_deg = 45"),), False),
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = abc"),), True),
        ("psa", (("gain = 3", "gain = 3\nbig_theta_deg = abc"),), True),
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = inf"),), True),
        ("psa", (("gain = 3", "gain = 3\nbig_theta_deg = inf"),), True),
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = nan"),), True),
        ("cold", (("axis = delta2_mhz", "axis = omega_mhz"), ("start = -100", "start = nan")),
         True),
        ("cold", (("axis = delta2_mhz", "axis = omega_mhz"), ("start = -100", "start = inf")),
         True),
        ("vapor", (("omega_mhz = 1.0", "omega_mhz = nan"),), True),
        ("cold", (("omega_mhz = 1.0", "omega_mhz = 1e200"),), True),
        ("cold", (("rabi_mhz = 300", "rabi_mhz = 1e200"),), True),
        ("cold", (("gamma_e_mhz = 5.75", "gamma_e_mhz = 1e11"),
                  ("optical_depth = 150", "optical_depth = 1e300")), True),
        ("vapor", (("temperature_c = 120", "temperature_c = 1e300"),), True),
        ("vapor", (("axis = delta2_mhz", "axis = temperature_c"), ("start = -100", "start = 20"),
                   ("stop = 100", "stop = 1e300")), True),
        ("vapor", (("cross_section_cm2 = 1e-9", QUADRATURE.format(order=40)),), False),
        ("vapor", (("cross_section_cm2 = 1e-9", QUADRATURE.format(order=80)),), True),
        ("vapor", (("cross_section_cm2 = 1e-9", QUADRATURE.format(order=100000)),), True),
        ("chain", (), False),
        ("chain", (("n_slices = 4", "n_slices = nan"),), True),
        ("chain", (("n_slices = 4", "n_slices = inf"),), True),
        ("chain", (("n_slices = 4", "n_slices = 2.5"),), True),
        ("chain", (("n_slices = 4", "n_slices = 0"),), True),
        # accepted since the chain is a matrix power; one whose rows stay finite
        ("chain", (("n_slices = 4", "n_slices = 1000001"), ("slice_gain = 1.2", "slice_gain = 1"),
                   ("start = 0.5", "start = 0.9999999"), ("stop = 0.9", "stop = 1")), False),
        ("chain", (("axis = slice_transmission", "axis = n_slices"), ("start = 0.5", "start = 1"),
                   ("stop = 0.9", "stop = 5")), False),
        ("chain", (("axis = slice_transmission", "axis = n_slices"), ("start = 0.5", "start = 1"),
                   ("stop = 0.9", "stop = 4")), True),
    ), ids=("cold", "negative-rabi", "zero-linewidth", "nan-depth",
            "negative-depth", "rabi-sweep-from-negative", "vapor",
            "probe-wider-than-pump", "temperature-sweep-below-zero-kelvin",
            "nan-atomic-mass", "zero-wavelength",
            "eit", "eit-negative-control", "eit-nan-ground-decay", "eit-overflowing-control",
            "eit-detuning-sweep-beyond-frequency-limit",
            "psa", "psa-theta-not-a-number", "psa-big-theta-not-a-number", "psa-inf-theta",
            "psa-inf-big-theta", "psa-nan-theta",
            "omega-sweep-from-nan", "omega-sweep-from-inf", "nan-analysis-frequency",
            "overflowing-analysis-frequency", "overflowing-rabi", "overflowing-generator-prefactor",
            "doppler-shift-beyond-frequency-limit", "temperature-sweep-to-doppler-overflow",
            "velocity-order-fixed", "velocity-order-80",
            "velocity-order-100000", "chain", "chain-nan-slices", "chain-infinite-slices",
            "chain-fractional-slices", "chain-no-slices", "chain-too-many-slices",
            "chain-whole-slice-sweep",
            "chain-fractional-slice-sweep"))
    def test_validate_rejects_exactly_what_run_rejects(self, tmp_path, model,
                                                       edits, rejected):
        out = tmp_path / "o.csv"
        text = {"cold": cold_config(out, count=2),
                "vapor": vapor_config(out, count=2, depth=1000),
                "eit": EIT_CONFIG.format(path=out).replace("count = 81", "count = 2"),
                "psa": REFERENCE_CONFIG.format(path=out).replace("kind = pia", "kind = psa"),
                "chain": CHAIN_CONFIG.format(path=out).replace("start = -0.5", "start = 0.5")
                                                      .replace("stop = 0.5", "stop = 0.9"),
                }[model]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        assert main(["validate", "--config", str(ini)]) == (2 if rejected else 0)
        assert main(["run", "--config", str(ini)]) == (2 if rejected else 0)
        if not rejected:
            assert "error:" not in out.read_text()


class TestRun:
    def test_two_photon_scan_shows_raman_dip_and_mixing_peak(self, tmp_path):
        out = tmp_path / "fig.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, start=-60, stop=60, count=61,
                                   langevin="off"))
        assert main(["run", "--config", str(ini)]) == 0
        _, rows = read_rows(out)
        ga = [float(r["Ga"]) for r in rows]
        assert min(ga) < 0.8
        assert max(ga) > 1.01

    def test_single_point_transparent_medium(self, tmp_path):
        out = tmp_path / "one.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, axis="omega_mhz", start=1, stop=1,
                                   count=1, depth=0))
        assert main(["run", "--config", str(ini)]) == 0
        header, rows = read_rows(out)
        row = rows[0]
        assert float(row["Ga"]) == 1.0
        assert float(row["Gb"]) == 0.0
        for col in ("S_Nminus", "S_phiplus", "inseparability", "S_Na"):
            assert float(row[col]) == pytest.approx(1.0, abs=1e-9)
        assert "prepared_fraction" not in header

    def test_reference_pia_row(self, tmp_path):
        out = tmp_path / "ref.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(REFERENCE_CONFIG.format(path=out))
        assert main(["reference", "--config", str(ini)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0]["S_Nminus"]) == pytest.approx(0.2, abs=1e-12)
        assert float(rows[0]["Ga"]) == 3.0

    def test_unwritable_output_is_reported_not_raised(self, tmp_path, capsys):
        out = tmp_path / "missing" / "ref.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(REFERENCE_CONFIG.format(path=out))
        assert main(["run", "--config", str(ini)]) == 1
        assert capsys.readouterr().err == (f"run failed: cannot write {out}: "
                                           "No such file or directory\n")
        assert not out.parent.exists()

    def test_reference_subcommand_rejects_other_models(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(tmp_path / "o.csv"))
        assert main(["reference", "--config", str(ini)]) == 2

    def test_eit_scan_transparency_point(self, tmp_path):
        out = tmp_path / "eit.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(EIT_CONFIG.format(path=out))
        assert main(["run", "--config", str(ini)]) == 0
        header, rows = read_rows(out)
        assert header[0] == "sweep_value[delta2_mhz]"
        centre = rows[40]
        assert float(centre[header[0]]) == 0.0
        assert abs(float(centre["chi_im"])) < 1e-12

    def test_eit_run_builds_its_parameters_once(self, tmp_path, monkeypatch):
        # one LambdaParams in validate and one for all 81 rows, not one per row
        from fourwave import eit
        built = []

        class Counted(eit.LambdaParams):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()
        monkeypatch.setattr(eit, "LambdaParams", Counted)
        ini = tmp_path / "cfg.ini"
        ini.write_text(EIT_CONFIG.format(path=tmp_path / "eit.csv"))
        assert main(["run", "--config", str(ini)]) == 0
        assert len(read_rows(tmp_path / "eit.csv")[1]) == 81
        assert 1 <= len(built) <= 2

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(tmp_path / "o.csv", count=0))
        assert main(["run", "--config", str(ini)]) == 2
        assert "sweep.count" in capsys.readouterr().err

    def test_malformed_text_reports_parse_location(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run\nmodel = cold\n")     # unclosed section header
        assert main(["run", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err
        assert "line" in err.lower()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out1, count=11))
        assert main(["run", "--config", str(ini)]) == 0
        assert main(["run", "--config", str(ini), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirrors_csv_schema(self, tmp_path):
        csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(csv_out, count=5))
        assert main(["run", "--config", str(ini)]) == 0
        assert main(["run", "--config", str(ini), "--out", str(json_out),
                     "--format", "json"]) == 0
        header, rows = read_rows(csv_out)
        payload = json.loads(json_out.read_text())
        assert payload["schema"]["columns"] == header
        assert len(payload["rows"]) == len(rows)
        assert payload["rows"][0][header.index("Ga")] == pytest.approx(
            float(rows[0]["Ga"]), rel=1e-12)

    @pytest.mark.parametrize("name", ("entangled_pair", "vapor_gain_scan"))
    def test_json_meta_holds_provenance(self, tmp_path, name):
        config = ROOT / "configs" / f"{name}.ini"
        out = tmp_path / "out.json"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["version"] == fourwave.__version__
        assert meta["config_sha256"] == hashlib.sha256(config.read_bytes()).hexdigest()
        assert meta.get("velocity_order") == (40 if name == "vapor_gain_scan" else None)

    def test_db_flag_adds_decibel_columns(self, tmp_path):
        out = tmp_path / "db.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, count=3))
        assert main(["run", "--config", str(ini), "--db"]) == 0
        header, rows = read_rows(out)
        assert "S_Nminus_db" in header
        import math
        for row in rows:
            lin, db = float(row["S_Nminus"]), float(row["S_Nminus_db"])
            assert db == pytest.approx(10 * math.log10(lin), abs=1e-9)

    def test_pole_rows_flagged_and_exit_zero(self, tmp_path):
        # no pump and no ground decay: the ground-coherence response is
        # singular exactly at omega = delta2 (here 1 MHz)
        out = tmp_path / "pole.csv"
        text = cold_config(out, axis="omega_mhz", start=0.5, stop=1.5, count=3,
                           langevin="off")
        text = text.replace("rabi_mhz = 300", "rabi_mhz = 0")
        text = text.replace("gamma_g_mhz = 0.01", "gamma_g_mhz = 0")
        text = text.replace("delta2_mhz = 0", "delta2_mhz = 1")
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        assert main(["run", "--config", str(ini)]) == 0
        _, rows = read_rows(out)
        assert rows[1]["flag"] == "pole"
        assert rows[1]["Ga"] == ""
        assert rows[0]["flag"] == ""
        assert rows[2]["flag"] == ""

    def test_csv_line_endings_lf(self, tmp_path):
        out = tmp_path / "o.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(cold_config(out, count=3))
        main(["run", "--config", str(ini)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_error_rows_with_commas_keep_csv_rectangular(self, tmp_path):
        out = tmp_path / "chain.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text(CHAIN_CONFIG.format(path=out))
        assert main(["run", "--config", str(ini)]) == 0
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [len(header)] * 3
        assert rows[0][-1].startswith("error:slice_transmission")
        assert rows[2][-1] == ""


    @pytest.mark.parametrize("template, edits, flag", (
        # the total gain underflowed to 0: a ZeroDivisionError traceback
        (CHAIN_CONFIG, (("slice_gain = 1.2", "slice_gain = 1"),
                        ("n_slices = 4", "n_slices = 10000"), *TRANSMISSIONS),
         "error:sliced_amp_loss: total gain 0.0 is not > 0"),
        # the chain overflowed: rows 0.5,inf,inf,nan with an empty flag
        (CHAIN_CONFIG, (("n_slices = 4", "n_slices = 100000"), *TRANSMISSIONS),
         "error:non-finite Ga"),
        # NaN rows with an empty flag
        (CHAIN_CONFIG, (("slice_gain = 1.2", "slice_gain = inf"), *TRANSMISSIONS),
         "error:slice_gain must be finite, got inf"),
        # inf,nan with an empty flag
        (REFERENCE_CONFIG, (("kind = pia", "kind = psa"), ("start = 3", "start = 1e300"),
                            ("stop = 3", "stop = 1e300")), "error:non-finite psa_gain"),
        # a vanishing amplification is a pole, not error:psa_noise: vanishing amplification
        (REFERENCE_CONFIG, (("kind = pia", "kind = psa\ntheta_deg = 180"),
                            ("start = 3", "start = 1e8"), ("stop = 3", "stop = 1e8")), "pole"),
    ), ids=("chain-underflow", "chain-overflow", "chain-infinite-gain", "psa-overflow",
            "psa-pole"))
    def test_reference_blow_up_is_a_flagged_row(self, tmp_path, capsys, template, edits, flag):
        out, ini = tmp_path / "o.csv", tmp_path / "cfg.ini"
        text = template.format(path=out)
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        ini.write_text(text)
        assert main(["validate", "--config", str(ini)]) == 0
        assert main(["reference", "--config", str(ini)]) == 0
        assert capsys.readouterr().err == ""
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(row[1:] == [""] * (len(header) - 2) + [flag] for row in rows)

    def test_chain_of_1e300_slices_runs_at_once(self, tmp_path):
        out, ini = tmp_path / "o.csv", tmp_path / "cfg.ini"
        ini.write_text(CHAIN_CONFIG.format(path=out).replace("slice_gain = 1.2", "slice_gain = 1")
                       .replace("slice_transmission = 0.9", "slice_transmission = 1")
                       .replace("n_slices = 4", "n_slices = 1e300")
                       .replace("axis = slice_transmission", "axis = slice_gain")
                       .replace("start = -0.5", "start = 1").replace("stop = 0.5", "stop = 1"))
        assert main(["validate", "--config", str(ini)]) == 0
        assert main(["run", "--config", str(ini)]) == 0
        _, rows = read_rows(out)
        assert [(row["Ga"], row["Gb"], row["S_Nminus"], row["flag"]) for row in rows] \
            == [("1", "0", "1", "")] * 3


class TestCommandLine:
    @pytest.mark.parametrize("argv", (
        [], ["sweep", "--config", "{ini}"], ["run", "validate", "--config", "{ini}"],
        ["run", "--out", "{out}"], ["run", "--config", "{ini}", "--out"],
        ["run", "--config", "{ini}", "--out", "--db"], ["run", "--config"],
        ["run", "--config", "{ini}", "--out", "{out}", "--seed", "3"],
        ["run", "--config", "{ini}", "--out", "{out}", "-x"],
        ["run", "--config", "{ini}", "--out", "{out}", "--format", "xml"],
        ["run", "--config", "{ini}", "--out", "{out}", "--db=yes"],
        ["validate", "--config", "{ini}", "--out", "{out}"],
        ["validate", "--config", "{ini}", "--format", "csv"],
        ["validate", "--config", "{ini}", "--db"],
        ["--config", "{ini}", "run"], ["run", "--config", "{ini}", "--out", "--conf"],
        ["run", "--config", "{ini}", "--out", "-h"], ["run", "--config", "{ini}", "extra"],
    ), ids=("no-command", "unknown-command", "two-commands", "missing-config",
            "missing-out-value", "option-as-out-value", "missing-config-value",
            "unknown-option", "unknown-short-option", "bad-format", "flag-with-value",
            "validate-out", "validate-format", "validate-db", "option-before-command",
            "option-prefix-as-out-value", "help-as-out-value", "extra-word"))
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        ini, out, default = tmp_path / "cfg.ini", tmp_path / "out.csv", tmp_path / "o.csv"
        ini.write_text(cold_config(default, count=2))
        assert main([a.format(ini=ini, out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fourwave ")
        assert "\nfourwave: error: " in captured.err
        assert not out.exists() and not default.exists()

    @pytest.mark.parametrize("argv", (["-h"], ["--help"], ["validate", "-h"]))
    def test_help_names_every_command_and_option(self, capsys, argv):
        assert main(argv) == 0
        help_text = capsys.readouterr().out
        for word in ("run", "validate", "reference", "--config", "--out", "--format", "--db"):
            assert word in help_text

    def test_option_forms_argparse_took(self, tmp_path, monkeypatch):
        ini, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        ini.write_text(cold_config(tmp_path / "o.csv", count=2))
        assert main(["run", "--conf", str(ini), f"--out={out}", "--d"]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2 and "S_Nminus_db" in rows[0]
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(ini), "--out", "-"]) == 0
        assert main(["run", "--config", str(ini), "--out=-x.csv"]) == 0
        assert read_rows(tmp_path / "-") == read_rows(tmp_path / "-x.csv")
        assert len(read_rows(tmp_path / "-")[1]) == 2

    def test_posixly_correct_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
        ini, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
        ini.write_text(cold_config(tmp_path / "o.csv", count=2))
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == 2


class TestVaporModel:
    def test_vapor_sweep_has_prepared_fraction(self, tmp_path):
        out = tmp_path / "vap.csv"
        text = vapor_config(out, axis="rabi_mhz", start=250, stop=350, count=3,
                            depth=1000)
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        assert main(["run", "--config", str(ini)]) == 0
        header, rows = read_rows(out)
        assert "prepared_fraction" in header
        for row in rows:
            assert 0 < float(row["prepared_fraction"]) <= 1
            assert float(row["Ga"]) > 0


    def test_one_photon_detuning_near_the_frequency_limit(self, tmp_path):
        # the M0 eigenvalue round-off there once flagged every row unstable
        text = (ROOT / "configs" / "vapor_gain_scan.ini").read_text()
        ini, out = tmp_path / "far.ini", tmp_path / "far.csv"
        ini.write_text(text.replace("delta1_mhz = 800", "delta1_mhz = 1.5913e11"))
        assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 61
        assert all(row["flag"] == "" for row in rows)


class TestReferenceOutputs:
    """The shipped configs reproduce the stored benchmark reference CSV: the
    header, sweep values and flags exactly, every other cell to
    REFERENCE_RTOL."""

    # The references were written with a LAPACK inverse of M1'; the closed
    # form rounds differently, and moves printed digits by up to 9.6e-12.
    REFERENCE_RTOL = 1e-10

    def run_shipped(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--config", str(ROOT / "configs" / f"{name}.ini"),
                     "--out", str(out)]) == 0
        return list(csv.reader(out.open()))

    def assert_matches(self, got, reference):
        assert got[0] == reference[0]
        for g, r in zip(got[1:], reference[1:]):
            assert (len(g), g[0], g[-1]) == (len(r), r[0], r[-1])
            for x, y in zip(g[1:-1], r[1:-1]):
                close = x == y if "" in (x, y) else math.isclose(float(x), float(y),
                                                                 rel_tol=self.REFERENCE_RTOL)
                assert close, (r[0], x, y)

    def test_entangled_pair_matches(self, tmp_path):
        got = self.run_shipped(tmp_path, "entangled_pair")
        reference = ROOT / "benchmarks/reference/cold_omega_sweep/entangled_pair.csv"
        reference = list(csv.reader(reference.open()))
        assert len(got) == len(reference) == 51
        self.assert_matches(got, reference)

    def test_vapor_gain_scan_matches_off_the_known_defect_rows(self, tmp_path):
        # the noise columns at delta2 = -28 ... -26 MHz run to 1e46 ... 1e120
        # and already differ from the reference in the 4th to 10th digit
        got = self.run_shipped(tmp_path, "vapor_gain_scan")
        reference = list(csv.reader((ROOT / "benchmarks/reference/vapor_delta2_scan/"
                                     "vapor_gain_scan.csv").open()))
        assert len(got) == len(reference) == 62
        kept = [(g, r) for g, r in zip(got, reference) if r[0] not in ("-28", "-27", "-26")]
        assert len(kept) == 59
        self.assert_matches(*zip(*kept))
