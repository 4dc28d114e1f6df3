"""Configuration parsing, validation and the batch CLI."""

import csv
import json
from pathlib import Path

import pytest

from fourwave.cli import main
from fourwave.config import parse_config, validate

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
    ), ids=("negative-rabi", "nan-ground-decay", "negative-depth",
            "swept-rabi-start", "swept-rabi-stop", "overflowing-rabi"))
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

    def test_vapor_domain_errors_in_config_units(self, tmp_path):
        text = vapor_config(tmp_path / "o.csv", count=2, depth=1000)
        for old, new, message in (
                ("temperature_c = 120", "temperature_c = -300",
                 "vapor.temperature_c: must be finite and > -273.15, got -300"),
                ("wavelength_nm = 795", "wavelength_nm = 0",
                 "vapor.wavelength_nm: must be finite and > 0, got 0")):
            assert old in text
            diags = validate(parse_config(text.replace(old, new)))
            assert [str(d) for d in diags] == [message]

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
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = 30\nbig_theta_deg = 45"),), False),
        ("psa", (("gain = 3", "gain = 3\ntheta_deg = abc"),), True),
        ("psa", (("gain = 3", "gain = 3\nbig_theta_deg = abc"),), True),
        ("cold", (("axis = delta2_mhz", "axis = omega_mhz"), ("start = -100", "start = nan")),
         True),
        ("cold", (("axis = delta2_mhz", "axis = omega_mhz"), ("start = -100", "start = inf")),
         True),
        ("vapor", (("omega_mhz = 1.0", "omega_mhz = nan"),), True),
        ("cold", (("omega_mhz = 1.0", "omega_mhz = 1e200"),), True),
        ("cold", (("rabi_mhz = 300", "rabi_mhz = 1e200"),), True),
        ("vapor", (("cross_section_cm2 = 1e-9", QUADRATURE.format(order=100)),), False),
        ("vapor", (("cross_section_cm2 = 1e-9", QUADRATURE.format(order=100000)),), True),
        ("chain", (), False),
        ("chain", (("n_slices = 4", "n_slices = nan"),), True),
        ("chain", (("n_slices = 4", "n_slices = inf"),), True),
        ("chain", (("n_slices = 4", "n_slices = 2.5"),), True),
        ("chain", (("n_slices = 4", "n_slices = 0"),), True),
        ("chain", (("axis = slice_transmission", "axis = n_slices"), ("start = 0.5", "start = 1"),
                   ("stop = 0.9", "stop = 5")), False),
        ("chain", (("axis = slice_transmission", "axis = n_slices"), ("start = 0.5", "start = 1"),
                   ("stop = 0.9", "stop = 4")), True),
    ), ids=("cold", "negative-rabi", "zero-linewidth", "nan-depth",
            "negative-depth", "rabi-sweep-from-negative", "vapor",
            "probe-wider-than-pump", "temperature-sweep-below-zero-kelvin",
            "nan-atomic-mass", "zero-wavelength",
            "eit", "eit-negative-control", "eit-nan-ground-decay",
            "psa", "psa-theta-not-a-number", "psa-big-theta-not-a-number",
            "omega-sweep-from-nan", "omega-sweep-from-inf", "nan-analysis-frequency",
            "overflowing-analysis-frequency", "overflowing-rabi", "velocity-order-at-bound",
            "velocity-order-above-bound", "chain", "chain-nan-slices", "chain-infinite-slices",
            "chain-fractional-slices", "chain-no-slices", "chain-whole-slice-sweep",
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


class TestReferenceOutputs:
    """The shipped configs reproduce the stored benchmark reference CSV."""

    def run_shipped(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--config", str(ROOT / "configs" / f"{name}.ini"),
                     "--out", str(out)]) == 0
        return out.read_bytes().splitlines(keepends=True)

    def test_entangled_pair_byte_identical(self, tmp_path):
        got = self.run_shipped(tmp_path, "entangled_pair")
        reference = ROOT / "benchmarks/reference/cold_omega_sweep/entangled_pair.csv"
        assert b"".join(got) == reference.read_bytes()

    def test_vapor_gain_scan_byte_identical_off_the_known_defect_rows(self, tmp_path):
        # the noise columns at delta2 = -28 ... -26 MHz run to 1e46 ... 1e120
        # and already differ from the reference in the 4th to 10th digit
        defect = (b"-28,", b"-27,", b"-26,")
        got = self.run_shipped(tmp_path, "vapor_gain_scan")
        reference = (ROOT / "benchmarks/reference/vapor_delta2_scan/"
                     "vapor_gain_scan.csv").read_bytes().splitlines(keepends=True)
        assert len(got) == len(reference) == 62
        kept = [(g, r) for g, r in zip(got, reference) if not r.startswith(defect)]
        assert len(kept) == 59
        assert all(g == r for g, r in kept)
