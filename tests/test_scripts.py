"""The shipped scripts at their defaults reproduce the benchmark reference
outputs to REFERENCE_RTOL, and their command lines take the option forms and
give the exit statuses their help states."""

import csv
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fourwave.errors import NormalizationError

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script(name: str):
    return load(ROOT / "scripts" / f"{name}.py", name)


WORKLOADS = load(ROOT / "benchmarks" / "workloads.py", "benchmark_workloads")
SCRIPTS = ("entanglement_spectrum", "qbs_two_photon_scan", "hot_cold_gain_comparison")
# tighter than the benchmark's check, as for the configs (test_config_cli's
# TestReferenceOutputs); a column printed with few digits keeps the
# benchmark's COLUMN_RTOL
REFERENCE_RTOL = 1e-10


@pytest.mark.parametrize("name, workload, output", (
    ("hot_cold_gain_comparison", "doppler_gain_scan", "hot_cold_gain.csv"),
    ("entanglement_spectrum", "noise_scripts", "entanglement_spectrum.csv"),
    ("qbs_two_photon_scan", "noise_scripts", "qbs_scan.csv"),
))
def test_defaults_match_the_reference(tmp_path, monkeypatch, name, workload, output):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name])
    script(name).main()
    with open(tmp_path / output, newline="") as fh:
        got = list(csv.reader(fh))
    with open(Path(WORKLOADS.REFERENCE_DIR) / workload / output, newline="") as fh:
        reference = list(csv.reader(fh))
    assert got[0] == reference[0]
    assert len(got) == len(reference)
    for row, ref in zip(got[1:], reference[1:]):
        for column, value, expected in zip(reference[0], row, ref):
            rtol = WORKLOADS.COLUMN_RTOL.get(column, REFERENCE_RTOL)
            assert math.isclose(float(value), float(expected), rel_tol=rtol), (column, row)


class TestCommandLine:
    # (option, unique prefix, value) off the defaults; a value may start with "-"
    OPTIONS = {
        "entanglement_spectrum": (("--fmax-mhz", "--fm", "2.5"), ("--points", "--po", "4")),
        "qbs_two_photon_scan": (("--start-mhz", "--sta", "-79.3"), ("--stop-mhz", "--sto", "-60"),
                                ("--points", "--p", "3")),
        "hot_cold_gain_comparison": (("--delta1-mhz", "--del", "-707"), ("--depth", "--dep", "40")),
    }

    @pytest.mark.parametrize("name", SCRIPTS)
    def test_option_forms_write_the_same_bytes(self, tmp_path, name):
        options = self.OPTIONS[name]
        forms = {
            "space": [word for option, _, value in options for word in (option, value)],
            "equals": [f"{option}={value}" for option, _, value in options],
            "prefix": [word for _, prefix, value in options for word in (prefix, value)],
        }
        for form, argv in {"defaults": [], **forms}.items():
            script(name).main(["--out", str(tmp_path / form), *argv])
        written = {form: (tmp_path / form).read_bytes() for form in forms}
        assert written["space"] == written["equals"] == written["prefix"]
        assert written["space"] != (tmp_path / "defaults").read_bytes()

    @pytest.mark.parametrize("flag", ("-h", "--help"))
    @pytest.mark.parametrize("name", SCRIPTS)
    def test_help_names_every_option(self, tmp_path, monkeypatch, capsys, name, flag):
        monkeypatch.chdir(tmp_path)
        module = script(name)
        assert module.main([flag]) is None
        out = capsys.readouterr().out
        assert out == module.__doc__ and "usage:" in out and "Exit status" in out
        for option, _, _ in self.OPTIONS[name]:
            assert option in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, argv, message", (
        ("entanglement_spectrum", ["--nope", "1"], "option --nope not recognized"),
        ("entanglement_spectrum", ["--points"], "option --points requires argument"),
        ("entanglement_spectrum", ["extra"], "unexpected argument 'extra'"),
        ("entanglement_spectrum", ["--fmax-mhz", "five"], "could not convert"),
        ("entanglement_spectrum", ["--points", "0"], "--points must be at least 1, got 0"),
        ("entanglement_spectrum", ["--fmax-mhz", "nan"], "--fmax-mhz must be finite"),
        ("qbs_two_photon_scan", ["--st", "-50"], "not a unique prefix"),
        ("qbs_two_photon_scan", ["--stop-mhz"], "option --stop-mhz requires argument"),
        ("qbs_two_photon_scan", ["--points", "5", "6"], "unexpected argument '6'"),
        ("qbs_two_photon_scan", ["--points", "2.5"], "invalid literal for int()"),
        ("qbs_two_photon_scan", ["--points=0"], "--points must be at least 1, got 0"),
        ("hot_cold_gain_comparison", ["--points", "5"], "option --points not recognized"),
        ("hot_cold_gain_comparison", ["--depth"], "option --depth requires argument"),
        ("hot_cold_gain_comparison", ["--", "extra"], "unexpected argument 'extra'"),
        ("hot_cold_gain_comparison", ["--delta1-mhz="], "could not convert"),
    ), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                     name, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            script(name).main(["--out", "out.csv", *argv])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and message in err, err
        assert err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, argv, message", (
        ("hot_cold_gain_comparison", ["--depth", "-1"],
         "MediumParams: optical_depth must be finite and >= 0, got -1.0"),
        ("qbs_two_photon_scan", ["--start-mhz", "nan"], "AtomParams: delta2 must be finite, got nan"),
        ("entanglement_spectrum", [], "no reference gain"),
    ), ids=("hot_cold_gain_comparison", "qbs_two_photon_scan", "entanglement_spectrum"))
    def test_library_error_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                      name, argv, message):
        # the entanglement point has fixed parameters and evaluate accepts
        # every finite frequency: its library error is substituted
        module = script(name)

        def fail(*args, **kwargs):
            raise NormalizationError(message)
        if not argv:
            monkeypatch.setattr(module, "evaluate", fail)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            module.main(["--out", "out.csv", *argv])
        assert exit_.value.code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", SCRIPTS)
    def test_unwritable_output_exits_1(self, tmp_path, capsys, name):
        out = tmp_path / "missing" / "out.csv"
        with pytest.raises(SystemExit) as exit_:
            script(name).main(["--out", str(out)])
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1

    @pytest.mark.parametrize("name, argv, code", (
        ("entanglement_spectrum", ["--help"], 0),
        ("qbs_two_photon_scan", ["--points", "0"], 2),
        ("hot_cold_gain_comparison", ["--depth", "-1"], 1),
    ))
    def test_exit_status_of_a_script_run(self, tmp_path, name, argv, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *argv],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == code
        assert "Traceback" not in run.stderr
        assert run.stderr.count("\n") == (0 if code == 0 else 1)
        assert list(tmp_path.iterdir()) == []
