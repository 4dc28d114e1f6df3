"""The shipped scripts at their defaults reproduce the benchmark reference
outputs within the benchmark's tolerances."""

import csv
import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load(ROOT / "benchmarks" / "workloads.py", "benchmark_workloads")


@pytest.mark.parametrize("script, workload, output", (
    ("hot_cold_gain_comparison", "doppler_gain_scan", "hot_cold_gain.csv"),
    ("entanglement_spectrum", "noise_scripts", "entanglement_spectrum.csv"),
    ("qbs_two_photon_scan", "noise_scripts", "qbs_scan.csv"),
))
def test_defaults_match_the_reference(tmp_path, monkeypatch, script, workload, output):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    load(ROOT / "scripts" / f"{script}.py", script).main()
    with open(tmp_path / output, newline="") as fh:
        got = list(csv.reader(fh))
    with open(Path(WORKLOADS.REFERENCE_DIR) / workload / output, newline="") as fh:
        reference = list(csv.reader(fh))
    assert got[0] == reference[0]
    assert len(got) == len(reference)
    for row, ref in zip(got[1:], reference[1:]):
        for column, value, expected in zip(reference[0], row, ref):
            rtol = WORKLOADS.COLUMN_RTOL.get(column, WORKLOADS.REFERENCE_RTOL)
            assert math.isclose(float(value), float(expected), rel_tol=rtol), (column, row)
