"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q benchmarks/test_bench.py

Every workload runs at reduced length (one untraced and one traced pass),
which also checks that the tracing wrappers leave the program's outputs
byte-identical and that the printed metric names match BENCHMARK.json.
"""

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_traced_and_untraced(workload):
    out = run.measure(workload, workloads.DEFAULT_SEED, 0.0, trace=True)
    result = out["result"]
    assert result["correct"], out["lines"]
    assert result["failed"] == 0
    assert out["passes"] == out["traced_passes"] == 1
    assert result["attempted"] == 2 * out["points"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _names("per_layer")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_match_benchmark_json(workload):
    out = run.measure(workload, 7, 0.0, trace=False)
    assert out["result"]["correct"], out["lines"]
    metrics = out["result"]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert out["info"]["points_per_s"] > 0 and out["info"]["slowdown"] > 0


def test_speed_probe_reading_ignores_the_program_working_set():
    """A program that sweeps a working set far larger than the caches must
    not move the probe's reading, or the scaled rate would credit it.
    Blocks of 50 ms with and without the sweep alternate, and each sweep
    block is compared with the block before it, so both see the same
    machine speed.  Without the probe's warm-up the ratio was 1.15-1.5."""
    ballast = np.ones(2_000_000)            # 16 MB
    m = np.eye(4, dtype=complex) * 1.5 + 0.2j
    means = []                              # mean reading per block
    with worker.SpeedProbe() as probe:
        seen = len(probe.samples)
        stop = time.perf_counter() + 6.0
        while time.perf_counter() < stop:
            sweep = len(means) % 2 == 1
            block_end = time.perf_counter() + 0.05
            while time.perf_counter() < block_end:
                np.linalg.solve(m, m)
                if sweep:
                    ballast.sum()
            means.append(statistics.fmean(probe.samples[seen:])
                         if len(probe.samples) > seen else None)
            seen = len(probe.samples)
    ratios = [means[i] / means[i - 1] for i in range(1, len(means), 2)
              if means[i] and means[i - 1]]
    assert len(ratios) >= 40
    ratio = statistics.median(ratios)
    assert abs(ratio - 1.0) < 0.1, ratio


def test_non_zero_exit_fails_every_point_of_the_pass(tmp_path):
    stages = workloads.make_stages("noise_scripts", workloads.DEFAULT_SEED, run.ROOT)
    result = {"statuses": [1, 0], "out_dir": str(tmp_path / "out")}
    os.makedirs(result["out_dir"])
    failed, problems = run._check_pass("noise_scripts", stages, 0, result, {})
    assert failed == sum(stage.points for stage in stages) == 111
    assert problems and not os.path.exists(result["out_dir"])


def test_default_seed_is_the_shipped_input():
    for stage in workloads.make_stages("cold_omega_sweep", workloads.DEFAULT_SEED, run.ROOT):
        with open(os.path.join(run.ROOT, stage.source)) as fh:
            assert stage.config_text == fh.read()
    for workload in ("noise_scripts", "doppler_gain_scan"):
        stages = workloads.make_stages(workload, workloads.DEFAULT_SEED, run.ROOT)
        assert all(stage.args == () for stage in stages)


def test_seed_shifts_grid_keeping_count_and_width():
    base = workloads.make_stages("vapor_delta2_scan", workloads.DEFAULT_SEED, run.ROOT)[0]
    moved = workloads.make_stages("vapor_delta2_scan", 5, run.ROOT)[0]
    assert moved.points == base.points == 61
    f = workloads.grid_fraction(5)
    assert 0.0 < f < 1.0
    assert "start = %r" % (-30.0 + f) in moved.config_text
    assert "stop = %r" % (30.0 + f) in moved.config_text
    assert workloads.make_stages("vapor_delta2_scan", 5, run.ROOT) == [moved]


def _stage(points=2):
    return workloads.Stage("cli", "configs/x.ini", "x.csv", points)


def test_row_checks():
    stage = _stage()
    ref = "v,Ga,flag\n1,2.5,\n2,3.5,\n"
    assert workloads.failed_rows("w", stage, ref, ref) == (set(), [])
    assert workloads.failed_rows("w", stage, "v,Ga,flag\n1,2.5000001,\n2,3.5,\n", ref)[0] == set()
    assert workloads.failed_rows("w", stage, "v,Ga,flag\n1,2.6,\n2,3.5,\n", ref)[0] == {0}
    assert workloads.failed_rows("w", stage, "v,Ga,flag\n1,2.5,\n2,3.5,x,\n", None)[0] == {1}
    assert workloads.failed_rows("w", stage, "v,Ga,flag\n1,,error:x\n2,3.5,\n", None)[0] == {0}
    assert workloads.failed_rows("w", stage, "v,Ga,flag\n1,2.5,\n", None)[0] == {0, 1}


def test_known_defect_rows_compare_only_their_columns():
    stage = _stage(1)
    header = "v,Ga,Gb,S_Nminus,S_phiplus,inseparability,S_Na,prepared_fraction,flag\n"
    ref = header + "-30,1,2,3e7,4,5,6,0.5,\n"
    noisy = header + "-30,1,2,9e9,8,7,6,0.5,\n"
    assert workloads.failed_rows("vapor_delta2_scan", stage, noisy, ref)[0] == set()
    assert workloads.failed_rows("cold_omega_sweep", stage, noisy, ref)[0] == {0}
    wrong_gain = header + "-30,1.1,2,3e7,4,5,6,0.5,\n"
    assert workloads.failed_rows("vapor_delta2_scan", stage, wrong_gain, ref)[0] == {0}


def test_tracer_self_time_errors_and_distinct_args(tmp_path):
    def inner(x):
        time.sleep(0.01)
        if x < 0:
            raise ValueError(x)
        return x

    ns = {"inner": inner, "table": {"k": inner}}

    def outer(x):
        time.sleep(0.02)
        return ns["inner"](x)

    tracer = spans.Tracer()
    traced_inner = tracer.wrap("atom.steady_state", inner, True)
    traced_outer = tracer.wrap("cli.run", outer, False)
    assert spans._rebind(ns, inner, traced_inner) == 2
    assert ns["table"]["k"] is traced_inner
    for x in (1.0, 1.0, -1.0):
        with pytest.raises(ValueError) if x < 0 else contextlib.nullcontext():
            traced_outer(x)
    path = tmp_path / "spans.json"
    tracer.dump(path)
    table = spans.pass_table(path, wall_s=1.0)
    assert table["atom.steady_state.calls"] == table["cli.run.calls"] == 3
    assert table["atom.steady_state.errors"] == table["cli.run.errors"] == 1
    assert table["atom.steady_state.distinct_frac"] == pytest.approx(2 / 3)
    assert 0.03 <= table["atom.steady_state.self_s"] < 0.06
    assert 0.06 <= table["cli.run.self_s"] < 0.09
    assert table["propagation.generator.calls"] == 0


def test_dead_workers_fail_their_passes_and_the_run(tmp_path):
    package = tmp_path / "src" / "fourwave"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise ImportError('broken build')\n")
    (tmp_path / "configs").mkdir()
    shutil.copy(os.path.join(run.ROOT, "configs", "entangled_pair.ini"), tmp_path / "configs")
    with pytest.raises(run.BenchmarkError, match="broken build"):
        run.measure("cold_omega_sweep", 1, 1.0, trace=False, root=str(tmp_path))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                           "--workload", "cold_omega_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
