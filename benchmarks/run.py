#!/usr/bin/env python3
"""Sweep-throughput benchmark of fourwave.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py) for about S seconds as a series of
passes.  Every pass is a fresh single-threaded interpreter (worker.py) that
imports fourwave from ``src/``, runs each stage of the workload once, and
exits; the program's outputs of every pass are checked row by row.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` (sweep points) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:
    points_per_ref_s  output rows per second of pass time, scaled to the
                      reference machine speed by the worker's speed probe;
                      median of passes
    setup_s           import fourwave + parse and validate, scaled to the
                      reference machine speed; median of >= 7 workers
    peak_rss_mb       peak resident memory of a pass worker, median of passes
The plain wall-clock ``points_per_s`` and ``wall_setup_s``, and
``failed_frac`` (failed / attempted points), are printed on lines of their
own.  On a shared machine whose speed drifts by tens of percent from minute
to minute, only the scaled figures repeat closely enough from run to run to
bound a change.

With ``--trace 1`` untraced and traced passes alternate, both under the
speed probe, and the metrics are the per-layer ones of spans.py (medians
over the traced passes) plus the tracing overhead, from the scaled rates of
the two kinds of pass.  Traced outputs must be byte-identical to untraced
ones.

A pass in which any stage exits non-zero fails all its points, and so does
a pass whose worker dies.  A run in which no pass of a kind completes has
nothing to measure: it exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import median_table, metric_units, pass_table
from workloads import DEFAULT_SEED, WORKLOADS, failed_rows, make_stages, reference_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

END_TO_END_UNITS = {"points_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# worker.SpeedProbe's probe time at the reference machine speed.  A pass's
# points per second times its slowdown (mean probe time / PROBE_REF_S) is its
# rate at that speed, and a set-up time divided by its slowdown is the set-up
# time at that speed; fixed once, so figures stay comparable between commits.
PROBE_REF_S = 1.2e-4
SETUP_SAMPLES = 7       # set-up measurements per run, at least
RUN_LIMIT_S = 170.0     # a worker still running this long into the run is killed

# One thread per pass: the sweep runs with cli.run's default threads=1 and
# BLAS thread pools are kept to one thread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


def _missing_files(root, stages) -> list[str]:
    needed = [os.path.join("src", "fourwave", "__init__.py")]
    needed += [stage.source for stage in stages]
    return [p for p in needed if not os.path.isfile(os.path.join(root, p))]


def write_inputs(root, workdir, stages):
    entries = []
    for i, stage in enumerate(stages):
        entry = {"kind": stage.kind, "source": stage.source, "output": stage.output,
                 "args": list(stage.args)}
        if stage.kind == "cli":
            entry["config"] = os.path.join(workdir, f"stage{i}.ini")
            with open(entry["config"], "w") as fh:
                fh.write(stage.config_text)
        else:
            entry["script"] = os.path.join(root, stage.source)
        entries.append(entry)
    with open(os.path.join(workdir, "inputs.json"), "w") as fh:
        json.dump({"root": root, "stages": entries}, fh)


class Runner:
    """Spawns the workers of one run within the run's time limit."""

    def __init__(self, root, workdir, start):
        self.root, self.workdir = root, workdir
        self.limit = start + RUN_LIMIT_S
        self.tag = 0
        self.last_error = None

    def spawn(self, mode, traced=False):
        """The worker's result, or None if it died or overran the run limit
        (its stderr is then in ``self.last_error``)."""
        self.tag += 1
        cmd = [sys.executable, WORKER, self.workdir, mode, "1" if traced else "0",
               str(self.tag)]
        begin = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=WORKER_ENV, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.limit - begin))
        except subprocess.TimeoutExpired:
            self.last_error = f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit"
            return None
        path = os.path.join(self.workdir, f"result-{self.tag}.json")
        if proc.returncode != 0 or not os.path.exists(path):
            self.last_error = (f"worker died with exit code {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
            return None
        with open(path) as fh:
            result = json.load(fh)
        expected = os.path.join(self.root, "src", "fourwave")
        if os.path.realpath(result["package"]) != os.path.realpath(expected):
            raise BenchmarkError(f"imported fourwave from {result['package']}, not {expected}")
        return result


def _slowdown(probe_samples) -> float:
    return statistics.fmean(probe_samples) / PROBE_REF_S


def _setup_sample(result) -> tuple[float, float]:
    """(wall-clock set-up time, machine slowdown probed right after it)."""
    return result["setup_s"], _slowdown(result["setup_probe_s"])


def _check_pass(workload, stages, seed, result, first_outputs) -> tuple[int, list]:
    """Failed points of one pass, and what failed.

    A non-zero exit status of any stage fails every point of the pass.
    Otherwise the rows are checked by workloads.failed_rows, and every pass
    must write the same bytes as the first pass of the run, traced or not.
    """
    exits = [f"{stage.source}: exit status {status}"
             for stage, status in zip(stages, result["statuses"]) if status != 0]
    if exits:
        shutil.rmtree(result["out_dir"])
        return sum(stage.points for stage in stages), exits
    failed, problems = 0, []
    for stage in stages:
        path = os.path.join(result["out_dir"], stage.output)
        if not os.path.exists(path):
            failed += stage.points
            problems.append(f"{stage.source}: wrote no {stage.output}")
            continue
        with open(path) as fh:
            text = fh.read()
        reference = reference_text(workload, stage) if seed == DEFAULT_SEED else None
        bad, found = failed_rows(workload, stage, text, reference)
        first = first_outputs.setdefault(stage.output, text)
        if text != first:
            new, old = text.splitlines(), first.splitlines()
            if len(new) != len(old) or new[0] != old[0]:
                bad = set(range(stage.points))
            else:
                bad |= {i - 1 for i in range(1, len(new)) if new[i] != old[i]}
            found.append(f"{stage.output}: differs from the first pass of this run")
        failed += len(bad)
        problems += found
    shutil.rmtree(result["out_dir"])
    return failed, problems


def measure(workload, seed, seconds, trace, root=ROOT) -> dict:
    """Run the workload and return the result object plus report lines."""
    start = time.perf_counter()
    try:
        stages = make_stages(workload, seed, root)
    except FileNotFoundError as exc:
        raise BenchmarkError(f"not a fourwave checkout: {exc}") from exc
    missing = _missing_files(root, stages)
    if missing:
        raise BenchmarkError(f"not a fourwave checkout, missing: {', '.join(missing)}")
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=root)
    try:
        write_inputs(root, workdir, stages)
        runner = Runner(root, workdir, start)
        runner.spawn("setup")       # warm-up: byte-compiles, fills the file cache
        deadline = start + seconds
        setups, passes, traced, spent, first_outputs = [], [], [], [], {}
        attempted = failed = 0
        problems = []
        points = sum(stage.points for stage in stages)
        while time.perf_counter() < runner.limit:
            # Past the deadline a run goes on only while it lacks a pass of
            # a kind and no worker has died.
            complete = passes and (traced or not trace)
            died = len(spent) > len(passes) + len(traced)
            if (complete or died) and time.perf_counter() + statistics.median(spent) > deadline:
                break
            is_traced = trace and len(spent) % 2 == 1
            began = time.perf_counter()
            result = runner.spawn("pass", is_traced)
            spent.append(time.perf_counter() - began)
            attempted += points
            if result is None:
                failed += points
                problems.append(runner.last_error)
                continue
            setups.append(_setup_sample(result))
            n_failed, found = _check_pass(workload, stages, seed, result, first_outputs)
            failed += n_failed
            problems += found
            (traced if is_traced else passes).append(result)
        if not passes or (trace and not traced):
            raise BenchmarkError("no pass completed; the last error was: "
                                 f"{runner.last_error}")
        while len(setups) < SETUP_SAMPLES:
            result = runner.spawn("setup")
            if result is None:
                raise BenchmarkError(runner.last_error)
            setups.append(_setup_sample(result))

        rates = [points / r["wall_s"] for r in passes]
        slowdowns = [_slowdown(r["probe_s"]) for r in passes]
        ref_rates = [rate * slowdown for rate, slowdown in zip(rates, slowdowns)]
        info = {"points_per_s": statistics.median(rates),
                "slowdown": statistics.median(slowdowns),
                "wall_setup_s": statistics.median(s for s, _ in setups),
                "failed_frac": failed / attempted}
        lines = [f"workload {workload}, seed {seed}: {len(passes)} untraced"
                 f" + {len(traced)} traced passes of {points} points,"
                 f" {len(setups)} set-up samples",
                 f"points_per_s {info['points_per_s']:.6g} 1/s (wall clock;"
                 f" machine slowdown {info['slowdown']:.3f} by the speed probe)",
                 f"wall_setup_s {info['wall_setup_s']:.6g} s (wall clock)"]
        if trace:
            tables = [pass_table(r["spans"], r["wall_s"]) for r in traced]
            metrics = median_table(tables)
            if any(t[k] != tables[0][k] for t in tables for k in t if k.endswith(".calls")):
                problems.append("traced call counts differ between passes")
            traced_rate = statistics.median(points / r["wall_s"] * _slowdown(r["probe_s"])
                                            for r in traced)
            untraced_rate = statistics.median(ref_rates)
            metrics["trace.points_per_ref_s"] = traced_rate
            metrics["trace.untraced_points_per_ref_s"] = untraced_rate
            metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
            units = metric_units()
        else:
            metrics = {"points_per_ref_s": statistics.median(ref_rates),
                       "setup_s": statistics.median(s / slowdown for s, slowdown in setups),
                       "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes)}
            units = END_TO_END_UNITS
        lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
        lines.append(f"failed_frac {info['failed_frac']:.6g} ratio"
                     f" ({failed} of {attempted} points)")
        lines += [f"problem: {p}" for p in problems[:20]]
        result = {"correct": failed == 0 and not problems,
                  "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}}
        return {"result": result, "lines": lines, "info": info, "points": points,
                "passes": len(passes), "traced_passes": len(traced)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
