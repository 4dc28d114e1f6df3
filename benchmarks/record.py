#!/usr/bin/env python3
"""Record a BENCH file: end-to-end medians and spreads, and a traced table.

    python3 benchmarks/record.py --out benchmarks/BENCH_0.json [--first-seed 1]

For every workload, runs the benchmark RUNS times untraced for
BENCHMARK.json's ``run_seconds``, seeds first-seed, first-seed+1, ...,
exactly as ``benchmarks/run.py`` would, and
reports each end-to-end metric's median, quartiles and spread (interquartile
range over median, quartiles as ``statistics.quantiles(values, n=4)``).
Then runs each workload once traced at the default seed, which also checks
every output against the stored reference, and records the per-layer table
with each boundary's share of the traced self time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import ROOT, WORKER_ENV, measure
from workloads import (COLUMN_RTOL, DEFAULT_SEED, KNOWN_DEFECT_ROWS, REFERENCE_RTOL,
                       WORKLOADS)

NOTES = {
    "excluded": "configs/reference_pia.ini and the eit model are closed forms taking"
                " about 2 ms per config; there is nothing in them to optimise.",
    "threads": "Every pass runs with cli.run's default threads=1 and one BLAS thread:"
               " --threads 2 and 4 were measured slower (GIL-bound 2x2 and 4x4 numpy).",
    "passes": "Each pass is a fresh interpreter, as for a user's run, so no cache"
              " outlives a pass. A run repeats passes for --seconds and reports medians.",
    "speed_probe": "Every pass runs under a SIGALRM probe every 20 ms: fixed small numpy"
                   " and Python work, run once untimed so that the program's use of the"
                   " caches does not move the reading, then three runs timed in a row."
                   " Set-up is followed by 10 probes. This machine flips between"
                   " speed states at sub-second scale and the mix drifts by tens of percent"
                   " over minutes (CPU time = wall time), so wall-clock figures spread up to"
                   " ~0.3 between runs. points_per_ref_s and setup_s are scaled by the probed"
                   " slowdown and are the bounded metrics; wall-clock points_per_s and"
                   " wall_setup_s are recorded under wall_clock.",
    "failed_frac": "failed / attempted points, printed by run.py and carried by the"
                   " result's failed and attempted fields; it is 0 at the seed, so it is"
                   " not a bounded metric.",
    "seeds": f"Seed {DEFAULT_SEED} runs the shipped configs and script defaults and compares"
             f" every value with benchmarks/reference at rel. tolerance {REFERENCE_RTOL:g}"
             f" ({COLUMN_RTOL} for columns printed with 4 digits); other seeds shift each"
             " sweep grid by a seeded fraction of a step and get the reference-free checks.",
}

RUNS = 10


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _versions():
    code = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    out = subprocess.run([sys.executable, "-c", code], env=WORKER_ENV, text=True,
                         capture_output=True, check=True).stdout.split()
    return {"python": platform.python_version(), "numpy": out[0], "scipy": out[1],
            "nproc": os.cpu_count(), "machine": platform.machine()}


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record_workload(workload, seeds, seconds) -> dict:
    outs = []
    for seed in seeds:
        out = measure(workload, seed, seconds, trace=False)
        print(f"{workload} seed {seed}: {out['lines'][0].split(': ', 1)[1]}", flush=True)
        outs.append(out)
    results = [o["result"] for o in outs]
    units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
    end_to_end = {name: dict(unit=unit, **summarize([r["metrics"][name]["value"]
                                                    for r in results]))
                  for name, unit in units.items()}
    unbounded = {name: summarize([o["info"][name] for o in outs])
                 for name in ("points_per_s", "wall_setup_s", "slowdown")}
    traced = measure(workload, DEFAULT_SEED, seconds, trace=True)
    table = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    total_self = sum(v for k, v in table.items() if k.endswith(".self_s"))
    shares = {k[:-len(".self_s")]: v / total_self for k, v in table.items()
              if k.endswith(".self_s") and v}
    return {
        "seeds": list(seeds),
        "points_per_pass": outs[0]["points"],
        "passes_per_run": statistics.median(o["passes"] for o in outs),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "all_correct": all(r["correct"] for r in results),
        "end_to_end": end_to_end,
        "wall_clock": unbounded,
        "traced_default_seed": {"correct": traced["result"]["correct"],
                                "passes": traced["passes"] + traced["traced_passes"],
                                "per_layer": table, "self_share": shares},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + RUNS)
    began = time.time()
    record = {
        "git_sha": _git_sha(),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(began)),
        **_versions(),
        "method": f"python3 benchmarks/run.py --workload W --seed S --seconds {seconds}"
                  f" --trace 0 for S = {seeds.start}..{seeds.stop - 1}; spread ="
                  " (q3 - q1) / median of the per-run values.",
        "notes": NOTES,
        "known_defect_rows": KNOWN_DEFECT_ROWS,
        "workloads": {w: record_workload(w, seeds, seconds) for w in WORKLOADS},
    }
    record["elapsed_s"] = time.time() - began
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, entry in record["workloads"].items():
        spreads = ", ".join(f"{m} {e['median']:.4g} {e['unit']} (spread {e['spread']:.3f})"
                            for m, e in entry["end_to_end"].items())
        print(f"{w}: {spreads}; failed {entry['failed']}/{entry['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
