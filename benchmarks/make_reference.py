#!/usr/bin/env python3
"""Store the program's outputs at the default seed as reference outputs.

    python3 benchmarks/make_reference.py

Runs one untraced pass of every workload and copies its outputs to
``benchmarks/reference/<workload>/``.  Run it only on a commit whose
outputs are meant to be the reference; every default-seed pass of the
benchmark is compared with them.
"""

import os
import shutil
import sys
import tempfile
import time

from run import ROOT, Runner, write_inputs
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, make_stages


def main() -> int:
    for workload in WORKLOADS:
        stages = make_stages(workload, DEFAULT_SEED, ROOT)
        workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
        try:
            write_inputs(ROOT, workdir, stages)
            result = Runner(ROOT, workdir, time.perf_counter()).spawn("pass")
            if any(result["statuses"]):
                print(f"{workload}: exit statuses {result['statuses']}", file=sys.stderr)
                return 1
            target = os.path.join(REFERENCE_DIR, workload)
            os.makedirs(target, exist_ok=True)
            for stage in stages:
                shutil.copyfile(os.path.join(result["out_dir"], stage.output),
                                os.path.join(target, stage.output))
            print(f"{workload}: {len(stages)} outputs in {target}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
