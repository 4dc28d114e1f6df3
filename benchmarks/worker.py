"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/worker.py WORKDIR MODE TRACE TAG

WORKDIR holds ``inputs.json``, written by run.py.  MODE is ``setup`` (only
measure set-up) or ``pass`` (also run every stage of the workload once).
TRACE 1 wraps the layer boundaries after set-up.  The worker writes
``result-TAG.json`` (and ``spans-TAG.json`` when traced) into WORKDIR and
the stage outputs into ``WORKDIR/out-TAG/``.

Set-up is the time from before ``import fourwave`` until the first point is
ready to compute: the import, plus reading, parsing and validating each
config, or loading each script module.

Every pass, traced or not, runs under a speed probe: every PROBE_PERIOD_S a
SIGALRM handler times a fixed piece of small numpy and Python work.  On a
shared machine whose speed drifts, the mean probe time says how fast the
machine ran during the pass.  The probes' own time is left out of the pass
time and of the traced spans.  The handler runs the work once untimed, then
times PROBE_REPEATS runs of it in a row, so the reading does not depend on
how much of the cache the program has evicted.
Set-up is followed by SETUP_PROBES probes in a row, for the same purpose.
"""

import importlib.util
import json
import os
import resource
import signal
import sys
import time

PROBE_PERIOD_S = 0.02
PROBE_REPEATS = 3       # timed runs of the probe work; their mean is the reading
SETUP_PROBES = 10       # probed right after set-up, for its speed


class SpeedProbe:
    """Samples the machine's speed during a pass, at entry, exit and every
    PROBE_PERIOD_S in between.  ``samples`` holds the reading of each
    probe, ``spent_s`` the total time spent in probes."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._m = np.eye(4, dtype=complex) * 2.0 + 0.1j
        self.samples = []
        self.spent_s = 0.0
        self.probe()            # the first call pays numpy's one-time costs
        self.samples.clear()

    def _work(self):
        np, m = self._np, self._m
        for _ in range(4):
            np.linalg.norm(np.linalg.solve(m, m) @ m, 1)
        acc = 0.0
        for i in range(200):
            acc += (i % 7) * 0.5

    def probe(self, signum=None, frame=None):
        begin = time.perf_counter()
        self._work()            # reloads what the program evicted from the caches
        timed = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            self._work()
        end = time.perf_counter()
        self.samples.append((end - timed) / PROBE_REPEATS)
        self.spent_s += end - begin

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in probes so far."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if self.spent_s == spent:   # no probe ran in between
                return now - spent

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()


def _load_script(path):
    name = "bench_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_stage(stage, target, out_path):
    """Exit status of one stage; exceptions count as status 1."""
    try:
        if stage["kind"] == "cli":
            return target.main(["run", "--config", stage["config"], "--out", out_path])
        sys.argv = [stage["source"], "--out", out_path, *stage["args"]]
        target.main()
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:    # the pass fails; the benchmark reports it
        print(f"{stage['source']}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run_stages(inputs, targets, out_dir):
    return [_run_stage(stage, target, os.path.join(out_dir, stage["output"]))
            for stage, target in zip(inputs["stages"], targets)]


def main(argv):
    workdir, mode, trace, tag = argv[1], argv[2], argv[3] == "1", argv[4]
    with open(os.path.join(workdir, "inputs.json")) as fh:
        inputs = json.load(fh)
    src = os.path.join(inputs["root"], "src")

    start = time.perf_counter()
    sys.path.insert(0, src)
    import fourwave
    targets = []
    for stage in inputs["stages"]:
        if stage["kind"] == "cli":
            import fourwave.cli
            with open(stage["config"]) as fh:
                fourwave.config.validate(fourwave.config.parse_config(fh.read()))
            targets.append(fourwave.cli)
        else:
            targets.append(_load_script(stage["script"]))
    result = {"setup_s": time.perf_counter() - start,
              "package": os.path.dirname(os.path.abspath(fourwave.__file__))}
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.probe()
    result["setup_probe_s"] = probe.samples

    if mode == "pass":
        out_dir = os.path.join(workdir, f"out-{tag}")
        os.makedirs(out_dir)
        probe = SpeedProbe()
        if trace:
            from spans import Tracer
            tracer = Tracer(clock=probe.clock)
            modules = {name: mod for name, mod in sys.modules.items()
                       if name == "fourwave" or name.startswith("fourwave.")}
            namespaces = [vars(m) for m in modules.values()]
            namespaces += [vars(t) for t in targets if t.__name__.startswith("bench_")]
            result["bindings"] = tracer.install(modules, namespaces)
        with probe:
            begin = probe.clock()
            result["statuses"] = _run_stages(inputs, targets, out_dir)
            result["wall_s"] = probe.clock() - begin
        result["probe_s"] = probe.samples
        if trace:
            result["spans"] = os.path.join(workdir, f"spans-{tag}.json")
            tracer.dump(result["spans"])
        result["out_dir"] = out_dir

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(workdir, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
