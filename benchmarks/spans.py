"""Layer spans for the traced benchmark pass.

The tracer wraps the public functions listed in BOUNDARIES from outside the
program: every binding of a function object across the ``fourwave.*``
modules and the loaded script namespaces is replaced by a timing wrapper,
so calls through ``from .x import f`` aliases are traced too.  Spans stay
in memory during the pass and are written out once it has ended;
``layer_metrics`` turns a span file into the per-layer metrics.

A boundary missing from the program (a later version may delete it) is
skipped and reports zero calls.
"""

import functools
import inspect
import json
import statistics
import time

# (module, function, whether distinct argument tuples are counted).  The
# arguments of the counted functions are frozen dataclasses and floats.
BOUNDARIES = (
    ("config", "parse_config", False),
    ("config", "validate", False),
    ("atom", "steady_state", True),
    ("atom", "diffusion_set", True),
    ("propagation", "generator", True),
    ("propagation", "transfer", True),
    ("propagation", "gains", True),
    ("propagation", "integrated_diffusion", True),
    ("propagation", "calibrate_langevin_scale", True),
    ("numkernel", "expm", False),
    ("numkernel", "quad_unit", False),
    ("vapor", "doppler_generator", True),
    ("vapor", "residual_transmission", True),
    ("spectra", "probe_intensity_noise_parts", False),
    ("spectra", "intensity_difference_noise_parts", False),
    ("spectra", "phase_sum_noise_parts", False),
    ("spectra", "inseparability_parts", False),
    ("spectra", "probe_intensity_noise", True),
    ("spectra", "intensity_difference_noise", True),
    ("spectra", "phase_sum_noise", True),
    ("spectra", "inseparability", True),
    ("cli", "run", False),
)

# Pass-level metrics of the traced run, with their units.
SUMMARY_UNITS = {
    "trace.points_per_ref_s": "1/s",
    "trace.untraced_points_per_ref_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.remainder_s": "s",
    "trace.spans": "count",
}

# Span record fields, in order.
FUNC, PARENT, START, END, ARG_ID, RAISED = range(6)


def metric_units() -> dict:
    """Every per-layer metric name mapped to its unit."""
    units = {}
    for module, func, distinct in BOUNDARIES:
        name = f"{module}.{func}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        if distinct:
            units[f"{name}.distinct_frac"] = "ratio"
    units.update(SUMMARY_UNITS)
    return units


class Tracer:
    """Records one span per call of each wrapped boundary."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.spans = []
        self._open = []

    def wrap(self, name, fn, distinct):
        index = len(self.names)
        self.names.append(name)
        spans, open_spans = self.spans, self._open
        clock = self.clock
        signature = inspect.signature(fn) if distinct else None
        arg_ids = {}

        def arg_id(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (bound.args, tuple(sorted(bound.kwargs.items())))
            try:
                return arg_ids.setdefault(key, len(arg_ids))
            except TypeError:       # unhashable: counted as distinct
                arg_ids[object()] = None
                return len(arg_ids) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, open_spans[-1] if open_spans else -1, 0.0, 0.0,
                    arg_id(args, kwargs) if signature else -1, 0]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = 1
                raise
            finally:
                span[END] = clock()
                open_spans.pop()

        return traced

    def install(self, modules, namespaces) -> int:
        """Wrap every boundary found in ``modules`` (name -> module) and
        rebind it in each namespace dict; returns the bindings replaced."""
        replaced = 0
        for module, func, distinct in BOUNDARIES:
            original = getattr(modules.get(f"fourwave.{module}"), func, None)
            if original is None:
                continue
            wrapped = self.wrap(f"{module}.{func}", original, distinct)
            for ns in namespaces:
                replaced += _rebind(ns, original, wrapped)
        return replaced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def _rebind(ns, original, wrapped) -> int:
    """Replace ``original`` in a namespace and in its module-level dicts
    (dispatch tables such as ``spectra._KINDS``)."""
    count = 0
    for key, value in list(ns.items()):
        if value is original:
            ns[key] = wrapped
            count += 1
        elif isinstance(value, dict) and value is not ns:
            for inner_key, inner in list(value.items()):
                if inner is original:
                    value[inner_key] = wrapped
                    count += 1
    return count


def pass_table(path, wall_s) -> dict:
    """Per-layer metrics of one traced pass, read from its span file."""
    with open(path) as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0, "args": set()}
             for name in names}
    for span, children in zip(spans, child_time):
        entry = stats[names[span[FUNC]]]
        entry["calls"] += 1
        entry["self_s"] += span[END] - span[START] - children
        entry["errors"] += span[RAISED]
        entry["args"].add(span[ARG_ID])
    table = {}
    for module, func, distinct in BOUNDARIES:
        name = f"{module}.{func}"
        entry = stats.get(name, {"calls": 0, "self_s": 0.0, "errors": 0, "args": set()})
        table[f"{name}.calls"] = entry["calls"]
        table[f"{name}.self_s"] = entry["self_s"]
        table[f"{name}.errors"] = entry["errors"]
        if distinct:
            table[f"{name}.distinct_frac"] = \
                len(entry["args"]) / entry["calls"] if entry["calls"] else 0.0
    traced_self = sum(e["self_s"] for e in stats.values())
    table["trace.remainder_s"] = wall_s - traced_self
    table["trace.spans"] = len(spans)
    return table


def median_table(tables) -> dict:
    """Key-wise median of several pass tables."""
    return {key: statistics.median(t[key] for t in tables) for key in tables[0]}
