"""Run configuration: flat key/value text format with section headers.

Grammar (INI dialect, parsed by configparser):

    [run]
    model = cold | vapor | eit | reference
    langevin = on | off          ; or configparser's true/false, yes/no, 1/0, any case
    omega_mhz = <float>          ; analysis frequency when not swept

    [atom]                        ; cold and vapor models
    gamma_e_mhz, gamma_g_mhz, omega0_mhz, delta1_mhz, delta2_mhz, rabi_mhz

    [medium]                      ; cold and vapor models
    optical_depth = <float>

    [vapor]                       ; vapor model only
    temperature_c, atomic_mass_u, wavelength_nm, pump_waist_um, probe_waist_um

    [eit]                         ; eit model only
    gamma_e_mhz, gamma_g_mhz, delta1_mhz, rabi_c_mhz

    [reference]                   ; reference model only
    kind = pia | psa | chain
    gain = <float>                          ; pia, psa
    theta_deg, big_theta_deg = <float>      ; psa, both finite
    slice_gain, slice_transmission, n_slices ; chain (n_slices a whole number >= 1)

    [sweep]
    axis = <parameter key>        ; exactly one sweep axis
    start, stop = <float>
    count = <int>                 ; from 1 to SWEEP_COUNT_LIMIT = 10**6

    [output]
    path = <file>
    format = csv | json

    [quadrature]                  ; optional
    velocity_order = 40           ; the fixed VELOCITY_NODES; any other value is an error
    z_nodes = <int>               ; accepted and ignored: the z-integral is exact

Frequencies are ordinary frequencies in MHz, temperatures in Celsius, lengths
in the units their key names say.  One table, PARAMETER_KEYS, maps each key of
[atom], [medium], [vapor] and [eit] to its parameter field and the conversion
from that unit (MHz to rad/us once, here); validate names a bad value by its key.
The analysis frequency and the sweep bounds must be finite, and every
frequency at most atom.FREQUENCY_LIMIT (1e12 rad/us) in magnitude, delta1
shifted to any velocity node of the vapor model included.  The optical
depth is at most propagation.OPTICAL_DEPTH_LIMIT (1e100).
"""

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atom import FREQUENCY_LIMIT
from .errors import DomainError
from .numkernel import VELOCITY_NODES
from .units import (ATOMIC_MASS_KG, celsius_to_kelvin, mhz_to_rad_us)

MODELS = ("cold", "vapor", "eit", "reference")
FORMATS = ("csv", "json")
REFERENCE_KINDS = ("pia", "psa", "chain")
_REFERENCE_KEYS = {"pia": ("gain",), "psa": ("gain",),
                   "chain": ("slice_gain", "slice_transmission", "n_slices")}
_OPTIONAL_REFERENCE_KEYS = {"psa": ("theta_deg", "big_theta_deg")}

SWEEP_AXES = {
    "cold": ("delta1_mhz", "delta2_mhz", "rabi_mhz", "optical_depth", "omega_mhz"),
    "vapor": ("delta1_mhz", "delta2_mhz", "rabi_mhz", "optical_depth",
              "omega_mhz", "temperature_c"),
    "eit": ("delta2_mhz",),
    "reference": ("gain", "slice_gain", "slice_transmission", "n_slices"),
}

# Each parameter block: config key -> (field of its parameter object, the
# conversion from the config unit).  Every key of a block is required.
PARAMETER_KEYS = {
    "atom": {f"{name}_mhz": (name, mhz_to_rad_us) for name in
             ("gamma_e", "gamma_g", "omega0", "delta1", "delta2", "rabi")},
    "medium": {"optical_depth": ("optical_depth", lambda depth: depth)},
    "vapor": {"temperature_c": ("temperature", celsius_to_kelvin),
              "atomic_mass_u": ("atomic_mass", lambda u: u * ATOMIC_MASS_KG),
              "wavelength_nm": ("wavelength", lambda nm: nm * 1e-9),
              "pump_waist_um": ("pump_waist", lambda um: um * 1e-6),
              "probe_waist_um": ("probe_waist", lambda um: um * 1e-6)},
    "eit": {f"{name}_mhz": (name, mhz_to_rad_us) for name in
            ("gamma_e", "gamma_g", "delta1", "rabi_c")},
}

# Parameter blocks each model reads, in build order.
_BLOCKS = {"cold": ("atom", "medium"), "vapor": ("atom", "medium", "vapor"),
           "eit": ("eit",)}

# run writes rows as each stack finishes but holds the sweep values, as a list
# and an array, about 45 bytes a row: 10**6 rows take about 45 MB.
SWEEP_COUNT_LIMIT = 10**6


@dataclass(frozen=True)
class Diagnostic:
    """One configuration problem, addressed by section.key."""

    key: str
    reason: str

    def __str__(self):
        return f"{self.key}: {self.reason}"


@dataclass
class RunConfig:
    """Parsed, unvalidated run configuration (raw key/value maps)."""

    model: str = ""
    langevin: bool | str = True     # the text as written if it is no boolean
    omega_mhz: float = 1.0
    atom: dict = field(default_factory=dict)
    medium: dict = field(default_factory=dict)
    vapor: dict = field(default_factory=dict)
    eit: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    sweep_axis: str = ""
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_count: int = 0
    output_path: str = "out.csv"
    output_format: str = "csv"
    velocity_order: int = VELOCITY_NODES
    text: str = ""      # the config text as read, for the JSON provenance


class ConfigParseError(Exception):
    """Raised when the config text cannot be read at all."""


def _number(parser, section: str, key: str, default: str, kind):
    """``kind`` of section.key; a malformed value is a ConfigParseError."""
    raw = parser.get(section, key, fallback=default)
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigParseError(f"{section}.{key}: not {noun}: {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse config text; raises ConfigParseError on syntax errors and on
    a count, quadrature order or scalar frequency that is not a number."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(exc) from exc

    cfg = RunConfig(text=text)
    run = parser["run"] if parser.has_section("run") else {}
    cfg.model = run.get("model", "")
    langevin = run.get("langevin", "on")
    cfg.langevin = parser.BOOLEAN_STATES.get(langevin.lower(), langevin)
    cfg.omega_mhz = _number(parser, "run", "omega_mhz", "1.0", float)

    for name in ("atom", "medium", "vapor", "eit", "reference"):
        if parser.has_section(name):
            setattr(cfg, name, dict(parser[name]))

    if parser.has_section("sweep"):
        sweep = parser["sweep"]
        cfg.sweep_axis = sweep.get("axis", "")
        cfg.sweep_start = _number(parser, "sweep", "start", "0", float)
        cfg.sweep_stop = _number(parser, "sweep", "stop", "0", float)
        cfg.sweep_count = _number(parser, "sweep", "count", "0", int)

    if parser.has_section("output"):
        out = parser["output"]
        cfg.output_path = out.get("path", cfg.output_path)
        cfg.output_format = out.get("format", cfg.output_format).strip().lower()

    cfg.velocity_order = _number(parser, "quadrature", "velocity_order",
                                 str(cfg.velocity_order), int)
    return cfg


def _require_floats(diags, mapping, keys, section, finite=()):
    for key in keys:
        if key not in mapping:
            diags.append(Diagnostic(f"{section}.{key}", "missing required key"))
            continue
        try:
            if not math.isfinite(float(mapping[key])) and key in finite:
                diags.append(Diagnostic(f"{section}.{key}", f"must be finite, got {mapping[key]}"))
        except ValueError:
            diags.append(Diagnostic(f"{section}.{key}", f"not a number: {mapping[key]!r}"))


def validate(cfg: RunConfig) -> list[Diagnostic]:
    """All problems that would make run() reject this configuration."""
    diags: list[Diagnostic] = []
    if cfg.model not in MODELS:
        diags.append(Diagnostic("run.model", f"must be one of {MODELS}, got {cfg.model!r}"))
        return diags

    if isinstance(cfg.langevin, str):
        diags.append(Diagnostic("run.langevin", "must be on or off (or true/false, yes/no, "
                                f"1/0), got {cfg.langevin!r}"))
    for section in _BLOCKS.get(cfg.model, ()):
        _require_floats(diags, getattr(cfg, section), PARAMETER_KEYS[section], section)
    axes = SWEEP_AXES[cfg.model]
    if cfg.model == "reference":
        kind = cfg.reference.get("kind", "")
        if kind not in REFERENCE_KINDS:
            diags.append(Diagnostic("reference.kind",
                                    f"must be one of {REFERENCE_KINDS}, got {kind!r}"))
        else:       # the keys a kind reads are the axes it may sweep
            axes = _REFERENCE_KEYS[kind]
            optional = [k for k in _OPTIONAL_REFERENCE_KEYS.get(kind, ()) if k in cfg.reference]
            _require_floats(diags, cfg.reference, (*axes, *optional), "reference", optional)

    if not cfg.sweep_axis:
        diags.append(Diagnostic("sweep.axis", "missing sweep axis"))
    elif cfg.sweep_axis not in axes:
        diags.append(Diagnostic("sweep.axis",
                                f"axis {cfg.sweep_axis!r} not valid for model "
                                f"{cfg.model!r}; one of {axes}"))
    if not 1 <= cfg.sweep_count <= SWEEP_COUNT_LIMIT:
        diags.append(Diagnostic("sweep.count", f"must be from 1 to {SWEEP_COUNT_LIMIT}, "
                                f"got {cfg.sweep_count}"))
    # a swept frequency that no parameter object bounds
    unbounded = cfg.sweep_axis == ("delta2_mhz" if cfg.model == "eit" else "omega_mhz")
    for key, value in (("run.omega_mhz", cfg.omega_mhz), ("sweep.start", cfg.sweep_start),
                       ("sweep.stop", cfg.sweep_stop)):
        if not math.isfinite(value):
            diags.append(Diagnostic(key, f"must be finite, got {value}"))
        elif (key == "run.omega_mhz" or unbounded) and abs(mhz_to_rad_us(value)) > FREQUENCY_LIMIT:
            diags.append(Diagnostic(key, f"must be at most {FREQUENCY_LIMIT:g} rad/us in "
                                         f"magnitude, got {value}"))
    if cfg.output_format not in FORMATS:
        diags.append(Diagnostic("output.format",
                                f"must be one of {FORMATS}, got {cfg.output_format!r}"))
    if cfg.velocity_order != VELOCITY_NODES:
        diags.append(Diagnostic("quadrature.velocity_order", f"must be {VELOCITY_NODES}, "
                                f"the fixed node count, got {cfg.velocity_order}"))
    if not diags and cfg.model == "reference" and cfg.reference.get("kind") == "chain":
        swept = cfg.sweep_axis == "n_slices"
        slices = sweep_values(cfg) if swept else [float(cfg.reference["n_slices"])]
        if bad := [n for n in slices if not (n >= 1 and n.is_integer())]:
            written = f"{bad[0]:g} (at n_slices = {bad[0]:g})" if swept \
                else cfg.reference["n_slices"]
            diags.append(Diagnostic("reference.n_slices",
                                    f"must be a whole number >= 1, got {written}"))
    return diags or _parameter_diagnostics(cfg)


def sweep_values(cfg: RunConfig) -> list[float]:
    """The swept values, in sweep order."""
    if cfg.sweep_count == 1:
        return [cfg.sweep_start]
    step = (cfg.sweep_stop - cfg.sweep_start) / (cfg.sweep_count - 1)
    return [cfg.sweep_start + i * step for i in range(cfg.sweep_count)]


def _parameter_diagnostics(cfg: RunConfig) -> list[Diagnostic]:
    """The first domain error of the parameter objects run() builds.

    They are built at both sweep endpoints, each once: sweeps are linear and
    every parameter constraint is an interval, so the endpoints decide.
    """
    builders = {"atom": atom_params_from, "vapor": vapor_params_from, "eit": eit_params_from,
                "medium": lambda point: medium_params_from(point, built["atom"])}
    ends = (cfg.sweep_start,) if cfg.sweep_count == 1 \
        else (cfg.sweep_start, cfg.sweep_stop)
    for value in ends:
        point, built = at_sweep_value(cfg, value), {}
        for section in _BLOCKS.get(cfg.model, ()):
            try:
                built[section] = builders[section](point)
            except DomainError as exc:
                return [_in_config_terms(cfg, section, value, exc)]
        if cfg.model == "vapor" and (diag := _doppler_diagnostic(cfg, value, built["medium"],
                                                                  built["vapor"])):
            return [diag]
        if point is cfg:        # the sweep axis is in no parameter block: one point
            break
    return []


def _doppler_diagnostic(cfg: RunConfig, value: float, medium, vapor):
    """A diagnostic under vapor.temperature_c if run() could not shift delta1
    by the Doppler shift of each velocity node within atom.FREQUENCY_LIMIT."""
    from .vapor import velocity_nodes
    try:
        with np.errstate(over="ignore", invalid="ignore"):     # inf and NaN fail below
            medium.at_nodes(velocity_nodes(vapor)[2])
    except DomainError:
        swept = cfg.sweep_axis
        written = f"{value:g}" if swept == "temperature_c" else cfg.vapor["temperature_c"]
        at = f" (at {swept} = {value:g})" if swept in ("delta1_mhz", "temperature_c") else ""
        return Diagnostic("vapor.temperature_c", f"must keep atom.delta1_mhz plus the Doppler "
                          f"shift of each of the {VELOCITY_NODES} velocity nodes at most "
                          f"{FREQUENCY_LIMIT:g} rad/us in magnitude, got {written}{at}")
    return None


def _in_config_terms(cfg: RunConfig, section: str, value: float, exc) -> Diagnostic:
    """exc, the DomainError of a parameter field, under the config key of
    that field with the value as written (a swept key: the sweep endpoint);
    a second field the rule compares with reads "section.key = written"."""
    key_of = {name: key for key, (name, _) in PARAMETER_KEYS[section].items()}

    def written(key):
        return f"{value:g} (at {key} = {value:g})" if key == cfg.sweep_axis \
            else getattr(cfg, section)[key]

    key = key_of[exc.field]
    rule = "must be finite and > -273.15" if key == "temperature_c" else exc.rule
    if exc.other:
        rule += f" {section}.{key_of[exc.other]} = {written(key_of[exc.other])}"
    return Diagnostic(f"{section}.{key}", f"{rule}, got {written(key)}")


def at_sweep_value(cfg: RunConfig, value) -> RunConfig:
    """Copy of cfg with the swept key of [atom], [medium] or [vapor] set to
    ``value``, a number or an array of them; cfg itself when no block holds
    the sweep axis."""
    for section in ("atom", "medium", "vapor"):
        raw = getattr(cfg, section)
        if cfg.sweep_axis in raw:
            return replace(cfg, **{section: {**raw, cfg.sweep_axis: value}})
    return cfg


def _fields(cfg: RunConfig, section: str) -> dict:
    """The parameter fields of a block, each converted from its config unit:
    a float each, a swept key's array as it is."""
    block = getattr(cfg, section)
    return {name: convert(float(block[key]) if np.ndim(block[key]) == 0 else block[key])
            for key, (name, convert) in PARAMETER_KEYS[section].items()}


def atom_params_from(cfg: RunConfig):
    from .atom import AtomParams
    return AtomParams(**_fields(cfg, "atom"))


def medium_params_from(cfg: RunConfig, atom=None):
    """MediumParams from the [medium] block on ``atom``, by default the [atom] block's."""
    from .propagation import MediumParams
    return MediumParams(atom=atom or atom_params_from(cfg), **_fields(cfg, "medium"))


def vapor_params_from(cfg: RunConfig):
    from .vapor import VaporParams
    return VaporParams(**_fields(cfg, "vapor"))


def eit_params_from(cfg: RunConfig):
    from .eit import LambdaParams
    return LambdaParams(**_fields(cfg, "eit"))
