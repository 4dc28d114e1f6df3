"""Run configuration: flat key/value text format with section headers.

Grammar (INI dialect, parsed by configparser):

    [run]
    model = cold | vapor | eit | reference
    seed = <int>
    langevin = on | off
    omega_mhz = <float>          ; analysis frequency when not swept

    [atom]                        ; cold and vapor models
    gamma_e_mhz, gamma_g_mhz, omega0_mhz, delta1_mhz, delta2_mhz, rabi_mhz

    [medium]                      ; cold and vapor models
    optical_depth = <float>

    [vapor]                       ; vapor model only
    temperature_c, atomic_mass_u, wavelength_nm, pump_waist_um,
    probe_waist_um, cell_length_mm, cross_section_cm2

    [eit]                         ; eit model only
    gamma_e_mhz, gamma_g_mhz, delta1_mhz, rabi_c_mhz

    [reference]                   ; reference model only
    kind = pia | psa | chain
    gain = <float>                          ; pia, psa
    theta_deg, big_theta_deg = <float>      ; psa
    slice_gain, slice_transmission, n_slices ; chain (n_slices whole, >= 1)

    [sweep]
    axis = <parameter key>        ; exactly one sweep axis
    start, stop = <float>
    count = <int >= 1>

    [output]
    path = <file>
    format = csv | json

    [quadrature]                  ; optional
    velocity_order = <int>        ; default 40, from 16 to MAX_VELOCITY_ORDER = 100
    z_nodes = <int>               ; accepted and ignored: the z-integral is exact

Frequencies are ordinary frequencies in MHz (converted to rad/us once,
here), temperatures in Celsius, lengths in the units their key names say.
The analysis frequency and the sweep bounds must be finite, and every
frequency at most atom.FREQUENCY_LIMIT (1e12 rad/us) in magnitude.
"""

import configparser
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .atom import FREQUENCY_LIMIT
from .numkernel import MAX_VELOCITY_ORDER
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

_ATOM_KEYS = ("gamma_e_mhz", "gamma_g_mhz", "omega0_mhz",
              "delta1_mhz", "delta2_mhz", "rabi_mhz")
_VAPOR_KEYS = ("temperature_c", "atomic_mass_u", "wavelength_nm", "pump_waist_um",
               "probe_waist_um", "cell_length_mm", "cross_section_cm2")
_EIT_KEYS = ("gamma_e_mhz", "gamma_g_mhz", "delta1_mhz", "rabi_c_mhz")

# Parameter blocks each model reads, in build order, and their required keys.
_BLOCKS = {"cold": ("atom", "medium"), "vapor": ("atom", "medium", "vapor"),
           "eit": ("eit",)}
_REQUIRED = {"atom": _ATOM_KEYS, "medium": ("optical_depth",),
             "vapor": _VAPOR_KEYS, "eit": _EIT_KEYS}


@dataclass(frozen=True)
class Diagnostic:
    """One configuration problem, addressed by section.key, or by section
    for a block whose values lie outside the model's domain."""

    key: str
    reason: str

    def __str__(self):
        return f"{self.key}: {self.reason}"


@dataclass
class RunConfig:
    """Parsed, unvalidated run configuration (raw key/value maps)."""

    model: str = ""
    seed: int = 0
    langevin: bool = True
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
    velocity_order: int = 40


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
    a seed, count, quadrature order or scalar frequency that is not a number."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc

    cfg = RunConfig()
    run = parser["run"] if parser.has_section("run") else {}
    cfg.model = run.get("model", "")
    cfg.seed = _number(parser, "run", "seed", "0", int)
    cfg.langevin = run.get("langevin", "on").strip().lower() not in ("off", "0", "false", "no")
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


def _require_floats(diags, mapping, keys, section):
    for key in keys:
        if key not in mapping:
            diags.append(Diagnostic(f"{section}.{key}", "missing required key"))
            continue
        try:
            float(mapping[key])
        except ValueError:
            diags.append(Diagnostic(f"{section}.{key}",
                                    f"not a number: {mapping[key]!r}"))


def validate(cfg: RunConfig) -> list[Diagnostic]:
    """All problems that would make run() reject this configuration."""
    diags: list[Diagnostic] = []
    if cfg.model not in MODELS:
        diags.append(Diagnostic("run.model", f"must be one of {MODELS}, got {cfg.model!r}"))
        return diags

    for section in _BLOCKS.get(cfg.model, ()):
        _require_floats(diags, getattr(cfg, section), _REQUIRED[section], section)
    axes = SWEEP_AXES[cfg.model]
    if cfg.model == "reference":
        kind = cfg.reference.get("kind", "")
        if kind not in REFERENCE_KINDS:
            diags.append(Diagnostic("reference.kind",
                                    f"must be one of {REFERENCE_KINDS}, got {kind!r}"))
        else:       # the keys a kind reads are the axes it may sweep
            axes = _REFERENCE_KEYS[kind]
            optional = [k for k in _OPTIONAL_REFERENCE_KEYS.get(kind, ()) if k in cfg.reference]
            _require_floats(diags, cfg.reference, (*axes, *optional), "reference")

    if not cfg.sweep_axis:
        diags.append(Diagnostic("sweep.axis", "missing sweep axis"))
    elif cfg.sweep_axis not in axes:
        diags.append(Diagnostic("sweep.axis",
                                f"axis {cfg.sweep_axis!r} not valid for model "
                                f"{cfg.model!r}; one of {axes}"))
    if cfg.sweep_count < 1:
        diags.append(Diagnostic("sweep.count", f"must be >= 1, got {cfg.sweep_count}"))
    for key, value in (("run.omega_mhz", cfg.omega_mhz), ("sweep.start", cfg.sweep_start),
                       ("sweep.stop", cfg.sweep_stop)):
        if not math.isfinite(value):
            diags.append(Diagnostic(key, f"must be finite, got {value}"))
        elif (key == "run.omega_mhz" or cfg.sweep_axis == "omega_mhz") \
                and abs(mhz_to_rad_us(value)) > FREQUENCY_LIMIT:
            diags.append(Diagnostic(key, f"must be at most {FREQUENCY_LIMIT:g} rad/us in "
                                         f"magnitude, got {value}"))
    if cfg.output_format not in FORMATS:
        diags.append(Diagnostic("output.format",
                                f"must be one of {FORMATS}, got {cfg.output_format!r}"))
    if not 16 <= cfg.velocity_order <= MAX_VELOCITY_ORDER:
        diags.append(Diagnostic("quadrature.velocity_order", f"must be from 16 to "
                                f"{MAX_VELOCITY_ORDER}, got {cfg.velocity_order}"))
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

    They are built at both sweep endpoints: sweeps are linear and every
    parameter constraint is an interval, so the endpoints decide.
    """
    from .errors import DomainError
    builders = {"atom": atom_params_from, "medium": medium_params_from,
                "vapor": vapor_params_from, "eit": eit_params_from}
    ends = (cfg.sweep_start,) if cfg.sweep_count == 1 \
        else (cfg.sweep_start, cfg.sweep_stop)
    for value in ends:
        point = at_sweep_value(cfg, value)
        for section in _BLOCKS.get(cfg.model, ()):
            try:
                builders[section](point)
            except DomainError as exc:
                return [_in_config_terms(cfg, section, value, exc)]
    return []


def _in_config_terms(cfg: RunConfig, section: str, value: float, exc) -> Diagnostic:
    """exc, a "Class: field must ..., got v" DomainError, under the config key
    of that field with the value as written (a swept key: the sweep endpoint);
    another field named in the rule as "field (v)" reads "section.key =
    written".  Any other message stays under the block."""
    block, swept = getattr(cfg, section), cfg.sweep_axis
    at = f" (at {swept} = {value:g})"

    def key_of(name):
        return next((k for k in _REQUIRED[section] if re.fullmatch(rf"{name}(_[^_]+)?", k)), None)

    def written(key):
        return f"{value:g}{at}" if key == swept else block[key]

    def other_field(match):
        other = key_of(match[1])
        return f"{section}.{other} = {written(other)}" if other else match[0]

    rule = re.match(r"\w+: (\w+) (must .*), got ", str(exc))
    if rule and (key := key_of(rule[1])):
        must = "must be finite and > -273.15" if key == "temperature_c" \
            else re.sub(r"(\w+) \(.*?\)", other_field, rule[2])
        return Diagnostic(f"{section}.{key}", f"{must}, got {written(key)}")
    return Diagnostic(section, f"{exc}{at if swept in block else ''}")


def at_sweep_value(cfg: RunConfig, value) -> RunConfig:
    """Copy of cfg with the swept key of [atom], [medium] or [vapor] set to
    ``value``, a number or an array of them; cfg itself when no block holds
    the sweep axis."""
    for section in ("atom", "medium", "vapor"):
        raw = getattr(cfg, section)
        if cfg.sweep_axis in raw:
            return replace(cfg, **{section: {**raw, cfg.sweep_axis: value}})
    return cfg


def _floats(block: dict, keys) -> dict:
    """The values of ``keys``: a float each, a swept key's array as it is."""
    return {k: float(block[k]) if np.ndim(block[k]) == 0 else block[k] for k in keys}


def atom_params_from(cfg: RunConfig):
    """AtomParams from the [atom] block; boundary MHz -> rad/us conversion."""
    from .atom import AtomParams
    a = _floats(cfg.atom, _ATOM_KEYS)
    return AtomParams(**{key.removesuffix("_mhz"): mhz_to_rad_us(a[key]) for key in _ATOM_KEYS})


def medium_params_from(cfg: RunConfig):
    """MediumParams from the [atom] and [medium] blocks."""
    from .propagation import MediumParams
    return MediumParams(atom=atom_params_from(cfg),
                        optical_depth=_floats(cfg.medium, ("optical_depth",))["optical_depth"])


def vapor_params_from(cfg: RunConfig):
    from .vapor import VaporParams
    v = _floats(cfg.vapor, _VAPOR_KEYS)
    return VaporParams(
        temperature=celsius_to_kelvin(v["temperature_c"]),
        atomic_mass=v["atomic_mass_u"] * ATOMIC_MASS_KG,
        wavelength=v["wavelength_nm"] * 1e-9,
        pump_waist=v["pump_waist_um"] * 1e-6,
        probe_waist=v["probe_waist_um"] * 1e-6,
        cell_length=v["cell_length_mm"] * 1e-3,
        cross_section=v["cross_section_cm2"] * 1e-4,
    )


def eit_params_from(cfg: RunConfig):
    from .eit import LambdaParams
    e = {k: float(cfg.eit[k]) for k in _EIT_KEYS}
    return LambdaParams(
        gamma_e=mhz_to_rad_us(e["gamma_e_mhz"]),
        gamma_g=mhz_to_rad_us(e["gamma_g_mhz"]),
        delta1=mhz_to_rad_us(e["delta1_mhz"]),
        rabi_c=mhz_to_rad_us(e["rabi_c_mhz"]),
    )
