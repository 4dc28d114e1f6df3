"""Gain and quantum-noise spectra of four-wave mixing in a double-lambda
atomic medium: steady state, two-mode propagation with Langevin noise,
hot-vapor Doppler averaging, EIT susceptibility and reference amplifier
models.  The vapor, EIT and reference models, and their names here, load
on first use."""

from importlib import import_module as _import_module

from .atom import (AtomParams, DiffusionSet, SteadyState, build_coherence_system,
                   build_drift_m0, diffusion_set, preparation_probability,
                   slowest_relaxation, steady_state)
from .propagation import (MeanFieldOut, MediumParams, commutator_defect, gains, generator,
                          integrated_diffusion)
from .spectra import Observables, evaluate, observables, to_dB

# The module of each name loaded on first use; a module names itself.
_LAZY = {name: module for module, names in {
    "eit": ("LambdaParams", "absorption_spectrum", "susceptibility", "transparency_window"),
    "reference": ("SliceChainParams", "detection_loss", "ideal_pia_means", "ideal_pia_noise",
                  "nlo_pia_transfer", "nlo_psa_field", "psa_gain", "psa_noise",
                  "sliced_amp_loss", "unbalanced_loss"),
    "vapor": ("VaporParams", "doppler_absorption", "doppler_generator", "maxwell_pdf",
              "residual_transmission", "slice_consistency", "transit_time", "vapor_density"),
}.items() for name in (module, *names)}


def __getattr__(name):
    """A lazily loaded module, or a name from one (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))
__version__ = "0.1.0"
