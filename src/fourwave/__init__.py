"""Gain and quantum-noise spectra of four-wave mixing in a double-lambda
atomic medium: steady state, two-mode propagation with Langevin noise,
hot-vapor Doppler averaging, EIT susceptibility and reference amplifier
models."""

from .atom import (AtomParams, DiffusionSet, SteadyState, build_coherence_system,
                   build_drift_m0, diffusion_set, preparation_probability,
                   slowest_relaxation, steady_state)
from .eit import (LambdaParams, absorption_spectrum, susceptibility,
                  transparency_window)
from .propagation import (IntegratedDiffusion, MeanFieldOut, MediumParams,
                          calibrate_langevin_scale, commutator_defect, gains,
                          generator, integrated_diffusion)
from .reference import (SliceChainParams, detection_loss, ideal_pia_means,
                        ideal_pia_noise, nlo_pia_transfer, nlo_psa_field,
                        psa_gain, psa_noise, sliced_amp_loss, unbalanced_loss)
from .spectra import Observables, evaluate, observables, to_dB
from .vapor import (VaporParams, doppler_absorption, doppler_generator,
                    maxwell_pdf, residual_transmission, slice_consistency,
                    transit_time, vapor_density)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
