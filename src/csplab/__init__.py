"""csplab: compression-code based compressed sensing laboratory.

Build fixed-rate codes with enumerable codebooks for structured signal
classes, measure signals with random Gaussian matrices or Wiener-integral
operators, recover them by exhaustive codeword pursuit, and compare the
empirical errors against closed-form guarantees.
"""

from .bounds import (BoundEvaluation, BoundInputs, FiniteDimRate,
                     IndistinguishablePair, OptimizationResult, ParameterError,
                     PolylogRate, PowerlawRate, chi2_tail,
                     construct_indistinguishable_pair, evaluate_bound,
                     measurement_budget, optimize_free_params,
                     singular_value_tail)
from .codecs import (CapacityError, Codec, DomainError, ExplicitCodec,
                     GridCodec, PiecewisePolyCodec, RateDistortionPoint,
                     SparseCodec, codec_from_config, entropy_lower_bound,
                     rd_profile)
from .harness import (ExperimentConfig, SweepPoint, SweepResult, TrialRecord,
                      build_panel, provenance_text, records_to_csv, run_sweep,
                      run_trial, run_trials)
from .measurement import (MeasurementEnsemble, NoiseModel, WienerEnsemble,
                          apply_noise, measure, measure_analog,
                          sample_ensemble, sample_wiener_ensemble)
from .piecewise import (PiecewisePolynomial, constant_function,
                        piecewise_constant)
from .rng import derive_stream, gaussian_matrix, gaussian_vector
from .solver import (RecoveryResult, csp_recover, csp_recover_analog,
                     csp_recover_panel)
from .svgplot import render_svg

__version__ = "0.1.0"

__all__ = [
    "BoundEvaluation", "BoundInputs", "CapacityError", "Codec", "DomainError",
    "ExperimentConfig", "ExplicitCodec", "FiniteDimRate", "GridCodec",
    "IndistinguishablePair", "MeasurementEnsemble", "NoiseModel",
    "OptimizationResult", "ParameterError", "PiecewisePolyCodec",
    "PiecewisePolynomial", "PolylogRate", "PowerlawRate", "RateDistortionPoint",
    "RecoveryResult", "SparseCodec", "SweepPoint", "SweepResult", "TrialRecord",
    "WienerEnsemble",
    "apply_noise", "build_panel", "chi2_tail", "codec_from_config",
    "constant_function", "construct_indistinguishable_pair", "csp_recover",
    "csp_recover_analog", "csp_recover_panel", "derive_stream",
    "entropy_lower_bound", "evaluate_bound", "gaussian_matrix",
    "gaussian_vector", "measure", "measure_analog", "measurement_budget",
    "optimize_free_params", "piecewise_constant", "provenance_text",
    "rd_profile", "records_to_csv", "render_svg", "run_sweep", "run_trial",
    "run_trials", "sample_ensemble", "sample_wiener_ensemble",
    "singular_value_tail",
]
