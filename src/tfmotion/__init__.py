"""Tempered fractional Brownian/stable motions of first and second kind.

Closed-form second-order theory, spectral densities, exact Gaussian and
Monte Carlo stable simulation, and dependence/self-similarity diagnostics.
"""

from .errors import (FactorizationError, NumericsError, PlanError, PoleError,
                     QuadratureError)
from .specfun import bessel_k, gamma_fn
from .kernels import (ProcessParams, QuadratureConfig, kernel, kernel_g,
                      kernel_h, kernel_alpha_norm)
from .gaussian import (CovarianceMatrix, PathEnsemble, SampleGrid,
                       build_cov_matrix, covariance_tfbm2, simulate_gaussian_paths,
                       tfgn1_spectral_density, tfgn2_spectral_density,
                       tfgn2_acvf, variance_fbm_limit, variance_tfbm2)
from .stable import DiscretizationPlan, sample_stable, simulate_tfsm_paths
from .dependence import (DecayDiagnostic, codifference, decay_diagnostic,
                         global_limit_check, local_limit_check)

__version__ = "0.1.0"

__all__ = [
    "FactorizationError", "NumericsError", "PlanError", "PoleError",
    "QuadratureError",
    "bessel_k", "gamma_fn",
    "ProcessParams", "QuadratureConfig", "kernel", "kernel_g", "kernel_h",
    "kernel_alpha_norm",
    "CovarianceMatrix", "PathEnsemble", "SampleGrid",
    "build_cov_matrix", "covariance_tfbm2", "simulate_gaussian_paths",
    "tfgn1_spectral_density", "tfgn2_spectral_density", "tfgn2_acvf",
    "variance_fbm_limit", "variance_tfbm2",
    "DiscretizationPlan", "sample_stable", "simulate_tfsm_paths",
    "DecayDiagnostic", "codifference", "decay_diagnostic",
    "global_limit_check", "local_limit_check",
]
