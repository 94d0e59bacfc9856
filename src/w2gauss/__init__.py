"""Numerical laboratory for Gaussian 2-Wasserstein asymptotics.

Exact one- and two-sample squared 2-Wasserstein distances from sorted
Gaussian samples, the Gaussian special functions and tail expansions that
control them, singular integrals of the variance weight (with honest
divergence detection), extreme-order-statistic moments, coupled
Brownian-bridge limit-law simulation by two independent mechanisms, and a
seeded deterministic experiment runner.
"""

from .errors import (CovarianceError, DivergenceError, DomainError,
                     QuadratureError)
from .experiments import (EXPERIMENTS, ExperimentConfig, replicate_w2sq,
                          run_experiment, run_expansions, run_integrals,
                          run_limit_compare, run_moments, run_one_sample,
                          run_two_sample, write_outputs)
from .extremes import (GAMMA0, VARIANTS, ExtremeMoment, HarmonicSums,
                       MomentEstimate,
                       extreme_mean, extreme_var, harmonic_expansion_gap,
                       harmonic_sums, order_stat_cdf, resolve_index_variant,
                       sample_extreme, uniform_quantile_central_moment)
from .integrals import (DELTA_FLOOR, LOG2_PLUS_GAMMA0,
                        DiagonalTailDiagnostics, SingularIntegralResult,
                        bickel_integral, copula_diagonal_tail, d1n,
                        limit_second_moment, second_moment_windows,
                        truncated_second_moment, variance_weight)
from .limitlaw import (MECHANISMS, BridgePair, GridSpec, KSResult,
                       LimitSample, bridge_covariance, build_grid,
                       expected_functional, g_functional, ks_two_sample,
                       sample_limit_law, simulate_bridge_pair_coupled,
                       simulate_bridge_pair_gaussian, truncation_bias)
from .special import (Correlation, ScaledTail, TailExpansion, UnitProb,
                      as_correlation, bivariate_normal_cdf,
                      bivariate_normal_survival, copula_diagonal_gap,
                      density_quantile_h, gaussian_copula, h_tail_expansion,
                      mills_ratio_bound, psi, psi_expansion,
                      quantile_tail_expansion,
                      quantile_tail_expansion_groupings, scaled_tail,
                      std_normal_cdf, std_normal_log_sf, std_normal_pdf,
                      std_normal_quantile, std_normal_sf)
from .streams import (DOMAINS, correlated_normal_pairs, standard_normals,
                      substream, uniforms_open)
from .wasserstein import (GaussianReference, STANDARD, SortedSample,
                          W2Decomposition, expected_one_sample_w2sq,
                          quantile_integral, quantile_sq_integral,
                          tail_decomposition, w2sq_two_sample,
                          w2sq_vs_gaussian)

__version__ = "0.1.0"

__all__ = [
    "CovarianceError", "DivergenceError", "DomainError", "QuadratureError",
    "EXPERIMENTS", "ExperimentConfig", "replicate_w2sq", "run_experiment",
    "run_expansions",
    "run_integrals", "run_limit_compare", "run_moments", "run_one_sample",
    "run_two_sample", "write_outputs",
    "VARIANTS",
    "GAMMA0", "ExtremeMoment", "HarmonicSums", "MomentEstimate",
    "extreme_mean", "extreme_var", "harmonic_expansion_gap", "harmonic_sums",
    "order_stat_cdf", "resolve_index_variant", "sample_extreme",
    "uniform_quantile_central_moment",
    "DELTA_FLOOR", "LOG2_PLUS_GAMMA0", "DiagonalTailDiagnostics",
    "SingularIntegralResult", "bickel_integral", "copula_diagonal_tail",
    "d1n", "limit_second_moment", "second_moment_windows",
    "truncated_second_moment", "variance_weight",
    "MECHANISMS", "BridgePair", "GridSpec", "KSResult", "LimitSample",
    "bridge_covariance", "build_grid", "expected_functional", "g_functional",
    "ks_two_sample", "sample_limit_law", "simulate_bridge_pair_coupled",
    "simulate_bridge_pair_gaussian", "truncation_bias",
    "Correlation", "ScaledTail", "TailExpansion", "UnitProb",
    "as_correlation", "bivariate_normal_cdf", "bivariate_normal_survival",
    "copula_diagonal_gap", "density_quantile_h", "gaussian_copula",
    "h_tail_expansion", "mills_ratio_bound", "psi", "psi_expansion",
    "quantile_tail_expansion", "quantile_tail_expansion_groupings",
    "scaled_tail", "std_normal_cdf", "std_normal_log_sf", "std_normal_pdf",
    "std_normal_quantile", "std_normal_sf",
    "correlated_normal_pairs", "standard_normals", "substream",
    "uniforms_open",
    "DOMAINS",
    "GaussianReference", "STANDARD", "SortedSample", "W2Decomposition",
    "expected_one_sample_w2sq", "quantile_integral", "quantile_sq_integral",
    "tail_decomposition", "w2sq_two_sample", "w2sq_vs_gaussian",
    "__version__",
]
