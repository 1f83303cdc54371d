"""Inverse Weibull estimation from Type-I hybrid censored lifetime data.

Library layout:

- ``distribution``: density, cdf, quantile, sampling, parametrizations
- ``censoring``: hybrid schemes and censored-sample containers
- ``mle``: likelihood, score, observed information, Newton fit, intervals
- ``lindley``: expansion-based approximate Bayes point estimates
- ``posterior``: exact posterior factorization, log-concave sampling,
  importance-sampling estimates and highest-density intervals
- ``gof``: distance test for complete samples
- ``harness``: Monte Carlo simulation study over censoring designs
- ``datasets``: bundled example data and the text data-file format
- ``cli``: the ``iwhc`` command line tool
"""

from .censoring import HybridSample, HybridScheme, ReciprocalSample, apply_scheme, reciprocals
from .distribution import IwParams, cdf, pdf, quantile, rate_from_scale, sample, scale_from_rate
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .gof import KsResult, ks_statistic, ks_test
from .harness import SimulationSummary, StudyConfig, run_study
from .lindley import GammaPriors, LindleyEstimate, lindley_estimates, third_derivatives
from .mle import (
    ConfidenceInterval,
    CovarianceMatrix,
    FisherMatrix,
    MleFit,
    asymptotic_ci,
    fit_mle,
    log_likelihood,
    observed_fisher,
    score,
)
from .posterior import (
    BayesEstimate,
    IsResult,
    PosteriorDraws,
    bayes_is,
    g2_log_density,
    hpd_interval,
    posterior_draws,
    sample_g2,
    weighted_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "HybridSample", "HybridScheme", "ReciprocalSample", "apply_scheme", "reciprocals",
    "IwParams", "cdf", "pdf", "quantile", "rate_from_scale", "sample", "scale_from_rate",
    "ConvergenceError", "DegenerateWeightsError", "DomainError",
    "InsufficientDataError", "NumericError",
    "KsResult", "ks_statistic", "ks_test",
    "SimulationSummary", "StudyConfig", "run_study",
    "GammaPriors", "LindleyEstimate", "lindley_estimates", "third_derivatives",
    "ConfidenceInterval", "CovarianceMatrix", "FisherMatrix", "MleFit",
    "asymptotic_ci", "fit_mle", "log_likelihood", "observed_fisher", "score",
    "BayesEstimate", "IsResult", "PosteriorDraws", "bayes_is", "g2_log_density",
    "hpd_interval", "posterior_draws", "sample_g2",
    "weighted_quantile",
    "__version__",
]
