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

``import iwhc`` loads none of these modules.  Each public name (and each
module, as ``iwhc.mle``) is loaded from its home module on first access
(PEP 562), so a command of the ``iwhc`` tool loads only the modules it runs:
``fit``, ``censor`` and ``gof`` never load ``posterior`` or ``harness``.
"""

import importlib

# the home module of each public name; __all__ follows this order
_EXPORTS = {
    "censoring": ("HybridSample", "HybridScheme", "ReciprocalSample", "apply_scheme",
                  "reciprocals"),
    "distribution": ("IwParams", "cdf", "pdf", "quantile", "rate_from_scale", "sample",
                     "scale_from_rate"),
    "errors": ("ConvergenceError", "DegenerateWeightsError", "DomainError",
               "InsufficientDataError", "NumericError"),
    "gof": ("KsResult", "ks_statistic", "ks_test"),
    "harness": ("SimulationSummary", "StudyConfig", "run_study"),
    "lindley": ("GammaPriors", "LindleyEstimate", "lindley_estimates", "third_derivatives"),
    "mle": ("ConfidenceInterval", "CovarianceMatrix", "FisherMatrix", "MleFit",
            "asymptotic_ci", "fit_mle", "log_likelihood", "observed_fisher", "score"),
    "posterior": ("BayesEstimate", "IsResult", "PosteriorDraws", "bayes_is",
                  "g2_log_density", "hpd_interval", "posterior_draws", "sample_g2",
                  "weighted_quantile"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset({*_EXPORTS, "datasets", "cli"})

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value     # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
