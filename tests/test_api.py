import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import iwhc

# Growing the public API is a reviewed decision: extend this set with it.
PUBLIC = {
    "HybridScheme", "HybridSample", "ReciprocalSample", "apply_scheme", "reciprocals",
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
}


def test_package_exports_are_pinned():
    assert set(iwhc.__all__) == PUBLIC
    assert len(iwhc.__all__) == len(PUBLIC)
    for name in iwhc.__all__:
        assert hasattr(iwhc, name), name


def test_every_submodule_export_resolves():
    for info in pkgutil.iter_modules(iwhc.__path__):
        module = importlib.import_module(f"iwhc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"iwhc.{info.name}.{name}"


def test_every_traced_function_resolves():
    # the benchmark's span tracer wraps these by name and fails on a missing one
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"iwhc.{module}"), function, None)), \
            f"iwhc.{module}.{function}"


def _fresh_import(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(iwhc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip()


def test_import_path_loads_no_scipy():
    # scipy is a test dependency only: importing the package and the CLI and
    # reading the bundled data must not pull it in (it doubles import time)
    code = ("import sys, iwhc, iwhc.cli\n"
            "from iwhc import datasets\n"
            "datasets.resolve('flood'), datasets.resolve('guinea')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_import(code) == "[]"


def test_import_path_loads_no_numpy_random():
    # numpy loads numpy.random on first use; the package makes no generator
    # at import, which would add to every command's start-up
    assert _fresh_import("import sys, iwhc, iwhc.cli\n"
                         "print('numpy.random' in sys.modules)\n") == "False"
