import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _traced() -> tuple:
    """The (module, function) pairs the benchmark's span tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_function_resolves():
    # the benchmark's span tracer wraps these by name and fails on a missing one
    for module, function in _traced():
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


# The start-up and each command load only the modules they run.
_START_UP = ("import sys, iwhc, iwhc.cli\n"
             "from iwhc import datasets\n"
             "datasets.resolve('flood'), datasets.resolve('guinea')\n")


def _loaded(code: str, names) -> list:
    """Those of the package's modules ``names`` loaded after ``code`` runs in
    a fresh interpreter."""
    return json.loads(_fresh_import(
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {list(names)!r} if 'iwhc.' + m in sys.modules]))\n"))


def test_start_up_loads_no_estimator_module():
    assert _loaded(_START_UP, ["posterior", "harness", "mle", "censoring", "lindley"]) == []


@pytest.mark.parametrize("argv", [["fit", "flood", "--json"],
                                  ["censor", "guinea", "--big-r", "50", "--time", "90"],
                                  ["gof", "flood", "--sims", "200"]])
def test_quick_commands_load_neither_posterior_nor_harness(argv):
    code = (f"{_START_UP}import contextlib, io\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert iwhc.cli.main({argv!r}) == 0\n")
    assert _loaded(code, ["posterior", "harness"]) == []


def test_the_study_workloads_load_every_traced_module():
    # the tracer looks each module up in sys.modules once the warm-up has run,
    # and a study workload loads only what these names and run_study load
    traced = sorted({module for module, _ in _traced()})
    assert _loaded("from iwhc import GammaPriors, StudyConfig, cli, harness", traced) == traced


def test_each_public_name_is_the_object_of_its_home_module():
    # every submodule that binds a public name binds the same object
    homes = {}
    for info in pkgutil.iter_modules(iwhc.__path__):
        module = importlib.import_module(f"iwhc.{info.name}")
        for name in set(vars(module)) & PUBLIC:
            homes.setdefault(name, []).append(module)
    assert set(homes) == PUBLIC - {"__version__"}
    for name, modules in homes.items():
        assert all(getattr(iwhc, name) is getattr(m, name) for m in modules), name


def test_public_names_resolve_on_first_access():
    code = ("import json, sys, iwhc\n"
            "listed = set(iwhc.__all__) <= set(dir(iwhc))\n"
            "before = sorted(m for m in sys.modules if m.startswith('iwhc.'))\n"
            "from iwhc import *\n"
            "bound = sum(name in globals() for name in iwhc.__all__)\n"
            "print(json.dumps([listed, before, bound, iwhc.fit_mle is iwhc.mle.fit_mle]))\n")
    assert json.loads(_fresh_import(code)) == [True, [], len(PUBLIC), True]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'iwhc' has no attribute 'fit_bootstrap'"):
        iwhc.fit_bootstrap
    assert not hasattr(iwhc, "__wrapped__")


def test_from_iwhc_import_cli_returns_the_submodule():
    code = ("import sys\n"
            "from iwhc import cli\n"
            "print(cli is sys.modules['iwhc.cli'] and callable(cli.main))\n")
    assert _fresh_import(code) == "True"
