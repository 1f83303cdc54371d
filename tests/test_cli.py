import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwhc import DomainError, HybridScheme, cli, datasets
from iwhc.cli import main
from conftest import censored_samples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_fit_complete_flood(capsys):
    report = run_json(capsys, "fit", "flood")
    assert report["report_version"] == 1
    assert report["results"]["alpha"] == pytest.approx(4.3143, abs=1e-3)
    assert report["results"]["theta"] == pytest.approx(2.7905, abs=1e-3)
    assert report["results"]["converged"] is True
    assert report["input"]["censoring"]["r"] == 20


def test_fit_guinea_scheme2(capsys):
    report = run_json(capsys, "fit", "guinea", "--big-r", "60", "--time", "150")
    assert report["results"]["alpha"] == pytest.approx(1.3688, abs=1e-3)
    assert report["results"]["theta"] == pytest.approx(0.0182, abs=1e-3)
    assert report["input"]["censoring"]["u"] == 146.0


def test_fit_matches_library(capsys, flood_s1):
    from iwhc import fit_mle

    report = run_json(capsys, "fit", "flood", "--big-r", "18", "--time", "0.5")
    fit = fit_mle(flood_s1)
    assert report["results"]["alpha"] == pytest.approx(fit.alpha_hat, rel=1e-12)
    assert report["results"]["theta"] == pytest.approx(fit.theta_hat, rel=1e-12)


def test_fit_reads_files(capsys, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# comment line\n1.0 2.0 3.0\n4.0\n5.0 6.0 7.0 8.0\n")
    report = run_json(capsys, "fit", str(path))
    assert report["input"]["count"] == 8


def test_bundled_data_is_a_fresh_array_each_call():
    first = datasets.resolve("flood")
    want = first.copy()
    first[:] = -1.0
    again = datasets.resolve("flood")
    assert np.array_equal(again, want)
    assert again is not datasets.load_bundled("flood")
    with pytest.raises(DomainError, match="unknown bundled dataset"):
        datasets.load_bundled("nile")


def test_scheme_needs_both_flags(capsys):
    code, out, err = run_cli(capsys, "fit", "flood", "--big-r", "18")
    assert code == 1
    assert "both" in err


def test_missing_file_fails(capsys):
    code, out, err = run_cli(capsys, "fit", "/nonexistent/data.txt")
    assert code == 1


def test_insufficient_data_fails(capsys, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.0 2.0 3.0\n")
    code, out, err = run_cli(capsys, "fit", str(path), "--big-r", "2", "--time", "0.5")
    assert code == 1
    assert "failures" in err


def test_fit_tied_data_has_no_mle(capsys, tmp_path):
    path = tmp_path / "tied.txt"
    path.write_text("1 1 1 1 1\n")
    code, out, err = run_cli(capsys, "fit", str(path), "--json")
    assert code == 1
    assert out == ""
    assert "tied" in err


def test_fit_converges_where_the_censoring_factor_underflows(capsys, tmp_path):
    # exited 2: the clamped censoring term let Newton run off to alpha = 8.5e191
    path = tmp_path / "tied.txt"
    path.write_text("1 " * 16 + "2 3\n")
    report = run_json(capsys, "fit", str(path), "--big-r", "17", "--time", "1.003877522497901")
    assert report["results"]["alpha"] == pytest.approx(2067.560, rel=1e-6)
    assert report["results"]["converged"] is True


@pytest.mark.filterwarnings("error")     # a numpy warning would print a second line
def test_fit_with_an_overflowing_covariance_fails_with_one_error_line(capsys, tmp_path):
    # six failures within 2% of each other; the covariance overflows to inf
    times = [876.4088958007841, 876.8465154682667, 889.0327210406107, 890.6039051225001,
             891.4125952009579, 891.4342880221113]
    path = tmp_path / "data.txt"
    path.write_text(" ".join(map(repr, times + [5000.0] * 29)))
    code, out, err = run_cli(capsys, "fit", str(path), "--big-r", "6", "--time", "1e9")
    assert (code, out) == (2, "")
    assert err.startswith("error: covariance matrix is not positive definite")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_fit_with_an_overflowing_regression_start_fails_with_one_error_line(capsys, tmp_path):
    # lifetimes near 1e150: the start's lam = r / sum x**alpha overflows to inf
    times = [1.0503058208139734e+150, 2.4270890441582012e+150, 4.536495187358006e+149,
             6.941406644390681e+149, 1.2545219862857242e+150, 9.566168490614521e+149,
             1.7843745323766974e+150, 7.481658595511192e+149, 6.335291628646696e+149,
             1.088748692918536e+150, 2.0616971221545144e+150, 8.51561570988147e+149,
             1.9306745972809093e+150, 1.2880823128013326e+150, 1.0396403958663661e+150,
             2.3287967333547094e+150, 8.281096878388988e+149, 9.682031172896633e+149,
             7.998019035790862e+149, 9.258297216871484e+149]
    path = tmp_path / "data.txt"
    path.write_text(" ".join(map(repr, times)))
    code, out, err = run_cli(capsys, "fit", str(path), "--big-r", "18", "--time", "1e150")
    assert (code, out) == (2, "")
    assert err.startswith("error: the regression start (alpha, lam) = (2.129")
    assert ", inf) is not in (0, inf)**2" in err
    assert err.count("\n") == 1


def test_bayes_is_improper_posterior_fails(capsys, tmp_path):
    path = tmp_path / "tied.txt"
    path.write_text("1 1 1 1 1\n")
    code, out, err = run_cli(capsys, "bayes", str(path), "--method", "is")
    assert code == 1
    assert out == ""
    assert "improper" in err


def test_bayes_is_improper_posterior_with_a_rounded_mode_fails(capsys, tmp_path, deadline):
    # sixteen failures tied at u = 0.003 of 39 units: the sampler never returned
    deadline(10)
    path = tmp_path / "tied.txt"
    path.write_text("0.003 " * 16 + "1.0 " * 23 + "\n")
    code, out, err = run_cli(capsys, "bayes", str(path), "--big-r", "16", "--time", "0.5",
                             "--method", "is")
    assert code == 1
    assert out == ""
    assert "improper" in err


def test_bayes_is_lam_overflow_fails(capsys, tmp_path, deadline):
    # the shape posterior reaches alphas where lam overflows float64; this
    # command used to run forever
    deadline(10)
    path = tmp_path / "wide.txt"
    path.write_text("9.22 9.29 9.82 9.99 10.13 10.31\n")
    code, out, err = run_cli(capsys, "bayes", str(path), "--big-r", "4", "--time", "9.308",
                             "--method", "is", "--draws", "200")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflow" in err


def test_censor_scheme2_listing(capsys):
    report = run_json(capsys, "censor", "flood", "--big-r", "14", "--time", "0.45")
    times = report["results"]["times"]
    assert len(times) == 14
    assert times[-1] == pytest.approx(0.423)


def test_bayes_is_deterministic_and_seeded(capsys):
    a = run_json(capsys, "bayes", "flood", "--big-r", "18", "--time", "0.5",
                 "--method", "is", "--draws", "2000", "--seed", "11")
    b = run_json(capsys, "bayes", "flood", "--big-r", "18", "--time", "0.5",
                 "--method", "is", "--draws", "2000", "--seed", "11")
    assert a == b
    assert a["method"]["seed"] == 11
    assert a["method"]["ess"] > 0
    lo, hi = a["results"]["alpha"]["hpd"]
    assert lo < a["results"]["alpha"]["mean"] < hi


def test_bayes_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("IWHC_SEED", "99")
    report = run_json(capsys, "bayes", "flood", "--method", "is", "--draws", "500")
    assert report["method"]["seed"] == 99


@pytest.mark.parametrize("env, argv, needle", [
    ("abc", (), "IWHC_SEED"),
    ("-3", (), "seed"),
    ("", ("--seed", "-1"), "seed"),
])
def test_bad_seed_fails(capsys, monkeypatch, env, argv, needle):
    monkeypatch.setenv("IWHC_SEED", env)
    code, out, err = run_cli(capsys, "bayes", "flood", "--method", "is", "--draws", "500", *argv)
    assert code == 1
    assert needle in err


@pytest.mark.xfail(reason="published interval is inconsistent with the stated "
                          "model (see README)", strict=False)
def test_bayes_is_flood_scheme2_theta_hpd(capsys):
    report = run_json(capsys, "bayes", "flood", "--big-r", "14", "--time", "0.45",
                      "--method", "is", "--draws", "10000", "--seed", "42")
    lo, hi = report["results"]["theta"]["hpd"]
    assert lo == pytest.approx(2.2718, abs=0.2)
    assert hi == pytest.approx(3.0145, abs=0.2)


def test_bad_prior_flag(capsys):
    code, out, err = run_cli(capsys, "bayes", "flood", "--method", "is",
                             "--prior", "1,2,3")
    assert code == 1
    assert "prior" in err


@pytest.mark.parametrize("method", ["lindley", "is"])
@pytest.mark.parametrize("prior", ["a,b,c,d", "1,2,3,x", "1,,1,1", "1,2,3,4,5", "1,-2,1,1"])
def test_non_numeric_or_negative_prior_fails_with_one_error_line(capsys, method, prior):
    code, out, err = run_cli(capsys, "bayes", "flood", "--method", method, "--prior", prior)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gof_flood(capsys):
    report = run_json(capsys, "gof", "flood", "--sims", "40000")
    assert report["results"]["statistic"] == pytest.approx(0.1060, abs=1e-3)
    assert report["results"]["p_value"] == pytest.approx(0.8557, abs=0.02)


def test_gof_zero_sims_fails(capsys):
    code, out, err = run_cli(capsys, "gof", "flood", "--sims", "0")
    assert code == 1
    assert "sims" in err


def test_gof_unallocatable_null_table_fails(capsys):
    sims = 2 ** 62
    code, out, err = run_cli(capsys, "gof", "flood", "--sims", str(sims))
    assert code == 1
    assert out == ""
    assert f"sims={sims}" in err and f"{8 * sims} bytes" in err


@pytest.mark.parametrize("argv, config", [
    (("bayes", "flood", "--method", "is", "--draws", str(10 ** 30)), None),
    (("simulate",), {"draws": 10 ** 30}),
    (("simulate",), {"cells": [[10 ** 30, 1.5, 8]]}),
], ids=["bayes-draws", "simulate-draws", "simulate-n"])
def test_unallocatable_counts_fail_with_one_error_line(capsys, tmp_path, argv, config):
    if config is not None:
        study = {"true_alpha": 2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]],
                 "replicates": 1, "draws": 100, **config}
        (tmp_path / "study.json").write_text(json.dumps(study))
        argv = (*argv, str(tmp_path / "study.json"), "--out-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cannot be allocated" in err


@pytest.mark.parametrize("argv, needle", [
    (("fit", "{tmp}"), "{tmp}"),
    (("fit", "{tmp}/bytes.txt"), "bytes.txt: not a text file"),
    (("simulate", "{tmp}/bytes.txt"), "bytes.txt: not a text file"),
    (("simulate", "{tmp}/study.json", "--out-dir", "{tmp}/file"), "file"),
    (("simulate", "{tmp}/study.json", "--out-dir", "{tmp}/file/sub"), "file/sub"),
], ids=["fit-directory", "fit-undecodable", "simulate-undecodable", "out-dir-is-a-file",
        "out-dir-under-a-file"])
def test_unreadable_or_unwritable_paths_fail_with_one_error_line(capsys, tmp_path, argv, needle):
    (tmp_path / "bytes.txt").write_bytes(b"\xff 1.0 2.0\n")
    (tmp_path / "file").write_text("")
    (tmp_path / "study.json").write_text(json.dumps(
        {"true_alpha": 2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]], "replicates": 1,
         "methods": ["mle"]}))
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle.format(tmp=tmp_path) in err


def test_simulate_checks_the_out_dir_before_the_study(capsys, tmp_path, monkeypatch):
    def study(config):
        raise AssertionError("run_study ran before the output directory was checked")
    monkeypatch.setattr(cli, "run_study", study)
    (tmp_path / "file").write_text("")
    (tmp_path / "study.json").write_text(json.dumps(
        {"true_alpha": 2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]], "replicates": 3000}))
    code, out, err = run_cli(capsys, "simulate", str(tmp_path / "study.json"),
                             "--out-dir", str(tmp_path / "file"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gof_curve_columns(capsys):
    report = run_json(capsys, "gof", "flood", "--sims", "5000", "--curve")
    curve = report["results"]["curve"]
    assert len(curve) == 20
    assert curve[0]["x"] == pytest.approx(0.265)
    assert 0 <= curve[0]["fitted"] <= 1
    assert curve[-1]["ecdf"] == 1.0


def test_simulate_end_to_end(capsys, tmp_path):
    config = {
        "true_alpha": 2.0, "true_lambda": 1.0,
        "cells": [[12, 1.5, 8]],
        "priors": [[0, 0, 0, 0]],
        "replicates": 5, "draws": 200, "base_seed": 5,
        "methods": ["mle", "is"],
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert "Average estimates" in out
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert "average_estimate" in header and "failures" in header


def test_simulate_json_rows(capsys, tmp_path):
    config = {
        "true_alpha": 2.0, "true_lambda": 1.0,
        "cells": [[10, 1.5, 10]],
        "replicates": 3, "draws": 100, "base_seed": 2,
        "methods": ["mle"],
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(config))
    report = run_json(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path))
    assert len(report["results"]) == 2
    assert {row["parameter"] for row in report["results"]} == {"alpha", "lambda"}


@pytest.mark.parametrize("text, needle", [
    ('{"true_alpha": 2, "true_lambda": 1, "cells": [[12, 1.5]]}', "[n, T, R]"),
    ('{"true_alpha": 2, "true_lambda": 1, "cells": 12}', "[n, T, R]"),
    ('{"true_alpha": 2, "true_lambda": 1, "cells": [[12, 1.5, 8]], "priors": [[2, 1]]}',
     "[a, b, c, d]"),
    ('{"true_alpha": 2, "cells": [[12, 1.5, 8]]}', "true_lambda"),
    ('{"true_alpha": 2, "true_lambda": 1, "cells": [[12, 1.5, 8]], "draws": "many"}',
     "malformed"),
    ('{"true_alpha": 2, "true_lambda": 1, "cells": [[12.7, 1.5, 8.9]]}',
     "malformed study config: n must be an integer, got 12.7"),
    ('[[12, 1.5, 8]]', "JSON object"),
    ('{"true_alpha": 2, "true_lambda": 1, "cells": [[12, 1.5, 8]], "methods": ["is"], '
     '"priors": []}', "no estimator"),
], ids=["short-cell", "cells-not-list", "short-prior", "missing-key", "bad-number",
        "fractional-cell", "not-object", "no-estimator"])
def test_simulate_malformed_config_fails(capsys, tmp_path, text, needle):
    cfg = tmp_path / "study.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "simulate", str(cfg), "--out-dir", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not (tmp_path / "summary.csv").exists()


def test_human_readable_output(capsys):
    code, out, err = run_cli(capsys, "fit", "flood")
    assert code == 0
    assert "MLE: alpha=4.3143" in out
    assert "95% CI alpha" in out


# text reports as printed, line for line
_GOLDEN_TEXT = {
    "fit-censored": (("fit", "flood", "--big-r", "18", "--time", "0.5"), """\
observed r=17 of n=20, censoring terminus u=0.5
MLE: alpha=4.4191  theta=2.8015  lambda=0.0105412  (loglik 14.1020, 5 iterations)
95% CI alpha : (2.8505, 5.9878)
95% CI lambda: (-0.00876326, 0.0298457)
95% CI theta : (2.5052, 3.0979)
"""),
    "censor": (("censor", "flood", "--big-r", "14", "--time", "0.45"), """\
observed r=14 of n=20, censoring terminus u=0.423
0.265 0.269 0.297 0.315 0.324 0.338 0.379 0.379 0.392 0.402 0.412 0.416 0.418 0.423
"""),
    "bayes-lindley": (("bayes", "flood", "--big-r", "18", "--time", "0.5", "--method", "lindley",
                       "--prior", "2,1,1,1"), """\
observed r=17 of n=20, censoring terminus u=0.5
expansion estimate: alpha=3.3019  theta=2.9332  lambda=0.0286344
"""),
    "bayes-is-low-ess": (("bayes", "flood", "--big-r", "10", "--time", "0.35", "--method", "is",
                          "--draws", "300", "--seed", "7"), """\
observed r=6 of n=20, censoring terminus u=0.35
posterior means (M=300, seed=7): alpha=5.0098  theta=2.9073  lambda=0.0056489
95% HPD alpha : (4.0670, 5.4658)
95% HPD lambda: (0.00295232, 0.0116064)
95% HPD theta : (2.8621, 3.0143)
effective sample size 3.5, acceptance ratio 0.991
warning: effective sample size 3.5 of 300 draws; posterior summaries are noisy under heavy \
censoring
"""),
    "gof-curve": (("gof", "flood", "--sims", "2000", "--seed", "4", "--curve"), """\
fitted complete-sample MLE: alpha=4.3143 theta=2.7906
distance D=0.1060   p-value=0.8580   (n=20)
           x       ecdf     fitted
       0.265     0.0500     0.0253
       0.269     0.1000     0.0319
       0.297     0.1500     0.1056
       0.315     0.2000     0.1748
       0.324     0.2500     0.2134
       0.338     0.3000     0.2761
       0.379     0.3500     0.4560
       0.379     0.4000     0.4560
       0.392     0.4500     0.5072
       0.402     0.5000     0.5439
       0.412     0.5500     0.5782
       0.416     0.6000     0.5913
       0.418     0.6500     0.5977
       0.423     0.7000     0.6133
       0.449     0.7500     0.6853
       0.484     0.8000     0.7608
       0.494     0.8500     0.7786
       0.613     0.9000     0.9061
       0.654     0.9500     0.9281
        0.74     1.0000     0.9572
"""),
}


@pytest.mark.parametrize("argv, text", _GOLDEN_TEXT.values(), ids=_GOLDEN_TEXT.keys())
def test_text_report_is_unchanged(capsys, argv, text):
    assert run_cli(capsys, *argv) == (0, text, "")


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    cli._parser.cache_clear()
    first = run_cli(capsys, "fit", "flood", "--json")
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    run_json(capsys, "bayes", "flood", "--big-r", "18", "--time", "0.5",
             "--method", "is", "--seed", "3")
    assert run_cli(capsys, "fit", "flood", "--json") == first


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


def _check_report(argv, report):
    res = report["results"]
    assert report["input"]["censoring"]["r"] <= report["input"]["count"]
    if argv[0] == "fit":
        assert res["converged"] is True
        for name in ("alpha", "lambda", "theta"):
            lo, hi = res["ci_" + name]
            assert lo < res[name] < hi
        assert res["alpha"] > 0 and res["lambda"] > 0
        assert res["theta"] == pytest.approx(res["lambda"] ** (-1 / res["alpha"]), rel=1e-9)
    elif argv[0] == "gof":
        assert 0 <= res["statistic"] <= 1 and 0 <= res["p_value"] <= 1
        assert res["n"] == report["input"]["count"]
    elif "lindley" in argv:
        assert res["alpha"] > 0 and res["lambda"] > 0
        assert res["theta"] == pytest.approx(res["lambda"] ** (-1 / res["alpha"]), rel=1e-9)
    else:
        for name in ("alpha", "lambda", "theta"):
            lo, hi = res[name]["hpd"]
            assert lo < hi and res[name]["variance"] >= 0
        assert 0 < report["method"]["ess"] <= 50 * (1 + 1e-12)
        assert 0 < report["method"]["acceptance_ratio"] <= 1


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("robust") / "data.txt"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme draws overflow on purpose
@settings(max_examples=150, deadline=None)
@given(case=censored_samples(), seed=st.integers(0, 2 ** 32 - 1))
# Lindley's theta overflowed and the report printed "theta": Infinity with exit 0
@example(case=(np.array([0.14287908, 0.20255697, 0.12375345, 0.20154748, 0.1325623, 0.13813453,
                         0.16955077, 0.13741247, 0.14506901, 0.11383188, 0.16054687,
                         0.1443919]), HybridScheme(n=12, R=12, T=math.inf)), seed=0)
def test_cli_reports_are_finite_and_consistent_or_typed_errors(data_path, case, seed):
    data, scheme = case
    data_path.write_text(" ".join(repr(float(t)) for t in data) + "\n")
    flags = [] if scheme is None or math.isinf(scheme.T) else \
        ["--big-r", str(scheme.R), "--time", repr(scheme.T)]
    path = str(data_path)
    for argv in (["fit", path, *flags],
                 ["bayes", path, *flags, "--method", "lindley", "--prior", "2,1,1,1"],
                 ["bayes", path, *flags, "--method", "is", "--draws", "50", "--seed", str(seed)],
                 ["gof", path, "--sims", "500", "--seed", str(seed)]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--json"])
        if code:
            assert code in (1, 2) and out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            continue
        _check_report(argv, json.loads(out.getvalue(), parse_constant=_no_constant))
