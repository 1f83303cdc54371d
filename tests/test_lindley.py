import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwhc import (
    DomainError,
    GammaPriors,
    HybridScheme,
    IwParams,
    NumericError,
    ReciprocalSample,
    apply_scheme,
    fit_mle,
    lindley_estimates,
    reciprocals,
    sample,
    third_derivatives,
)
from iwhc import errors, lindley
from iwhc.cli import main
from _oracles import fd_third_derivatives, lindley_estimates_ref, posterior_quadrature_means
from conftest import censored_samples, random_censored_sample


def test_priors_validation():
    with pytest.raises(DomainError):
        GammaPriors(-1.0, 0.0, 0.0, 0.0)
    assert GammaPriors().as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert GammaPriors(2, 1, 1, 1).as_tuple() == (2, 1, 1, 1)


def test_third_derivatives_complete_sample(flood_complete):
    fit = fit_mle(flood_complete)
    l30, l03, l21, l12 = third_derivatives(fit.alpha_hat, fit.lam_hat, flood_complete)
    r = flood_complete.r
    x = flood_complete.x
    lx = np.log(x)
    assert l03 == pytest.approx(2 * r / fit.lam_hat ** 3, rel=1e-12)
    expected_l30 = (2 * r / fit.alpha_hat ** 3
                    - fit.lam_hat * (x ** fit.alpha_hat * lx ** 3).sum())
    assert l30 == pytest.approx(expected_l30, rel=1e-12)
    assert l12 == 0.0
    assert l21 == pytest.approx(-(x ** fit.alpha_hat * lx ** 2).sum(), rel=1e-12)


def test_third_derivatives_match_finite_differences_at_mle(flood_s1):
    fit = fit_mle(flood_s1)
    analytic = third_derivatives(fit.alpha_hat, fit.lam_hat, flood_s1)
    numeric = fd_third_derivatives(fit.alpha_hat, fit.lam_hat, flood_s1)
    for a, n in zip(analytic, numeric):
        assert a == pytest.approx(n, rel=1e-3, abs=1e-4)


def test_third_derivatives_match_finite_differences_random():
    rng = np.random.default_rng(21)
    from conftest import random_censored_sample

    for _ in range(50):
        s, params = random_censored_sample(rng)
        alpha = params.alpha * rng.uniform(0.8, 1.25)
        lam = params.lam * rng.uniform(0.6, 1.6)
        analytic = third_derivatives(alpha, lam, s)
        numeric = fd_third_derivatives(alpha, lam, s)
        for a, n in zip(analytic, numeric):
            assert a == pytest.approx(n, rel=1e-3, abs=1e-3)


def test_estimate_reduces_to_mle_without_curvature(flood_s1):
    fit = fit_mle(flood_s1)
    est = lindley_estimates(fit, GammaPriors(1, 0, 1, 0), flood_s1, curvature=False)
    assert est.alpha_L == pytest.approx(fit.alpha_hat, rel=1e-14)
    assert est.lambda_L == pytest.approx(fit.lam_hat, rel=1e-14)
    assert est.theta_L == pytest.approx(fit.theta_hat, rel=1e-12)


def test_flood_scheme1_matches_quadrature_posterior_means(flood_s1):
    fit = fit_mle(flood_s1)
    est = lindley_estimates(fit, GammaPriors(), flood_s1)
    mean_alpha, mean_lam = posterior_quadrature_means(flood_s1, GammaPriors())
    assert abs(est.alpha_L - mean_alpha) / mean_alpha < 0.05
    assert abs(est.lambda_L - mean_lam) / mean_lam < 0.05


def test_informative_prior_shrinks_toward_prior_mean(flood_s1):
    # prior mean of alpha is a/b = 2 under (2, 1, 1, 1), far below the MLE
    fit = fit_mle(flood_s1)
    flat = lindley_estimates(fit, GammaPriors(), flood_s1)
    informative = lindley_estimates(fit, GammaPriors(2, 1, 1, 1), flood_s1)
    assert informative.alpha_L < flat.alpha_L


def test_correction_shrinks_with_sample_size():
    truth = IwParams(2.0, 1.0)
    gaps = {}
    for n in (30, 200):
        scheme = HybridScheme(n=n, R=n, T=math.inf)
        diffs = []
        for rep in range(40):
            data = sample(n, truth, np.random.SeedSequence((77, n, rep)))
            s = reciprocals(apply_scheme(data, scheme))
            fit = fit_mle(s)
            est = lindley_estimates(fit, GammaPriors(), s)
            diffs.append(abs(est.alpha_L - fit.alpha_hat))
        gaps[n] = np.mean(diffs)
    assert gaps[200] < gaps[30]


def test_theta_derived_from_corrected_pair(guinea_s2):
    fit = fit_mle(guinea_s2)
    est = lindley_estimates(fit, GammaPriors(), guinea_s2)
    assert est.theta_L == pytest.approx(est.lambda_L ** (-1 / est.alpha_L), rel=1e-12)


def test_estimates_equal_python_float_formulas():
    rng = np.random.default_rng(41)
    for _ in range(150):
        s, _ = random_censored_sample(rng)
        fit = fit_mle(s)
        for priors in (GammaPriors(), GammaPriors(2, 1, 1, 1)):
            alpha_L, lambda_L = lindley_estimates_ref(fit, priors, s)
            if not (alpha_L > 0 and lambda_L > 0):
                with pytest.raises(NumericError, match="nonpositive"):
                    lindley_estimates(fit, priors, s)
                continue
            est = lindley_estimates(fit, priors, s)
            assert (est.alpha_L, est.lambda_L) == (alpha_L, lambda_L)


def test_third_derivatives_evaluated_once_per_fit(monkeypatch):
    rng = np.random.default_rng(42)
    priors = (GammaPriors(), GammaPriors(2, 1, 1, 1))
    calls = []
    kernel = lindley.third_derivatives
    monkeypatch.setattr(lindley, "third_derivatives",
                        lambda *args: calls.append(args) or kernel(*args))
    for _ in range(50):
        s, _ = random_censored_sample(rng)
        fresh = [ReciprocalSample(s.x.copy(), s.u, s.r, s.n) for _ in priors]
        fit = fit_mle(s)
        calls.clear()
        for p, s_alone in zip(priors, fresh):
            # the same bits or error as on a sample that has seen no other prior
            try:
                want = lindley_estimates(fit, p, s_alone)
            except NumericError as exc:
                with pytest.raises(NumericError, match=str(exc)):
                    lindley_estimates(fit, p, s)
                continue
            assert lindley_estimates(fit, p, s) == want
        assert len(calls) == 1 + len(priors)


_WIDE = ("484 496 497 499 500 508 509 509 511 512 528 529 539", 12, 541.3552498174076)


def test_overflowing_correction_is_numeric_error():
    # the MLE covariance is so wide that squaring it overflows float64
    times, R, T = _WIDE
    data = np.array(times.split(), dtype=float)
    s = reciprocals(apply_scheme(data, HybridScheme(n=data.size, R=R, T=T)))
    fit = fit_mle(s)
    with pytest.raises(NumericError, match="overflow"):
        lindley_estimates(fit, GammaPriors(), s)


def test_cli_overflowing_correction_exits_2(capsys, tmp_path):
    times, R, T = _WIDE
    path = tmp_path / "wide.txt"
    path.write_text(times + "\n")
    code = main(["bayes", str(path), "--big-r", str(R), "--time", repr(T),
                 "--method", "lindley"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme draws overflow on purpose
@settings(max_examples=300, deadline=None)
@given(censored_samples(),
       st.sampled_from([GammaPriors(), GammaPriors(2, 1, 1, 1), GammaPriors(0.5, 0.01, 3.0, 0.01)]))
# the prior pulls alpha to 0.0116 and lam to 1.5e-5: theta = lam**(-1/alpha)
# overflowed and was returned as inf
@example((np.array([0.14287908, 0.20255697, 0.12375345, 0.20154748, 0.1325623, 0.13813453,
                    0.16955077, 0.13741247, 0.14506901, 0.11383188, 0.16054687, 0.1443919]),
          HybridScheme(n=12, R=12, T=math.inf)), GammaPriors(2, 1, 1, 1))
def test_lindley_is_finite_and_consistent_or_a_typed_error(case, priors):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return  # rounding or an overflowing draw left no valid lifetimes
    s = reciprocals(apply_scheme(data, scheme))
    try:
        fit = fit_mle(s)
        est = lindley_estimates(fit, priors, s)
    except (errors.DomainError, errors.InsufficientDataError, errors.NumericError,
            errors.ConvergenceError):
        return
    assert np.all(np.isfinite([est.alpha_L, est.lambda_L, est.theta_L]))
    assert est.alpha_L > 0 and est.lambda_L > 0
    assert est.theta_L == float(np.exp(-np.log(est.lambda_L) / est.alpha_L))
    flat = lindley_estimates(fit, GammaPriors(1, 0, 1, 0), s, curvature=False)
    assert (flat.alpha_L, flat.lambda_L) == (fit.alpha_hat, fit.lam_hat)
