import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from iwhc import (
    ConvergenceError,
    CovarianceMatrix,
    DomainError,
    HybridScheme,
    InsufficientDataError,
    IwParams,
    MleFit,
    ReciprocalSample,
    apply_scheme,
    asymptotic_ci,
    fit_mle,
    log_likelihood,
    observed_fisher,
    reciprocals,
    sample,
    score,
    third_derivatives,
)
from iwhc import errors, mle
from iwhc.mle import _newton_step
from _oracles import (
    fd_gradient,
    fd_hessian,
    fit_mle_ref,
    lapack_solve,
    log_likelihood_ref,
    observed_fisher_ref,
    score_ref,
    third_derivatives_ref,
)
from conftest import censored_samples, random_censored_sample


def _single_point_sample():
    return reciprocals(apply_scheme(np.array([1.0]), HybridScheme(n=1, R=1, T=math.inf)))


def test_loglik_single_observation():
    s = _single_point_sample()
    # log(1*1) - 1*1 + 2*log(1) + no censor term
    assert log_likelihood(1.0, 1.0, s) == pytest.approx(-1.0, abs=1e-14)


def test_loglik_rejects_empty():
    s = reciprocals(apply_scheme(np.array([2.0, 3.0]), HybridScheme(n=2, R=2, T=1.0)))
    assert s.r == 0
    with pytest.raises(InsufficientDataError):
        log_likelihood(1.0, 1.0, s)
    with pytest.raises(InsufficientDataError):
        score(1.0, 1.0, s)


def test_score_single_observation_stationary_lambda():
    s = _single_point_sample()
    d_a, d_l = score(1.0, 1.0, s)
    assert d_l == pytest.approx(0.0, abs=1e-14)  # 1/lam - 1 at lam=1


def test_loglik_term_by_term_oracle(flood_s1):
    # independent evaluation with per-observation terms and compensated sums
    alpha = 4.2726
    lam = 2.6565 ** -4.2726
    terms = [flood_s1.r * math.log(alpha * lam)]
    terms += [-lam * x ** alpha for x in flood_s1.x]
    terms += [(alpha + 1.0) * math.log(x) for x in flood_s1.x]
    terms.append((flood_s1.n - flood_s1.r)
                 * math.log(1.0 - math.exp(-lam * flood_s1.u ** -alpha)))
    assert log_likelihood(alpha, lam, flood_s1) == pytest.approx(
        math.fsum(terms), rel=1e-12)


def test_score_zero_at_mle(flood_s1):
    fit = fit_mle(flood_s1)
    d_a, d_l = score(fit.alpha_hat, fit.lam_hat, flood_s1)
    assert abs(d_a) < 1e-6
    assert abs(d_l) < 1e-6


def test_loglik_is_local_max_at_mle(flood_s1):
    fit = fit_mle(flood_s1)
    peak = log_likelihood(fit.alpha_hat, fit.lam_hat, flood_s1)
    for da in (-0.05, 0.05):
        for dl in (-0.05, 0.05):
            perturbed = log_likelihood(fit.alpha_hat + da,
                                       fit.lam_hat * (1 + dl), flood_s1)
            assert perturbed <= peak


def _assert_kernel_matches_reference(alpha, lam, s):
    assert log_likelihood(alpha, lam, s) == log_likelihood_ref(alpha, lam, s)
    assert score(alpha, lam, s) == score_ref(alpha, lam, s)
    fisher = observed_fisher(alpha, lam, s)
    assert (fisher.d2_aa, fisher.d2_al, fisher.d2_ll) == observed_fisher_ref(alpha, lam, s)
    assert third_derivatives(alpha, lam, s) == third_derivatives_ref(alpha, lam, s)


@pytest.mark.parametrize("name", ["flood_complete", "flood_s1", "flood_s2",
                                  "guinea_complete", "guinea_s1", "guinea_s2"])
def test_kernel_equals_reference_formulas_on_datasets(request, name):
    s = request.getfixturevalue(name)
    fit = fit_mle(s)
    for da in (0.5, 1.0, 2.0):
        for dl in (0.1, 1.0, 10.0):
            _assert_kernel_matches_reference(fit.alpha_hat * da, fit.lam_hat * dl, s)


def test_kernel_equals_reference_formulas_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        s, params = random_censored_sample(rng)
        _assert_kernel_matches_reference(params.alpha, params.lam, s)
        _assert_kernel_matches_reference(params.alpha * rng.uniform(0.3, 3.0),
                                         params.lam * rng.uniform(0.1, 10.0), s)


_FIT_ERRORS = (ConvergenceError, InsufficientDataError, errors.NumericError)


def _started_at(s, start):
    """A fresh copy of ``s`` whose regression start, where fit_mle starts, is
    ``start``."""
    fresh = ReciprocalSample(x=s.x, u=s.u, r=s.r, n=s.n)
    fresh.__dict__["regression_start"] = start
    return fresh


def _assert_fit_matches_reference(s, start=None):
    """fit_mle equals the numpy-scalar Newton loop of the oracles, with the
    same elimination step and iteration cap, in every field, or raises the
    same error with the same message; both from ``start`` where given."""
    fit_s = s if start is None else _started_at(s, start)
    try:
        want = fit_mle_ref(s, start, mle._MAX_ITER)
    except _FIT_ERRORS as exc:
        with pytest.raises(type(exc)) as got:
            fit_mle(fit_s)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "last_iterate", None) == getattr(exc, "last_iterate", None)
        return
    assert fit_mle(fit_s) == want


@pytest.mark.parametrize("name", ["flood_complete", "flood_s1", "flood_s2",
                                  "guinea_complete", "guinea_s1", "guinea_s2"])
def test_fit_equals_reference_loop_on_datasets(request, name):
    _assert_fit_matches_reference(request.getfixturevalue(name))


def test_fit_equals_reference_loop_random():
    rng = np.random.default_rng(32)
    for _ in range(200):
        _assert_fit_matches_reference(random_censored_sample(rng)[0])


def _assert_fit_near_lapack_loop(s):
    """fit_mle agrees with the Newton loop that solves each step by LAPACK to
    a relative 1e-12, in as many iterations, or both raise the same error."""
    try:
        want = fit_mle_ref(s, solve=lapack_solve)
    except _FIT_ERRORS as exc:
        with pytest.raises(type(exc)):
            fit_mle(s)
        return
    got = fit_mle(s)
    assert got.iterations == want.iterations
    for field in ("alpha_hat", "lam_hat", "theta_hat", "loglik"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0)
    for field in ("v11", "v12", "v22"):
        assert getattr(got.cov, field) == pytest.approx(getattr(want.cov, field), rel=1e-12)


@pytest.mark.parametrize("name", ["flood_complete", "flood_s1", "flood_s2",
                                  "guinea_complete", "guinea_s1", "guinea_s2"])
def test_fit_agrees_with_lapack_loop_on_datasets(request, name):
    _assert_fit_near_lapack_loop(request.getfixturevalue(name))


def test_fit_agrees_with_lapack_loop_random():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        _assert_fit_near_lapack_loop(random_censored_sample(rng)[0])


def test_newton_step_matches_lapack_on_well_conditioned_systems():
    rng = np.random.default_rng(34)
    for _ in range(2000):
        # symmetric with condition number below 100, pivoting either way
        scale = 10.0 ** rng.uniform(-6, 6)
        eig = -scale * rng.uniform(1.0, 100.0, 2)
        turn = rng.uniform(0, np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        h = rot @ np.diag(eig) @ rot.T
        h = (h + h.T) / 2
        g = rng.normal(size=2) * 10.0 ** rng.uniform(-6, 6, 2)
        want = np.linalg.solve(h, -g)
        got = _newton_step(h[0, 0], h[0, 1], h[1, 1], g[0], g[1])
        assert got == pytest.approx(tuple(want), rel=1e-12, abs=1e-12 * np.abs(want).max())


def test_newton_step_singular_hessian_takes_the_gradient_step():
    # zero first pivot, then a zero second pivot: LAPACK's LinAlgError cases
    for h in ((0.0, 0.0, -3.0), (-1.0, 2.0, -4.0), (0.0, 0.0, 0.0)):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve([[h[0], h[1]], [h[1], h[2]]], [1.0, 1.0])
        assert _newton_step(*h, 30.0, -0.5) == (30.0, -0.5)


def test_newton_step_not_finite_takes_the_scaled_gradient_step():
    # a NaN anywhere, or an infinite pivot that leaves a zero or NaN step
    nan, inf = math.nan, math.inf
    for h in ((nan, 0.5, -2.0), (-1.0, nan, -2.0), (-1.0, 0.5, nan),
              (-1.0, inf, -2.0), (inf, inf, -2.0), (-inf, -inf, -inf)):
        assert _newton_step(*h, 30.0, -0.5) == (1.0, -0.5 / 30.0)
        assert _newton_step(*h, 0.25, -0.5) == (0.25, -0.5)


def test_newton_step_that_descends_takes_the_scaled_gradient_step():
    # H positive definite: the Newton step -H^-1 g runs downhill
    assert _newton_step(1.0, 0.0, 1.0, 4.0, 2.0) == (1.0, 0.5)


@pytest.mark.parametrize("times, R, T", [
    ([1.0] * 16 + [2.0, 3.0], 17, 1.003877522497901),
    ([2.0] * 5 + [3.0, 4.0], 6, 2.5),
    ([905.23289736, 255.37203952, 130.88489675, 288.99848025, 130.35063588], 2, math.inf),
    ([76.57062102829455, 78.07569044586481, 83.39385953000003], 2, 82.83734628222653),
    ([0.014722764826835632, 0.014836466100912058, 0.01500974506993151,
      0.01534921577614401, 0.015359722387111448], 3, math.inf),
], ids=["sixteen-tied", "five-tied", "underflowing-start", "overflowing-cov", "close-five"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference loop warns on overflow
def test_fit_equals_reference_loop_nearly_tied(times, R, T):
    s = reciprocals(apply_scheme(np.array(times), HybridScheme(n=len(times), R=R, T=T)))
    _assert_fit_matches_reference(s)
    _assert_fit_matches_reference(s, start=(500.0, 1.0))


def test_score_matches_finite_differences():
    rng = np.random.default_rng(11)

    for _ in range(100):
        s, params = random_censored_sample(rng)
        alpha = params.alpha * rng.uniform(0.7, 1.4)
        lam = params.lam * rng.uniform(0.5, 2.0)
        analytic = np.array(score(alpha, lam, s))
        numeric = fd_gradient(alpha, lam, s)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-7)


def test_fisher_matches_finite_differences():
    rng = np.random.default_rng(12)

    for _ in range(100):
        s, params = random_censored_sample(rng)
        alpha = params.alpha * rng.uniform(0.7, 1.4)
        lam = params.lam * rng.uniform(0.5, 2.0)
        fisher = observed_fisher(alpha, lam, s)
        numeric = fd_hessian(alpha, lam, s)
        assert fisher.as_matrix() == pytest.approx(numeric, rel=1e-4, abs=1e-6)


def test_fisher_complete_sample_closed_forms(flood_complete):
    fit = fit_mle(flood_complete)
    fisher = observed_fisher(fit.alpha_hat, fit.lam_hat, flood_complete)
    assert fisher.d2_ll == pytest.approx(-flood_complete.r / fit.lam_hat ** 2, rel=1e-12)


def test_negated_fisher_positive_definite_at_mle(flood_s1):
    fit = fit_mle(flood_s1)
    fisher = observed_fisher(fit.alpha_hat, fit.lam_hat, flood_s1)
    eigenvalues = np.linalg.eigvalsh(-fisher.as_matrix())
    assert np.all(eigenvalues > 0)


def test_fit_flood_complete(flood_complete):
    fit = fit_mle(flood_complete)
    assert fit.converged
    assert fit.alpha_hat == pytest.approx(4.3143, abs=1e-3)
    assert fit.theta_hat == pytest.approx(2.7905, abs=1e-3)


def test_fit_guinea_scheme2(guinea_s2):
    fit = fit_mle(guinea_s2)
    assert fit.alpha_hat == pytest.approx(1.3688, abs=1e-3)
    assert fit.theta_hat == pytest.approx(0.0182, abs=1e-3)


def test_fit_censored_values_are_stationary_regressions(flood_s1, flood_s2, guinea_s1):
    # frozen regression values for the bundled censored fits (stationary
    # points verified by the score and local-max tests above)
    for s, alpha, theta in [(flood_s1, 4.4191, 2.8015),
                            (flood_s2, 4.4636, 2.8084),
                            (guinea_s1, 1.3170, 0.0178)]:
        fit = fit_mle(s)
        assert fit.alpha_hat == pytest.approx(alpha, abs=1e-3)
        assert fit.theta_hat == pytest.approx(theta, abs=1e-3)


def test_theta_lambda_consistency(guinea_s1):
    fit = fit_mle(guinea_s1)
    assert fit.theta_hat == pytest.approx(fit.lam_hat ** (-1 / fit.alpha_hat), rel=1e-12)


def test_fit_requires_two_failures():
    s = reciprocals(apply_scheme(np.array([1.0, 5.0]), HybridScheme(n=2, R=2, T=2.0)))
    assert s.r == 1
    with pytest.raises(InsufficientDataError):
        fit_mle(s)


@pytest.mark.parametrize("times, R, T", [
    ([2.0] * 5, 5, math.inf),
    ([2.0] * 5 + [3.0, 4.0], 5, 2.5),
    ([2.0] * 5 + [3.0, 4.0], 7, 2.0),
], ids=["complete", "stops-at-tie", "time-ends-at-tie"])
def test_fit_rejects_ties_without_later_censoring(times, R, T):
    # five failures tied at t=2, every other unit censored at t: l grows like r*log(alpha)
    s = reciprocals(apply_scheme(np.array(times), HybridScheme(n=len(times), R=R, T=T)))
    with pytest.raises(InsufficientDataError, match="tied"):
        fit_mle(s)


def test_fit_ties_with_later_censoring_is_a_maximum():
    # units censored past the tie bound alpha, so a finite maximiser exists
    s = reciprocals(apply_scheme(np.array([2.0] * 5 + [3.0, 4.0]), HybridScheme(n=7, R=6, T=2.5)))
    fit = fit_mle(s)
    assert s.r == 5 and fit.alpha_hat < 100
    for da in (0.98, 1.02):
        for dl in (0.98, 1.02):
            assert log_likelihood(fit.alpha_hat * da, fit.lam_hat * dl, s) < fit.loglik


def test_fit_line_search_skips_overflowing_candidates():
    # nearly tied data: a Newton step overflowed alpha to inf, and the fit used
    # to fail naming its own iterate, with a RuntimeWarning on stderr
    data = np.array([1.0] * 16 + [2.0, 3.0])
    s = reciprocals(apply_scheme(data, HybridScheme(n=18, R=17, T=1.003877522497901)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            fit = fit_mle(s)
        except (ConvergenceError, InsufficientDataError, errors.NumericError) as exc:
            assert "must be positive" not in str(exc)
            return
    assert np.isfinite([fit.alpha_hat, fit.lam_hat, fit.loglik]).all()
    assert np.abs(score(fit.alpha_hat, fit.lam_hat, s)).max() < mle._TOL


def _tied_then_censored():
    # sixteen failures tied at t=1, then 2 and 3; two units censored at u=T
    data = np.array([1.0] * 16 + [2.0, 3.0])
    return reciprocals(apply_scheme(data, HybridScheme(n=18, R=17, T=1.003877522497901)))


def test_fit_converges_where_the_censoring_factor_underflows():
    # q = lam*u**-alpha underflows above alpha ~ 1.8e5; clamped at tiny, the
    # censoring term stopped falling there, the log-likelihood rose without
    # bound and the fit ran off to alpha = 8.5e191
    s = _tied_then_censored()
    fit = fit_mle(s)
    assert fit.alpha_hat == pytest.approx(2067.560, rel=1e-6)
    assert fit.lam_hat == pytest.approx(1.12498, rel=1e-5)
    assert fit.iterations < 20
    assert log_likelihood(1e100, fit.lam_hat, s) < log_likelihood(1e6, fit.lam_hat, s) < fit.loglik


def test_kernel_in_the_underflow_tail():
    s = _tied_then_censored()
    L = math.log(s.u)
    # log q = log(lam) - alpha*L on both sides of log(tiny) = -708.40
    edge = (math.log(1.125) + 708.3964185322641) / L
    # the general censored formulas with q clamped at tiny, against the
    # reference's own m*log q partials below log(tiny)
    for lam in (1e-150, 1e-3, 1.125, 1e100):
        at = (math.log(lam) + 708.3964185322641) / L
        for alpha in (at * 0.5, at * (1 - 1e-9), at * (1 + 1e-9), at * 2.0, at * 1e3):
            with np.errstate(all="ignore"):     # lam**3 underflows to 0 in the reference
                _assert_kernel_matches_reference(alpha, np.float64(lam), s)
    for alpha in (2e5, 1e6):
        _assert_kernel_matches_reference(alpha, 1.125, s)
    above, below = (log_likelihood(edge * f, 1.125, s) for f in (1 - 1e-9, 1 + 1e-9))
    assert log_likelihood_ref(edge * (1 - 1e-9), 1.125, s) == above
    # no jump at the switch: the change across it is the slope times the step
    assert below - above == pytest.approx(score(edge, 1.125, s)[0] * edge * 2e-9, rel=1e-3)
    # the term is m*log q there: linear in alpha, log-linear in lam
    assert score(2e5, 1.125, s) == pytest.approx(fd_gradient(2e5, 1.125, s), rel=1e-6)
    fisher = observed_fisher(2e5, 1.125, s)
    assert np.all(np.isfinite([fisher.d2_aa, fisher.d2_al, fisher.d2_ll]))
    assert fisher.d2_ll == pytest.approx(-s.n / 1.125 ** 2, rel=1e-15)


def test_kernel_is_finite_across_the_censoring_factor_bands():
    # 1/expm1(q) squared to inf while q**2 underflowed for tiny <= q < 1e-154
    # (alpha from about 9e4 to 1.8e5 here; the thirds from 6e4), and q**2
    # overflowed against 1/expm1(q) = 0 for q above 1e154 (lam = 1e160)
    s = _tied_then_censored()
    points = [(alpha, 1.125) for alpha in np.geomspace(5e4, 2e5, 200)]
    points += [(1.0, np.float64(lam)) for lam in (1e100, 1e160, 1e300)]
    for alpha, lam in points:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fisher = observed_fisher(alpha, lam, s)
            thirds = third_derivatives(alpha, lam, s)
        assert np.all(np.isfinite([fisher.d2_aa, fisher.d2_al, fisher.d2_ll]))
        assert np.all(np.isfinite(thirds))
        with np.errstate(all="ignore"):     # lam**2 overflows in the reference
            _assert_kernel_matches_reference(alpha, lam, s)


def test_nonconvergence_carries_last_iterate(flood_s1, monkeypatch):
    monkeypatch.setattr(mle, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        fit_mle(_started_at(flood_s1, (50.0, 1e-9)))
    assert err.value.last_iterate is not None
    alpha, lam = err.value.last_iterate
    assert alpha > 0 and lam > 0
    _assert_fit_matches_reference(flood_s1, start=(50.0, 1e-9))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme draws overflow on purpose
@settings(max_examples=300, deadline=None)
@given(censored_samples())
# nearly tied failures: x**alpha underflows at the regression start, and the
# covariance or the information of the fit overflows when squared
@example((np.array([905.23289736, 255.37203952, 130.88489675, 288.99848025, 130.35063588]),
          HybridScheme(n=5, R=2, T=math.inf)))
@example((np.array([76.57062102829455, 78.07569044586481, 83.39385953000003]),
          HybridScheme(n=3, R=2, T=82.83734628222653)))
@example((np.array([0.014722764826835632, 0.014836466100912058, 0.01500974506993151,
                    0.01534921577614401, 0.015359722387111448]),
          HybridScheme(n=5, R=3, T=math.inf)))
def test_fit_is_a_stationary_maximum_or_a_typed_error(case):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return  # rounding or an overflowing draw left no valid lifetimes
    s = reciprocals(apply_scheme(data, scheme))
    try:
        fit = fit_mle(s)
    except (errors.DomainError, errors.InsufficientDataError, errors.NumericError,
            errors.ConvergenceError):
        return
    assert np.all(np.isfinite([fit.alpha_hat, fit.lam_hat, fit.theta_hat, fit.loglik]))
    assert fit.converged
    assert np.abs(score(fit.alpha_hat, fit.lam_hat, s)).max() < mle._TOL
    cov = fit.cov.as_matrix()
    assert np.all(np.isfinite(cov))
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_cov_is_exact_inverse(flood_s1):
    fit = fit_mle(flood_s1)
    fisher = observed_fisher(fit.alpha_hat, fit.lam_hat, flood_s1)
    residual = fit.cov.as_matrix() @ (-fisher.as_matrix()) - np.eye(2)
    assert np.abs(residual).max() < 1e-10


def test_guinea_scheme1_ci(guinea_s1):
    fit = fit_mle(guinea_s1)
    ci_a, _, ci_t = asymptotic_ci(fit, 0.95)
    assert ci_a.lower == pytest.approx(1.0569, abs=2e-3)
    assert ci_a.upper == pytest.approx(1.5779, abs=2e-3)
    assert ci_t.lower == pytest.approx(0.0140, abs=0.05)
    assert ci_t.upper == pytest.approx(0.0212, abs=0.05)


def test_ci_nesting(flood_s1):
    fit = fit_mle(flood_s1)
    a95, l95, t95 = asymptotic_ci(fit, 0.95)
    a99, l99, t99 = asymptotic_ci(fit, 0.99)
    for narrow, wide in ((a95, a99), (l95, l99), (t95, t99)):
        assert wide.lower < narrow.lower < narrow.upper < wide.upper


def test_ci_width_shrinks_with_level(flood_s1):
    fit = fit_mle(flood_s1)
    tiny = asymptotic_ci(fit, 1e-6)[0]
    assert tiny.length < 1e-4
    assert tiny.lower < fit.alpha_hat < tiny.upper


def test_ci_level_validation(flood_s1):
    fit = fit_mle(flood_s1)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            asymptotic_ci(fit, bad)


@pytest.mark.parametrize("alpha, lam", [(1e200, 1.0), (0.5, 5e-324)],
                         ids=["alpha-squared-overflows", "alpha-lam-underflows"])
def test_ci_where_the_theta_gradient_leaves_float_range_is_a_numeric_error(alpha, lam):
    fit = MleFit(alpha_hat=alpha, lam_hat=lam, theta_hat=1.0, loglik=0.0,
                 cov=CovarianceMatrix(1.0, 0.0, 1.0), iterations=1, converged=True,
                 grad_norm=0.0)
    with pytest.raises(errors.NumericError, match="gradient of theta"):
        asymptotic_ci(fit)


def test_consistency_large_sample():
    # complete samples of n=500: estimates within 3 standard errors of the
    # truth in at least 99% of seeded replicates
    truth = IwParams(2.0, 1.0)
    scheme = HybridScheme(n=500, R=500, T=math.inf)
    hits = 0
    total = 200
    for rep in range(total):
        data = sample(500, truth, np.random.SeedSequence((2024, rep)))
        fit = fit_mle(reciprocals(apply_scheme(data, scheme)))
        ok_a = abs(fit.alpha_hat - truth.alpha) <= 3 * np.sqrt(fit.cov.v11)
        ok_l = abs(fit.lam_hat - truth.lam) <= 3 * np.sqrt(fit.cov.v22)
        hits += ok_a and ok_l
    assert hits / total >= 0.99
