import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwhc import (
    DegenerateWeightsError,
    DomainError,
    GammaPriors,
    HybridScheme,
    InsufficientDataError,
    IwParams,
    NumericError,
    PosteriorDraws,
    apply_scheme,
    bayes_is,
    g2_log_density,
    hpd_interval,
    importance_estimate,
    posterior_draws,
    reciprocals,
    sample,
    sample_g1,
    sample_g2,
    weighted_quantile,
)
from iwhc import errors, posterior
from _oracles import g1_rate_ref, g2_quadrature_cdf, posterior_quadrature_means
from conftest import censored_samples, random_censored_sample

FLAT = GammaPriors()


def _complete(times):
    arr = np.asarray(times, dtype=float)
    return reciprocals(apply_scheme(arr, HybridScheme(n=arr.size, R=arr.size, T=math.inf)))


# two failures 0.8% apart and four censored units: the shape posterior is so
# wide that sum x**alpha underflows inside it and lam overflows float64
_WIDE_TIMES = np.array([9.22, 9.29, 9.82, 9.99, 10.13, 10.31])
_WIDE_SCHEME = HybridScheme(n=6, R=4, T=9.308)


def _wide_shape_sample():
    return reciprocals(apply_scheme(_WIDE_TIMES, _WIDE_SCHEME))


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------


def test_g2_value_single_point():
    s = _complete([1.0])
    value = g2_log_density(1.0, s, GammaPriors(1, 1, 1, 1))
    assert value == pytest.approx(-2 * math.log(2.0) - 1.0, abs=1e-12)


def test_g2_rejects_bad_alpha(flood_s1):
    with pytest.raises(DomainError):
        g2_log_density(0.0, flood_s1, FLAT)
    with pytest.raises(DomainError):
        g2_log_density(-1.0, flood_s1, FLAT)


def test_g2_log_concave_on_grid():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s, _ = random_censored_sample(rng)
        priors = GammaPriors(*rng.uniform(0.0, 2.0, size=4))
        grid = np.linspace(0.05, 20.0, 1000)
        values = g2_log_density(grid, s, priors)
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        assert np.all(second <= 1e-9)


def test_g2_proper_flood_scheme1(flood_s1):
    from scipy import integrate

    grid_peak = g2_log_density(np.linspace(0.5, 12, 200), flood_s1, FLAT).max()
    total = integrate.quad(
        lambda a: np.exp(g2_log_density(a, flood_s1, FLAT) - grid_peak),
        1e-6, 100.0, limit=300)[0]
    assert np.isfinite(total) and total > 0


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case, priors, lo, hi", [
    ("flood_s1", FLAT, 0.8, 12.0),
    ("guinea_s1", GammaPriors(2, 1, 1, 1), 0.3, 1.5),
], ids=["flood", "guinea"])
def test_sample_g2_matches_quadrature_cdf(request, case, priors, lo, hi):
    s = request.getfixturevalue(case)
    draws, info = sample_g2(50_000, s, priors, seed=3, return_info=True)
    assert 0 < info["acceptance_ratio"] <= 1
    grid = np.linspace(lo, hi, 4000)
    cdf = g2_quadrature_cdf(s, priors, grid)
    srt = np.sort(draws)
    ranks = np.arange(1, srt.size + 1) / srt.size
    sup = np.abs(ranks - np.interp(srt, grid, cdf)).max()
    assert sup < 0.01


def test_sample_g2_mean_matches_quadrature(flood_s1):
    draws = sample_g2(50_000, flood_s1, FLAT, seed=4)
    grid = np.linspace(0.8, 14.0, 6000)
    dens = np.exp(g2_log_density(grid, flood_s1, FLAT)
                  - g2_log_density(grid, flood_s1, FLAT).max())
    mean_quad = np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - mean_quad) < 3 * se


@pytest.mark.parametrize("count", [1, 3])
def test_sample_g2_fewer_draws_than_first_round(flood_s1, count):
    draws = sample_g2(count, flood_s1, FLAT, seed=10)
    assert draws.shape == (count,)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_sample_g2_acceptance_after_refinement(flood_s1):
    # one full-size first round, before the hull is refined, drops this to ~0.66
    _, info = sample_g2(1000, flood_s1, FLAT, seed=26, return_info=True)
    assert info["acceptance_ratio"] >= 0.9


def test_sample_g2_improper_posterior_is_insufficient_data():
    # all failures tied at t=1: log g2 = (a+r-1)*log(alpha) + const keeps rising
    with pytest.raises(InsufficientDataError, match="improper"):
        sample_g2(10, _complete([1.0] * 5), FLAT, seed=0)


def test_sample_g2_tail_that_never_turns_over_is_insufficient_data(monkeypatch):
    # a mode reported inside the rising density reaches the upper-tail check
    monkeypatch.setattr(posterior, "_find_mode", lambda lnf, dlnf: 1.0)
    with pytest.raises(InsufficientDataError, match="never turns over"):
        sample_g2(10, _complete([1.0] * 5), FLAT, seed=0)


def test_sample_g2_deterministic(flood_s1):
    a = sample_g2(500, flood_s1, FLAT, seed=9)
    b = sample_g2(500, flood_s1, FLAT, seed=9)
    assert np.array_equal(a, b)


_CASES = pytest.mark.parametrize("case, priors", [
    ("flood_s1", FLAT),
    ("guinea_s1", GammaPriors(2, 1, 1, 1)),
], ids=["flood", "guinea"])


@_CASES
def test_sample_g2_fills_m1000_in_at_most_two_rounds(request, case, priors):
    s = request.getfixturevalue(case)
    for seed in range(20):
        _, info = sample_g2(1000, s, priors, seed=seed, return_info=True)
        assert info["rounds"] <= 2


@pytest.mark.parametrize("case, priors, lo, hi", [
    ("flood_s1", FLAT, 0.8, 12.0),
    ("guinea_s1", GammaPriors(2, 1, 1, 1), 0.3, 1.5),
], ids=["flood", "guinea"])
def test_sample_g2_pooled_three_draw_calls_match_quadrature_cdf(request, case, priors, lo, hi):
    # each call builds its own hull and fills in one or two rounds
    s = request.getfixturevalue(case)
    draws = np.concatenate([sample_g2(3, s, priors, seed=seed) for seed in range(6000)])
    grid = np.linspace(lo, hi, 4000)
    cdf = g2_quadrature_cdf(s, priors, grid)
    srt = np.sort(draws)
    ranks = np.arange(1, srt.size + 1) / srt.size
    sup = np.abs(ranks - np.interp(srt, grid, cdf)).max()
    assert sup < 0.012      # 1% critical value for 18,000 draws


@_CASES
def test_g1_rate_of_each_draw_matches_direct_powers(request, case, priors):
    s = request.getfixturevalue(case)
    for p in (priors, GammaPriors(0, 0, 0, 3.5)):
        draws, info = sample_g2(1000, s, p, seed=27, return_info=True)
        assert np.exp(info["log_rate"]) == pytest.approx(g1_rate_ref(s, p, draws), rel=1e-12)


@_CASES
def test_posterior_draws_take_lams_from_the_g2_rates(request, case, priors):
    s = request.getfixturevalue(case)
    out = posterior_draws(s, priors, 500, seed=28)
    rng = np.random.default_rng(np.random.SeedSequence(28).spawn(1)[0])
    alphas = sample_g2(500, s, priors, rng)
    lams = rng.gamma(s.r + priors.c, 1.0, size=500) / g1_rate_ref(s, priors, alphas)
    assert np.array_equal(out.alphas, alphas)
    assert out.lams == pytest.approx(lams, rel=1e-12)


def test_sample_g2_wide_shape_posterior_returns():
    # sum x**alpha underflowed above alpha ~ 330 and the sampler never returned
    s = _wide_shape_sample()
    assert np.all(np.isfinite(g2_log_density(np.array([400.0, 1e4, 1e6]), s, FLAT)))
    draws = sample_g2(200, s, FLAT, seed=0)
    assert draws.shape == (200,)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_bayes_is_lam_overflow_is_numeric_error():
    with pytest.raises(NumericError, match="overflow"):
        bayes_is(_wide_shape_sample(), FLAT, 200, seed=0)


def test_sample_g1_moments(flood_s1):
    alpha = 4.4
    rate = (flood_s1.x ** alpha).sum()
    draws = sample_g1(np.full(40_000, alpha), flood_s1, FLAT, seed=5)
    expected = flood_s1.r / rate
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - expected) < 3 * se


def test_sample_g1_exponential_special_case():
    # r=1 with c=0 gives gamma shape 1: exponential with the rate d + sum x**alpha
    s = _complete([0.5])
    alpha = 1.0
    rate = (s.x ** alpha).sum()
    draws = sample_g1(np.full(40_000, alpha), s, FLAT, seed=6)
    for q in (0.2, 0.5, 1.0):
        empirical = (draws > q).mean()
        expected = math.exp(-q * rate)
        se = math.sqrt(expected * (1 - expected) / draws.size)
        assert abs(empirical - expected) < 4 * se


def test_sample_g1_deterministic(flood_s1):
    a = sample_g1(np.array([4.0, 4.5]), flood_s1, FLAT, seed=8)
    b = sample_g1(np.array([4.0, 4.5]), flood_s1, FLAT, seed=8)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# weights and estimates
# ---------------------------------------------------------------------------


def test_complete_sample_weights_uniform():
    s = _complete(sample(25, IwParams(2.0, 1.0), 10))
    draws = posterior_draws(s, FLAT, 400, seed=11)
    assert draws.weights.max() - draws.weights.min() == 0.0
    assert draws.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_censored_weights_normalized(flood_s1):
    draws = posterior_draws(flood_s1, FLAT, 2000, seed=12)
    assert draws.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(draws.weights >= 0)
    assert draws.ess > 0
    assert 0 < draws.acceptance_ratio <= 1


def test_posterior_draws_deterministic_per_chunking(flood_s1):
    one = posterior_draws(flood_s1, FLAT, 1000, seed=13, chunks=1)
    same = posterior_draws(flood_s1, FLAT, 1000, seed=13, chunks=1)
    assert np.array_equal(one.alphas, same.alphas)
    assert np.array_equal(one.weights, same.weights)
    four = posterior_draws(flood_s1, FLAT, 1000, seed=13, chunks=4)
    again = posterior_draws(flood_s1, FLAT, 1000, seed=13, chunks=4)
    assert np.array_equal(four.alphas, again.alphas)
    # chunking policy is part of the reproducibility contract: streams differ
    assert not np.array_equal(one.alphas, four.alphas)


def test_importance_estimate_reduces_to_average_for_complete():
    s = _complete(sample(30, IwParams(1.5, 1.0), 14))
    draws = posterior_draws(s, FLAT, 3000, seed=15)
    est = importance_estimate(draws, lambda a, l: a)
    assert est.mean == pytest.approx(draws.alphas.mean(), rel=1e-12)


def test_importance_estimate_hand_oracle():
    raw = np.array([1.0, 1.0, 2.0])
    draws = PosteriorDraws(
        alphas=np.array([1.0, 2.0, 3.0]),
        lams=np.ones(3),
        weights=raw / raw.sum(),
    )
    est = importance_estimate(draws, lambda a, l: a)
    assert est.mean == pytest.approx(2.25, abs=1e-14)
    assert est.variance == pytest.approx(0.6875, abs=1e-14)


def test_importance_estimate_degenerate_weights():
    draws = PosteriorDraws(alphas=np.array([1.0, 2.0]), lams=np.ones(2),
                           weights=np.zeros(2))
    with pytest.raises(DegenerateWeightsError):
        importance_estimate(draws, lambda a, l: a)


# ---------------------------------------------------------------------------
# weighted quantiles and HPD
# ---------------------------------------------------------------------------


def test_weighted_quantile_equal_weights():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    weights = np.full(4, 0.25)
    assert weighted_quantile(values, weights, 0.5) == 2.0
    assert weighted_quantile(values, weights, 0.0) == 1.0
    assert weighted_quantile(values, weights, 1.0) == 4.0


def test_weighted_quantile_cumulative_oracle():
    values = np.array([10.0, 20.0, 30.0, 40.0])
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    assert weighted_quantile(values, weights, 0.35) == 30.0
    # jump points return the ordered value that closes the step
    assert weighted_quantile(values, weights, 0.1) == 10.0
    assert weighted_quantile(values, weights, 0.3) == 20.0


def test_weighted_quantile_monotone_in_beta():
    rng = np.random.default_rng(16)
    values = rng.normal(size=200)
    weights = rng.random(200)
    weights /= weights.sum()
    betas = np.linspace(0, 1, 101)
    qs = [weighted_quantile(values, weights, b) for b in betas]
    assert np.all(np.diff(qs) >= 0)


def test_weighted_quantile_validation():
    with pytest.raises(DomainError):
        weighted_quantile([1.0], [1.0], -0.1)
    with pytest.raises(DomainError):
        weighted_quantile([], [], 0.5)
    with pytest.raises(DegenerateWeightsError):
        weighted_quantile([1.0, 2.0], [0.0, 0.0], 0.5)


def _hpd_brute_force(values, weights, level):
    values = np.asarray(values, float)
    weights = np.asarray(weights, float)
    m = values.size
    order = np.argsort(values, kind="stable")
    vs = values[order]
    cum = np.cumsum(weights[order]) / weights.sum()

    def quantile(beta):
        idx = int(np.searchsorted(cum, beta, side="left"))
        return vs[min(idx, m - 1)]

    k = int(np.floor(level * m))
    best = None
    for j in range(1, m - k + 1):
        lo, hi = quantile(j / m), quantile((j + k) / m)
        if best is None or hi - lo < best[1] - best[0]:
            best = (lo, hi)
    return best


def test_hpd_equals_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(10):
        values = rng.gamma(3.0, 1.0, size=rng.integers(50, 400))
        weights = rng.random(values.size)
        weights /= weights.sum()
        level = float(rng.uniform(0.5, 0.99))
        interval = hpd_interval(values, weights, level)
        lo, hi = _hpd_brute_force(values, weights, level)
        assert interval.lower == lo
        assert interval.upper == hi


def test_hpd_is_shortest_candidate():
    rng = np.random.default_rng(18)
    values = rng.normal(size=500)
    weights = np.full(500, 1 / 500)
    interval = hpd_interval(values, weights, 0.9)
    lo, hi = _hpd_brute_force(values, weights, 0.9)
    assert interval.length <= hi - lo + 1e-15


def test_hpd_symmetric_sample_near_central():
    # equal weights on a symmetric unimodal sample: HPD approximates the
    # central interval to within a couple of order statistics
    rng = np.random.default_rng(19)
    values = np.sort(rng.normal(size=4000))
    weights = np.full(4000, 1 / 4000)
    interval = hpd_interval(values, weights, 0.95)
    central_lo = weighted_quantile(values, weights, 0.025)
    central_hi = weighted_quantile(values, weights, 0.975)
    spacing = 3 * (values[-1] - values[0]) / values.size * 10
    assert abs(interval.lower - central_lo) < max(0.1, spacing)
    assert abs(interval.upper - central_hi) < max(0.1, spacing)


def test_hpd_validation():
    with pytest.raises(DomainError):
        hpd_interval(np.arange(10.0), np.full(10, 0.1), 0.1)  # M*level < 2
    with pytest.raises(DomainError):
        hpd_interval(np.arange(10.0), np.full(10, 0.1), 1.5)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_bayes_is_matches_quadrature_complete():
    truth = IwParams(2.0, 1.0)
    s = _complete(sample(12, truth, 20))
    res = bayes_is(s, FLAT, 20_000, seed=21)
    mean_alpha, mean_lam = posterior_quadrature_means(s, FLAT)
    assert abs(res.alpha.mean - mean_alpha) / mean_alpha < 0.02
    assert abs(res.lam.mean - mean_lam) / mean_lam < 0.02


def test_bayes_is_matches_quadrature_censored():
    truth = IwParams(2.0, 1.0)
    data = sample(14, truth, 22)
    s = reciprocals(apply_scheme(data, HybridScheme(n=14, R=11, T=float(np.sort(data)[11]))))
    assert 0 < s.n - s.r <= 4
    res = bayes_is(s, FLAT, 20_000, seed=23)
    mean_alpha, mean_lam = posterior_quadrature_means(s, FLAT)
    assert abs(res.alpha.mean - mean_alpha) / mean_alpha < 0.02
    assert abs(res.lam.mean - mean_lam) / mean_lam < 0.02


def test_bayes_is_bundles_hpd_and_diagnostics(flood_s1):
    res = bayes_is(flood_s1, FLAT, 4000, seed=24)
    for est in (res.alpha, res.lam, res.theta):
        assert est.hpd is not None
        assert est.hpd.lower < est.mean < est.hpd.upper
        assert est.variance >= 0
    assert res.draws.ess > 0
    assert res.theta.mean == pytest.approx(
        (res.draws.thetas * res.draws.weights).sum(), rel=1e-12)


def test_bayes_is_deterministic(flood_s1):
    a = bayes_is(flood_s1, FLAT, 2000, seed=25)
    b = bayes_is(flood_s1, FLAT, 2000, seed=25)
    assert a.alpha.mean == b.alpha.mean
    assert a.theta.hpd.lower == b.theta.hpd.lower


@settings(max_examples=300, deadline=None)
@given(censored_samples(),
       st.sampled_from([FLAT, GammaPriors(2, 1, 1, 1), GammaPriors(0.5, 0.01, 3.0, 0.01)]),
       st.integers(0, 2 ** 32 - 1))
@example((_WIDE_TIMES, _WIDE_SCHEME), FLAT, 0)
# lam draws near 1e169: the weighted variance of lam overflows
@example((np.array([5.3427662, 135.04106728, 4.43969929, 4.29910518]),
          HybridScheme(n=4, R=2, T=math.inf)), FLAT, 0)
def test_bayes_is_is_finite_or_a_typed_error(case, priors, seed):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return  # rounding or an overflowing draw left no valid lifetimes
    s = reciprocals(apply_scheme(data, scheme))
    try:
        res = bayes_is(s, priors, 50, seed)
    except (errors.DomainError, errors.InsufficientDataError, errors.NumericError,
            errors.ConvergenceError, errors.DegenerateWeightsError):
        return
    for est in (res.alpha, res.lam, res.theta):
        assert np.all(np.isfinite([est.mean, est.variance, est.hpd.lower, est.hpd.upper]))
        assert est.variance >= 0
