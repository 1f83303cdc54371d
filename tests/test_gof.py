import numpy as np
import pytest

from iwhc import DomainError, IwParams, cdf, fit_mle, ks_statistic, ks_test, quantile


def test_flood_regression(flood, flood_complete):
    fit = fit_mle(flood_complete)
    params = IwParams(fit.alpha_hat, fit.theta_hat)
    result = ks_test(flood, params)
    assert result.statistic == pytest.approx(0.1060, abs=1e-3)
    assert result.p_value == pytest.approx(0.8557, abs=0.02)
    assert result.n == 20


def test_statistic_at_midpoint_plotting_positions():
    # data placed exactly at the (i - 0.5)/n quantiles leaves a gap of 0.5/n
    p = IwParams(1.7, 0.9)
    n = 25
    data = quantile((np.arange(1, n + 1) - 0.5) / n, p)
    assert ks_statistic(data, p) == pytest.approx(0.5 / n, rel=1e-10)


def test_statistic_matches_exhaustive_step_scan(flood):
    p = IwParams(4.3143, 2.7905)
    best = 0.0
    srt = np.sort(flood)
    for i, t in enumerate(srt, start=1):
        best = max(best, abs(i / srt.size - cdf(float(t), p)))
    assert ks_statistic(flood, p) == pytest.approx(best, rel=1e-14)


def test_probability_integral_transform_invariance(flood):
    # transforming data and model through the fitted cdf leaves D unchanged
    p = IwParams(4.3143, 2.7905)
    d_raw = ks_statistic(flood, p)
    transformed = np.sort(cdf(np.sort(flood), p))
    ranks = np.arange(1, transformed.size + 1) / transformed.size
    d_uniform = np.abs(ranks - transformed).max()
    assert d_raw == pytest.approx(d_uniform, abs=1e-12)


def test_p_value_decreasing_in_statistic():
    from iwhc.gof import _null_sf

    values = [_null_sf(d, 20, sims=20_000, seed=3) for d in (0.05, 0.10, 0.15, 0.25, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0 <= v <= 1 for v in values)


def test_p_value_deterministic(flood):
    p = IwParams(4.3143, 2.7905)
    a = ks_test(flood, p, sims=20_000)
    b = ks_test(flood, p, sims=20_000)
    assert a.p_value == b.p_value


def test_empty_data_rejected():
    with pytest.raises(DomainError):
        ks_test([], IwParams(1.0, 1.0))


def test_nonpositive_sims_rejected(flood):
    with pytest.raises(DomainError):
        ks_test(flood, IwParams(4.3143, 2.7905), sims=0)
