import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwhc import DomainError, IwParams, cdf, fit_mle, ks_statistic, ks_test, quantile
from iwhc.gof import _BLOCK_VALUES, _null_sf, _null_stats
from _oracles import null_sf_streaming


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


@pytest.mark.parametrize("data, match", [
    (np.ones((2, 3)), r"data must be one-dimensional, got shape \(2, 3\)"),
    ([[1.0]], r"data must be one-dimensional, got shape \(1, 1\)"),
    (2.5, r"data must be one-dimensional, got shape \(\)"),
    ("abc", "data must be numbers, got 'abc'"),
    ([[1.0], [1.0, 2.0]], "data must be numbers"),
], ids=["matrix", "1x1", "scalar", "string", "ragged"])
def test_malformed_data_rejected(data, match):
    p = IwParams(1.0, 1.0)
    with pytest.raises(DomainError, match=match):
        ks_test(data, p, sims=10)
    with pytest.raises(DomainError, match=match):
        ks_statistic(data, p)


def test_nonpositive_sims_rejected(flood):
    with pytest.raises(DomainError):
        ks_test(flood, IwParams(4.3143, 2.7905), sims=0)


@pytest.mark.parametrize("kwargs", [
    {"sims": 1e4}, {"sims": True}, {"sims": "100"},
    {"seed": -1}, {"seed": 1.5}, {"seed": False},
])
def test_non_integer_sims_and_seed_rejected(flood, kwargs):
    with pytest.raises(DomainError):
        ks_test(flood, IwParams(4.3143, 2.7905), **kwargs)


@pytest.mark.parametrize("n, sims", [
    *itertools.product([1, 2, 20, 72], [999, 50_000, 120_001]),
    # blocks of 3, 3 and 2 samples; of 2, 2 and 1; of one sample each
    (_BLOCK_VALUES // 3, 8), (_BLOCK_VALUES // 2, 5), (_BLOCK_VALUES + 1, 3),
])
def test_null_table_p_values_equal_streaming_oracle(n, sims):
    seed = 11
    table = _null_stats(n, sims, seed)
    inside = table[[0, sims // 3, sims // 2, -1]]
    ds = [*inside, *(inside + 1e-12), np.nextafter(table[0], 0.0),
          table[0] - 0.5, table[-1] + 0.5]
    for d in ds:
        assert _null_sf(d, n, sims, seed) == null_sf_streaming(d, n, sims, seed), d


def test_null_table_cached_read_only_and_bounded(flood):
    p = IwParams(4.3143, 2.7905)
    first = ks_test(flood, p, sims=np.int64(20_000), seed=5)
    info = _null_stats.cache_info()
    assert ks_test(flood, p, sims=20_000, seed=np.int64(5)) == first
    after = _null_stats.cache_info()
    assert (after.hits, after.currsize) == (info.hits + 1, info.currsize)

    table = _null_stats(20, 20_000, 5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0

    limit = _null_stats.cache_info().maxsize
    assert limit is not None
    for seed in range(limit + 3):
        _null_stats(2, 10, seed)
    assert _null_stats.cache_info().currsize <= limit


def test_null_table_build_holds_one_block_besides_the_table():
    # a buffer of all 4,000 samples would take 64 MB
    n, sims = 2_000, 4_000
    _null_stats.__wrapped__(n, 2, 7)  # numpy's lazy set-up, paid once a process
    tracemalloc.start()
    try:
        _null_stats.__wrapped__(n, sims, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * sims + 8 * _BLOCK_VALUES + 2**20


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 3),
       a=st.floats(-1.0, 2.0), b=st.floats(-1.0, 2.0))
def test_p_value_in_unit_interval_and_nonincreasing(n, seed, a, b):
    lo, hi = sorted((a, b))
    p_lo = _null_sf(lo, n, 2_000, seed)
    p_hi = _null_sf(hi, n, 2_000, seed)
    assert 0.0 <= p_hi <= p_lo <= 1.0
