import math

import numpy as np
import pytest
from scipy import integrate

from iwhc import DomainError, IwParams, cdf, pdf, quantile, rate_from_scale, sample, scale_from_rate

PARAM_GRID = [
    (1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (4.3143, 2.7905), (1.4142, 0.0169),
    (3.0, 0.5), (0.8, 5.0), (2.5, 2.5), (6.0, 1.5), (1.1, 0.05),
]


def test_pdf_known_values():
    assert pdf(1.0, IwParams(1.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-7)
    assert pdf(1.0, IwParams(2.0, 1.0)) == pytest.approx(2 * math.exp(-1.0), abs=1e-7)


def test_cdf_known_values():
    assert cdf(1.0, IwParams(2.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-7)
    assert cdf(1e12, IwParams(2.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_pdf_vanishes_at_extremes_without_overflow():
    p = IwParams(8.0, 0.01)
    assert pdf(1e-300, p) == 0.0
    assert pdf(1e300, p) == pytest.approx(0.0, abs=1e-200)
    assert cdf(1e-300, p) == 0.0


def test_rejects_nonpositive_x():
    p = IwParams(1.0, 1.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            pdf(bad, p)
        with pytest.raises(DomainError):
            cdf(bad, p)


def test_invalid_params_rejected():
    for alpha, theta in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0)]:
        with pytest.raises(DomainError):
            IwParams(alpha, theta)


@pytest.mark.parametrize("alpha,theta", PARAM_GRID)
def test_pdf_integrates_to_one(alpha, theta):
    # integrate exp-substituted (x = e**y) between quantile breakpoints: the
    # upper tail is polynomial in x for small alpha and spans many decades,
    # which defeats a direct unbounded quad call
    p = IwParams(alpha, theta)
    probs = [1e-12, 1e-6, 0.1, 0.5, 0.9, 0.999, 1 - 1e-7, 1 - 1e-10]
    cuts = np.log([quantile(q, p) for q in probs])
    total = integrate.quad(lambda x: pdf(x, p), 0.0, np.exp(cuts[0]), limit=200)[0]
    total += sum(
        integrate.quad(lambda y: pdf(np.exp(y), p) * np.exp(y), lo, hi, limit=200)[0]
        for lo, hi in zip(cuts[:-1], cuts[1:]))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_cdf_monotone():
    p = IwParams(1.4142, 0.0169)
    grid = np.geomspace(1e-3, 1e5, 400)
    values = cdf(grid, p)
    assert np.all(np.diff(values) >= 0)
    assert values[0] >= 0 and values[-1] <= 1


def test_quantile_known_values():
    assert quantile(math.exp(-1.0), IwParams(1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert quantile(0.5, IwParams(2.0, 1.0)) == pytest.approx(1.201122409, rel=1e-8)


def test_quantile_strictly_increasing():
    p = IwParams(0.7, 3.0)
    probs = np.linspace(0.01, 0.99, 99)
    q = quantile(probs, p)
    assert np.all(np.diff(q) > 0)


def test_quantile_domain():
    p = IwParams(1.0, 1.0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            quantile(bad, p)


@pytest.mark.parametrize("alpha,theta", [(1.0, 1.0), (1.4142, 0.0169), (4.3143, 2.7905)])
def test_quantile_cdf_round_trips(alpha, theta):
    p = IwParams(alpha, theta)
    probs = np.linspace(0.01, 0.99, 25)
    assert cdf(quantile(probs, p), p) == pytest.approx(probs, abs=1e-10)
    x = quantile(np.array([0.3, 0.999]), p)
    assert quantile(cdf(x, p), p) == pytest.approx(x, rel=1e-10)


def test_cdf_derivative_matches_pdf():
    rng = np.random.default_rng(5)
    for alpha, theta in PARAM_GRID:
        p = IwParams(alpha, theta)
        for prob in rng.uniform(0.05, 0.95, 5):
            x = quantile(float(prob), p)
            h = 1e-5 * x
            fd = (cdf(x + h, p) - cdf(x - h, p)) / (2 * h)
            assert fd == pytest.approx(pdf(x, p), rel=1e-6)


def test_rate_scale_conversions():
    assert rate_from_scale(2.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert rate_from_scale(4.3143, 2.7905) == pytest.approx(0.0119452166667, rel=1e-9)
    theta = 0.0169
    back = scale_from_rate(1.4142, rate_from_scale(1.4142, theta))
    assert back == pytest.approx(theta, rel=1e-12)
    with pytest.raises(DomainError):
        rate_from_scale(-1.0, 1.0)
    with pytest.raises(DomainError):
        scale_from_rate(1.0, 0.0)


def test_params_rate_round_trip():
    p = IwParams.from_rate(1.4142, 320.0)
    assert rate_from_scale(p.alpha, p.theta) == pytest.approx(320.0, rel=1e-12)
    assert IwParams(1.4142, 0.0169).lam == pytest.approx(
        rate_from_scale(1.4142, 0.0169), rel=1e-12)


def test_sample_deterministic():
    p = IwParams(2.0, 1.0)
    a = sample(100, p, 123)
    b = sample(100, p, 123)
    assert np.array_equal(a, b)
    c = sample(100, p, 124)
    assert not np.array_equal(a, c)


def test_sample_is_inverse_transform():
    # a draw equals quantile(u) for the generator's own uniform stream
    p = IwParams(1.7, 0.8)
    seed = 99
    draws = sample(50, p, seed)
    u = np.random.default_rng(seed).random(50)
    assert draws == pytest.approx(quantile(u, p), rel=1e-14)
    assert quantile(math.exp(-1.0), IwParams(1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_sample_matches_cdf():
    p = IwParams(2.0, 1.0)
    draws = np.sort(sample(100_000, p, 7))
    ranks = np.arange(1, draws.size + 1) / draws.size
    d = np.abs(ranks - cdf(draws, p)).max()
    assert d < 0.01


def test_sample_count_validation():
    with pytest.raises(DomainError):
        sample(0, IwParams(1.0, 1.0), 1)
    count = 10 ** 30        # numpy rejects the shape before allocating
    with pytest.raises(DomainError, match=f"{count} lifetimes needs {8 * count} bytes"):
        sample(count, IwParams(1.0, 1.0), 1)
