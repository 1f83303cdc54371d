import math

import numpy as np
import pytest
from hypothesis import given, settings

from iwhc import (DomainError, HybridSample, HybridScheme, IwParams, ReciprocalSample,
                  apply_scheme, reciprocals, sample)
from _oracles import _initial_guess_ref
from conftest import censored_samples, random_censored_sample


def test_scheme_invariants():
    with pytest.raises(DomainError):
        HybridScheme(n=10, R=0, T=1.0)
    with pytest.raises(DomainError):
        HybridScheme(n=10, R=11, T=1.0)
    with pytest.raises(DomainError):
        HybridScheme(n=10, R=5, T=0.0)


@pytest.mark.parametrize("bad", ["1.5", None, [1.5], True, 1j, 10 ** 400])
def test_scheme_takes_only_a_real_time(bad):
    with pytest.raises(DomainError, match="T (must be a real number|is outside the float range)"):
        HybridScheme(n=5, R=2, T=bad)


def test_scheme_time_is_a_positive_float_and_may_be_infinite():
    for T in (1.5, np.float64(1.5), np.float32(1.5), 3):
        scheme = HybridScheme(n=5, R=2, T=T)
        assert type(scheme.T) is float and scheme.T == float(T)
    assert HybridScheme(n=5, R=5, T=math.inf).T == math.inf
    for T in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(DomainError, match="T must be positive"):
            HybridScheme(n=5, R=2, T=T)


def test_flood_scheme1(flood):
    s = apply_scheme(flood, HybridScheme(n=20, R=18, T=0.5))
    assert s.r == 17
    assert s.u == 0.5
    expected = [0.265, 0.269, 0.297, 0.315, 0.324, 0.338, 0.379, 0.379, 0.392,
                0.402, 0.412, 0.416, 0.418, 0.423, 0.449, 0.484, 0.494]
    assert s.times.tolist() == pytest.approx(expected)


def test_flood_scheme2(flood):
    s = apply_scheme(flood, HybridScheme(n=20, R=14, T=0.45))
    assert s.r == 14
    assert s.u == pytest.approx(0.423)
    assert s.times[-1] == pytest.approx(0.423)


def test_guinea_scheme1(guinea):
    s = apply_scheme(guinea, HybridScheme(n=72, R=50, T=90.0))
    assert s.r == 47
    assert s.u == 90.0
    assert s.times[-1] == 87.0


def test_guinea_scheme2_stops_at_rth_failure_despite_tie(guinea):
    # the 60th and 61st order statistics are both 146; the test stops at the
    # 60th failure event, so exactly R values are observed
    s = apply_scheme(guinea, HybridScheme(n=72, R=60, T=150.0))
    assert s.r == 60
    assert s.u == 146.0
    assert s.times[-1] == 146.0
    assert np.count_nonzero(s.times == 146.0) == 1


def test_complete_when_nothing_binds():
    data = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    s = apply_scheme(data, HybridScheme(n=5, R=5, T=math.inf))
    assert s.r == 5
    assert s.u == 5.0
    assert s.times.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_failure_exactly_at_time_budget_is_observed():
    data = np.array([0.5, 1.0, 2.0, 3.0])
    s = apply_scheme(data, HybridScheme(n=4, R=4, T=2.0))
    assert s.r == 3
    assert s.times[-1] == 2.0
    assert s.u == 2.0


def test_zero_failures_is_representable():
    data = np.array([2.0, 3.0, 4.0])
    s = apply_scheme(data, HybridScheme(n=3, R=2, T=1.0))
    assert s.r == 0
    assert s.u == 1.0


def test_length_mismatch_rejected():
    with pytest.raises(DomainError):
        apply_scheme(np.array([1.0, 2.0]), HybridScheme(n=3, R=2, T=5.0))


@pytest.mark.parametrize("times, match", [
    (np.ones((2, 3)), r"complete failure times must be one-dimensional, got shape \(2, 3\)"),
    ("abcdef", "complete failure times must be numbers, got 'abcdef'"),
], ids=["matrix", "string"])
def test_malformed_complete_times_rejected(times, match):
    with pytest.raises(DomainError, match=match):
        apply_scheme(times, HybridScheme(n=6, R=4, T=2.0))


def test_reciprocals_basic():
    s = apply_scheme(np.array([0.5, 2.0]), HybridScheme(n=2, R=2, T=math.inf))
    rs = reciprocals(s)
    assert rs.x.tolist() == [2.0, 0.5]
    assert rs.u == 2.0
    assert rs.r == 2
    assert rs.n == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_reciprocals_rejects_times_outside_zero_to_inf(bad):
    # a hand-built sample has not been through apply_scheme
    scheme = HybridScheme(n=4, R=3, T=math.inf)
    s = HybridSample(times=np.array([1.0, 2.0, bad]), r=3, u=2.0, scheme=scheme)
    with pytest.raises(DomainError, match="failure times must be strictly positive and finite"):
        reciprocals(s)


@pytest.mark.parametrize("times, r, u, match", [
    ([1.0, 2.0], 3, 2.0, "r=3 failures among n=4 units"),
    ([1.0, 2.0, 3.0], 2, 3.0, "r=2 failures among n=4 units"),
    ([1.0, 2.0, 3.0, 4.0, 5.0], 5, 5.0, "r=5 failures among n=4 units"),
    ([[1.0, 2.0, 3.0]], 3, 3.0, "in one dimension"),
    ([3.0, 1.0, 2.0], 3, 3.0, "ascending"),
    ([1.0, 2.0, 3.0], 3, 2.0, "at most u=2.0"),
    ([1.0, 2.0], 2, math.inf, "positive and finite"),
    ([1.0, 2.0], 2, math.nan, "positive and finite"),
    ([], 0, 0.0, "positive and finite"),
], ids=["r-above-times", "r-below-times", "r-above-n", "2d", "unsorted", "beyond-u",
        "u-inf", "u-nan", "u-zero"])
def test_reciprocals_rejects_a_sample_apply_scheme_cannot_return(times, r, u, match):
    """Hand-built samples whose r, order or u do not fit their times: each
    would otherwise reach the likelihood, as a broadcast error or a fit."""
    s = HybridSample(times=np.array(times), r=r, u=u, scheme=HybridScheme(n=4, R=3, T=math.inf))
    with pytest.raises(DomainError, match=match):
        reciprocals(s)


@pytest.mark.parametrize("field, value, match", [
    ("r", 2.5, "r must be an integer, got 2.5"),
    ("r", -1, "0 <= r <= n, got r=-1"),
    ("r", 5, "0 <= r <= n, got r=5, n=3"),
    ("n", "4", "n must be an integer, got '4'"),
    ("n", 2, "0 <= r <= n, got r=3, n=2"),
    ("x", np.array([[1.0, 0.5, 0.25]]), r"one dimension, got shape \(1, 3\)"),
    ("x", np.array([1.0, 0.5]), r"r=3 reciprocals in one dimension, got shape \(2,\)"),
    ("x", np.array([1.0, 0.5, 0.0]), "x must be strictly positive and finite"),
    ("x", np.array([math.inf, 0.5, 0.25]), "x must be strictly positive and finite"),
    ("x", np.array([1.0, math.nan, 0.25]), "x must be strictly positive and finite"),
    ("x", "abc", "x must be numbers"),
    ("u", math.inf, "u must be positive and finite, got inf"),
    ("u", 0.0, "u must be positive and finite, got 0.0"),
    ("u", math.nan, "u must be positive and finite, got nan"),
    ("u", "4", "u must be a real number, got '4'"),
], ids=["r-fraction", "r-negative", "r-above-n", "n-string", "n-below-r", "x-2d", "x-short",
        "x-zero", "x-inf", "x-nan", "x-string", "u-inf", "u-zero", "u-nan", "u-string"])
def test_reciprocal_sample_rejects_each_bad_field(field, value, match):
    # a complete sample: with u = inf its log weights once read 0 * -inf =
    # NaN, and posterior_draws raised DegenerateWeightsError after a warning
    fields = {"x": np.array([1.0, 0.5, 0.25]), "u": 4.0, "r": 3, "n": 3, field: value}
    with pytest.raises(DomainError, match=match):
        ReciprocalSample(**fields)


def test_reciprocal_sample_stores_numpy_numbers_as_python_ones():
    s = ReciprocalSample(x=[1.0, 0.5], u=np.float32(4.0), r=np.int64(2), n=np.int32(3))
    assert (type(s.r), type(s.n), type(s.u), s.x.dtype) == (int, int, float, np.float64)
    assert ReciprocalSample(x=np.empty(0), u=1.0, r=0, n=0).x.size == 0


def test_reciprocals_keeps_ties_and_a_failure_at_u():
    s = HybridSample(times=np.array([1.0, 2.0, 2.0]), r=3, u=2.0,
                     scheme=HybridScheme(n=4, R=3, T=math.inf))
    assert reciprocals(s).x.tolist() == [1.0, 0.5, 0.5]
    empty = apply_scheme(np.array([3.0, 4.0]), HybridScheme(n=2, R=2, T=1.0))
    assert (empty.r, reciprocals(empty).x.size) == (0, 0)


def test_reciprocals_flood_scheme1(flood_s1):
    assert flood_s1.r == 17
    assert flood_s1.x.min() == pytest.approx(1 / 0.494, rel=1e-12)
    assert np.all(np.diff(flood_s1.x) <= 0)
    assert np.all(flood_s1.x >= 1 / flood_s1.u)


def test_log_cache_equals_the_logs(flood_s1, guinea_complete):
    for s in (flood_s1, guinea_complete):
        assert np.array_equal(s.log_x, np.log(s.x))
        assert s.sum_log_x == np.log(s.x).sum()
        assert s.log_u == np.log(s.u)
        lx = np.log(s.x)
        powers = [np.ones_like(lx), lx, lx ** 2, lx ** 2 * lx]
        assert np.array_equal(s.log_x_powers, np.stack(powers))


def _assert_regression_start_equals_the_copy(s):
    with np.errstate(all="ignore"):
        want = _initial_guess_ref(s)
    assert s.regression_start == want
    assert s.log_x_max == np.log(s.x).max()
    assert np.array_equal(s.log_x_shifted, np.log(s.x) - np.log(s.x).max())


def test_cached_regression_start_equals_the_copy(flood_s1, flood_s2, flood_complete,
                                                 guinea_s1, guinea_s2, guinea_complete):
    for s in (flood_s1, flood_s2, flood_complete, guinea_s1, guinea_s2, guinea_complete):
        _assert_regression_start_equals_the_copy(s)
    rng = np.random.default_rng(33)
    for _ in range(200):
        _assert_regression_start_equals_the_copy(random_censored_sample(rng)[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(censored_samples())
def test_cached_regression_start_equals_the_copy_property(case):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return
    s = reciprocals(apply_scheme(data, scheme))
    if s.r >= 1:
        _assert_regression_start_equals_the_copy(s)


def test_reciprocals_involution(flood_s1):
    assert 1.0 / (1.0 / flood_s1.x) == pytest.approx(flood_s1.x, rel=1e-15)


def test_random_schemes_respect_invariants():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        params = IwParams(float(rng.uniform(0.3, 5)), float(rng.uniform(0.2, 4)))
        data = sample(n, params, rng.integers(2 ** 32))
        scheme = HybridScheme(n=n, R=int(rng.integers(1, n + 1)),
                              T=float(rng.uniform(0.05, 10)))
        s = apply_scheme(data, scheme)
        assert s.r <= scheme.R
        assert np.all(np.diff(s.times) >= 0)
        assert np.all(s.times <= s.u + 1e-15)
        if s.r == scheme.R:
            assert s.u == s.times[-1]
            assert s.u <= scheme.T
        else:
            assert s.u == scheme.T


def test_idempotent_on_already_censored_extension():
    # censor, then re-apply a scheme with the same terminus to the observed part
    data = np.array([0.1, 0.2, 0.3, 0.7, 0.9])
    first = apply_scheme(data, HybridScheme(n=5, R=5, T=0.5))
    again = apply_scheme(first.times, HybridScheme(n=first.r, R=first.r, T=0.5))
    assert again.times.tolist() == first.times.tolist()
    assert again.r == first.r
