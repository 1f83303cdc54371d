import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from iwhc import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    GammaPriors,
    HybridSample,
    HybridScheme,
    InsufficientDataError,
    IwParams,
    NumericError,
    StudyConfig,
    apply_scheme,
    asymptotic_ci,
    bayes_is,
    cdf,
    fit_mle,
    g2_log_density,
    hpd_interval,
    log_likelihood,
    observed_fisher,
    pdf,
    posterior_draws,
    quantile,
    rate_from_scale,
    reciprocals,
    sample,
    sample_g1,
    sample_g2,
    scale_from_rate,
    score,
    third_derivatives,
    weighted_quantile,
)
from iwhc.datasets import load_bundled

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


_TYPED = (DomainError, InsufficientDataError, NumericError, DegenerateWeightsError)
_SCHEME = HybridScheme(n=10, R=8, T=2.0)
_SAMPLE = reciprocals(apply_scheme(sample(10, IwParams(2.0, 1.0), 1), _SCHEME))
_POSITIVE = st.floats(0.5, 2.0)
# input that is not an array of positive floats, or reads as one only by luck
_JUNK = st.one_of(
    st.text(alphabet="abcxyz ,.[]-", max_size=6),    # spells no number, "nan" or "inf"
    st.none(),
    st.dictionaries(st.text(max_size=2), _POSITIVE, max_size=2),
    st.complex_numbers(allow_nan=False, allow_infinity=False).filter(lambda z: z.imag != 0),
    st.integers(2 ** 1024, 2 ** 1100),                # beyond the float range
    st.lists(_POSITIVE | st.text(alphabet="abc", min_size=1, max_size=3),
             min_size=1, max_size=4),
    st.lists(st.lists(_POSITIVE, max_size=3), min_size=2, max_size=3),    # ragged or not
)
_CALLS = {
    "pdf": lambda junk: pdf(junk, IwParams(2.0, 1.0)),
    "cdf": lambda junk: cdf(junk, IwParams(2.0, 1.0)),
    "reciprocals": lambda junk: reciprocals(HybridSample(times=junk, r=2, u=3.0,
                                                         scheme=_SCHEME)).x,
    "g2_log_density": lambda junk: g2_log_density(junk, _SAMPLE, GammaPriors()),
    "sample_g1": lambda junk: sample_g1(junk, _SAMPLE, GammaPriors(), 0),
}


@pytest.mark.parametrize("name", list(_CALLS))
@settings(max_examples=150, deadline=None)
@given(junk=_JUNK)
def test_junk_input_gives_a_finite_answer_or_a_typed_error(name, junk):
    try:
        out = _CALLS[name](junk)
    except _TYPED:
        return
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("junk", ["abc", [[1.0], [2.0, 3.0]], 2 ** 1024],
                         ids=["string", "ragged", "huge-int"])
def test_unreadable_input_is_named_in_a_domain_error(junk):
    for name, call in _CALLS.items():
        with pytest.raises(DomainError, match="must be numbers, got "):
            call(junk)


_ERRORS = (*_TYPED, ConvergenceError)
_FLOOD_S1 = reciprocals(apply_scheme(load_bundled("flood"), HybridScheme(n=20, R=18, T=0.5)))
_FIT = fit_mle(_FLOOD_S1)
_P = IwParams(2.0, 1.0)
_G = GammaPriors()
_VALUES, _WEIGHTS = [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]
# every numeric argument of the public functions, the others valid: a count,
# a level, a point or a parameter, or the values of a summary
_ARGUMENTS = {
    "sample count": lambda v: sample(v, _P, 0),
    "quantile prob": lambda v: quantile(v, _P),
    "log_likelihood alpha": lambda v: log_likelihood(v, 1.0, _FLOOD_S1),
    "log_likelihood lam": lambda v: log_likelihood(2.0, v, _FLOOD_S1),
    "score alpha": lambda v: score(v, 1.0, _FLOOD_S1),
    "score lam": lambda v: score(2.0, v, _FLOOD_S1),
    "observed_fisher alpha": lambda v: observed_fisher(v, 1.0, _FLOOD_S1),
    "third_derivatives alpha": lambda v: third_derivatives(v, 1.0, _FLOOD_S1),
    "third_derivatives lam": lambda v: third_derivatives(2.0, v, _FLOOD_S1),
    "asymptotic_ci level": lambda v: asymptotic_ci(_FIT, v),
    "bayes_is count": lambda v: bayes_is(_FLOOD_S1, _G, v, 0),
    "bayes_is level": lambda v: bayes_is(_FLOOD_S1, _G, 20, 0, level=v),
    "posterior_draws count": lambda v: posterior_draws(_FLOOD_S1, _G, v, 0),
    "sample_g2 count": lambda v: sample_g2(v, _FLOOD_S1, _G, 0),
    "hpd_interval values": lambda v: hpd_interval(v, _WEIGHTS, 0.5),
    "hpd_interval weights": lambda v: hpd_interval(_VALUES, v, 0.5),
    "hpd_interval level": lambda v: hpd_interval(_VALUES, _WEIGHTS, v),
    "weighted_quantile values": lambda v: weighted_quantile(v, _WEIGHTS, 0.5),
    "weighted_quantile weights": lambda v: weighted_quantile(_VALUES, v, 0.5),
    "weighted_quantile beta": lambda v: weighted_quantile(_VALUES, _WEIGHTS, v),
    "IwParams alpha": lambda v: IwParams(v, 1.0),
    "IwParams theta": lambda v: IwParams(2.0, v),
    "rate_from_scale alpha": lambda v: rate_from_scale(v, 1.0),
    "rate_from_scale theta": lambda v: rate_from_scale(2.0, v),
    "scale_from_rate alpha": lambda v: scale_from_rate(v, 1.0),
    "scale_from_rate lam": lambda v: scale_from_rate(2.0, v),
    **{f"GammaPriors {name}": (lambda v, name=name: GammaPriors(**{name: v}))
       for name in "abcd"},
    "StudyConfig level": lambda v: StudyConfig(2.0, 1.0, ((10, 2.0, 8),), level=v),
}
# _JUNK, and bools and non-integral floats, which no count accepts
_ARGUMENT_JUNK = _JUNK | st.booleans() | st.floats(-3.0, 10.0).filter(
    lambda v: not v.is_integer())


@pytest.mark.parametrize("name", list(_ARGUMENTS))
@settings(max_examples=60, deadline=None)
@given(junk=_ARGUMENT_JUNK)
def test_junk_numeric_argument_gives_an_answer_or_a_typed_error(name, junk):
    try:
        _ARGUMENTS[name](junk)
    except _ERRORS:
        pass


# the 18 calls that raised a bare TypeError, ValueError or OverflowError
# before their numeric arguments went through errors._integer, _real and _floats
_NON_NUMBERS = [
    'sample("3", _P, 0)',
    'sample(2.5, _P, 0)',
    'quantile("a", _P)',
    'log_likelihood("a", 1.0, _FLOOD_S1)',
    'score(None, 1.0, _FLOOD_S1)',
    'third_derivatives("a", 1.0, _FLOOD_S1)',
    'asymptotic_ci(_FIT, "0.9")',
    'bayes_is(_FLOOD_S1, _G, "10", 0)',
    'bayes_is(_FLOOD_S1, _G, 10.5, 0)',
    'sample_g2("10", _FLOOD_S1, _G, 0)',
    'hpd_interval([1.0, 2, 3, 4], [1, 1, 1, 1], "x")',
    'hpd_interval(["a", "b", "c", "d"], [1, 1, 1, 1], 0.5)',
    'weighted_quantile([1.0, 2], [1, 1], "x")',
    'IwParams("2", 1.0)',
    'IwParams(2.0, 10 ** 400)',
    'rate_from_scale("2", 1.0)',
    'scale_from_rate(2.0, None)',
    'GammaPriors("a")',
]


@pytest.mark.parametrize("call", _NON_NUMBERS)
def test_a_non_number_is_a_domain_error(call):
    with pytest.raises(DomainError, match="must be (an integer|a real number|numbers)|float range"):
        eval(call)


@pytest.mark.parametrize("call, message", [
    ('sample(0, _P, 0)', "count must be >= 1, got 0"),
    ('sample_g2(0, _FLOOD_S1, _G, 0)', "count must be >= 1, got 0"),
    ('bayes_is(_FLOOD_S1, _G, 1, 0)', "count must be >= 2, got 1"),
    ('asymptotic_ci(_FIT, 1)', "level must be in (0, 1), got 1"),
    ('hpd_interval(_VALUES, _WEIGHTS, 1.5)', "level must be in (0, 1), got 1.5"),
    ('weighted_quantile(_VALUES, _WEIGHTS, -1)', "beta must be in [0, 1], got -1"),
    ('IwParams(0, 1.0)', "alpha must be positive and finite, got 0"),
    ('rate_from_scale(2.0, -math.inf)', "theta must be positive and finite, got -inf"),
    ('scale_from_rate(2.0, 0)', "lam must be positive and finite, got 0"),
    ('GammaPriors(0, -1)', "hyperparameter b must be >= 0, got -1"),
    ('log_likelihood(0, 1.0, _FLOOD_S1)', "alpha and lam must be positive, got (0, 1.0)"),
])
def test_a_number_out_of_range_keeps_its_message(call, message):
    with pytest.raises(DomainError) as info:
        eval(call)
    assert str(info.value) == message


def test_a_rate_or_scale_beyond_the_float_range_is_a_domain_error():
    # theta**-2 = exp(1418) and lam**(-1/0.5) = exp(1381)
    with pytest.raises(DomainError, match="lam = exp.* is outside the float64 range"):
        rate_from_scale(2.0, 1e-308)
    with pytest.raises(DomainError, match="lam = exp"):
        IwParams(2.0, 1e-308).lam
    with pytest.raises(DomainError, match="theta = exp.* is outside the float64 range"):
        IwParams.from_rate(0.5, 1e-300)
