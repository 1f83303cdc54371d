import math
import warnings

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
    ReciprocalSample,
    apply_scheme,
    bayes_is,
    g2_log_density,
    hpd_interval,
    posterior_draws,
    reciprocals,
    sample,
    sample_g1,
    sample_g2,
    weighted_quantile,
)
from iwhc import errors, posterior
import _oracles
from _oracles import (
    bayes_is_ref,
    find_mode_ref,
    g1_rate_ref,
    g2_quadrature_cdf,
    g2_terms_ref,
    hpd_interval_ref,
    hull_ref,
    hull_refresh_ref,
    posterior_quadrature_means,
    sample_g2_ref,
    stable_sorted_cum,
    weighted_quantile_ref,
)
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
    draws, info = sample_g2(50_000, s, priors, seed=3)
    assert 0 < info["acceptance_ratio"] <= 1
    grid = np.linspace(lo, hi, 4000)
    cdf = g2_quadrature_cdf(s, priors, grid)
    srt = np.sort(draws)
    ranks = np.arange(1, srt.size + 1) / srt.size
    sup = np.abs(ranks - np.interp(srt, grid, cdf)).max()
    assert sup < 0.01


def test_sample_g2_mean_matches_quadrature(flood_s1):
    draws, _ = sample_g2(50_000, flood_s1, FLAT, seed=4)
    grid = np.linspace(0.8, 14.0, 6000)
    dens = np.exp(g2_log_density(grid, flood_s1, FLAT)
                  - g2_log_density(grid, flood_s1, FLAT).max())
    mean_quad = np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - mean_quad) < 3 * se


@pytest.mark.parametrize("count", [1, 3])
def test_sample_g2_fewer_draws_than_first_round(flood_s1, count):
    draws, _ = sample_g2(count, flood_s1, FLAT, seed=10)
    assert draws.shape == (count,)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_sample_g2_acceptance_after_refinement(flood_s1):
    # one full-size first round, before the hull is refined, drops this to ~0.66
    _, info = sample_g2(1000, flood_s1, FLAT, seed=26)
    assert info["acceptance_ratio"] >= 0.9


def test_sample_g2_improper_posterior_is_insufficient_data():
    # all failures tied at t=1: log g2 = (a+r-1)*log(alpha) + const keeps rising
    with pytest.raises(InsufficientDataError, match="improper"):
        sample_g2(10, _complete([1.0] * 5), FLAT, seed=0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("count", [10, 1000])
@pytest.mark.parametrize("s", [
    ReciprocalSample(x=np.full(18, 1 / 8), u=8.0, r=18, n=32),
    ReciprocalSample(x=np.full(16, 1 / 0.003), u=0.003, r=16, n=39),
], ids=["eighteen-tied-at-u", "sixteen-tied-at-u"])
def test_sample_g2_improper_with_a_rounded_mode_is_insufficient_data(deadline, s, count, seed):
    # every failure tied at the censoring time u under flat priors: log g2 =
    # (r-1)*log(alpha) + const, but its float slope reads 0 near alpha =
    # 4.8e15; the hull masses there came out NaN and the sampler never
    # returned, or on other seeds it returned draws near that false mode
    deadline(5)
    with pytest.raises(InsufficientDataError, match="improper"):
        sample_g2(count, s, FLAT, seed=seed)


def test_sample_g2_envelope_without_finite_mass_is_insufficient_data(deadline, monkeypatch):
    # with the rounding check off, the false mode of the eighteen-tied sample
    # gives NaN hull masses on this seed, and the envelope check stops the loop
    monkeypatch.setattr(posterior, "_SLOPE_ROUNDING", 0.0)
    deadline(5)
    with pytest.raises(InsufficientDataError, match="no finite mass"):
        sample_g2(1000, ReciprocalSample(x=np.full(18, 1 / 8), u=8.0, r=18, n=32), FLAT, seed=0)


def test_sample_g2_tail_that_never_turns_over_is_insufficient_data(monkeypatch):
    # a mode reported inside the rising density reaches the upper-tail check
    monkeypatch.setattr(posterior, "_find_mode", lambda lnf, dlnf: 1.0)
    with pytest.raises(InsufficientDataError, match="never turns over"):
        sample_g2(10, _complete([1.0] * 5), FLAT, seed=0)


def test_sample_g2_unallocatable_count_is_a_domain_error(flood_s1):
    count = 10 ** 30
    with pytest.raises(DomainError, match=f"{count} draws need {16 * count} bytes"):
        sample_g2(count, flood_s1, FLAT, seed=0)


def test_sample_g2_deterministic(flood_s1):
    a, _ = sample_g2(500, flood_s1, FLAT, seed=9)
    b, _ = sample_g2(500, flood_s1, FLAT, seed=9)
    assert np.array_equal(a, b)


_CASES = pytest.mark.parametrize("case, priors", [
    ("flood_s1", FLAT),
    ("guinea_s1", GammaPriors(2, 1, 1, 1)),
], ids=["flood", "guinea"])


@_CASES
def test_sample_g2_fills_m1000_in_at_most_two_rounds(request, case, priors):
    s = request.getfixturevalue(case)
    for seed in range(20):
        _, info = sample_g2(1000, s, priors, seed=seed)
        assert info["rounds"] <= 2


@pytest.mark.parametrize("case, priors, lo, hi", [
    ("flood_s1", FLAT, 0.8, 12.0),
    ("guinea_s1", GammaPriors(2, 1, 1, 1), 0.3, 1.5),
], ids=["flood", "guinea"])
def test_sample_g2_pooled_three_draw_calls_match_quadrature_cdf(request, case, priors, lo, hi):
    # each call builds its own hull and fills in one or two rounds
    s = request.getfixturevalue(case)
    draws = np.concatenate([sample_g2(3, s, priors, seed=seed)[0] for seed in range(6000)])
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
        draws, info = sample_g2(1000, s, p, seed=27)
        assert np.exp(info["log_rate"]) == pytest.approx(g1_rate_ref(s, p, draws), rel=1e-12)


@_CASES
def test_posterior_draws_take_lams_from_the_g2_rates(request, case, priors):
    s = request.getfixturevalue(case)
    out = posterior_draws(s, priors, 500, seed=28)
    rng = np.random.default_rng(np.random.SeedSequence(28).spawn(1)[0])
    alphas, _ = sample_g2(500, s, priors, rng)
    lams = rng.gamma(s.r + priors.c, 1.0, size=500) / g1_rate_ref(s, priors, alphas)
    assert np.array_equal(out.alphas, alphas)
    assert out.lams == pytest.approx(lams, rel=1e-12)


# ---------------------------------------------------------------------------
# the float setup and the lean summaries against their numpy copies
# ---------------------------------------------------------------------------


_TYPED = (DomainError, InsufficientDataError, NumericError, DegenerateWeightsError)
_PRIORS3 = (FLAT, GammaPriors(2, 1, 1, 1), GammaPriors(0.5, 0.01, 3.0, 0.01))


def _outcome(fn):
    """``fn()``, or the type and message of the typed error it raised."""
    try:
        return fn()
    except _TYPED as exc:
        return type(exc), str(exc)


def _g2_fields(draws, info):
    return (draws.tobytes(), info["log_rate"].tobytes(), info["mode"], info["hull_points"],
            info["rounds"], info["acceptance_ratio"])


def _bayes_is_fields(res):
    d = res.draws
    out = [d.alphas, d.lams, d.weights, d.acceptance_ratio]
    for est in (res.alpha, res.lam, res.theta):
        out += [est.mean, est.variance, est.hpd.lower, est.hpd.upper]
    return out


def _bits_of(fields):
    return tuple(f.tobytes() if isinstance(f, np.ndarray) else float(f).hex() for f in fields)


def _assert_sampler_and_summaries_equal_the_copies(s, priors, seed, count):
    """Equal bits or equal typed errors; the library must not warn, where
    the copies warn when theta overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        new_g2 = _outcome(lambda: _g2_fields(*sample_g2(count, s, priors, seed)))
        new_is = _outcome(lambda: _bits_of(_bayes_is_fields(bayes_is(s, priors, count, seed))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref_g2 = _outcome(lambda: _g2_fields(*sample_g2_ref(count, s, priors,
                                                            np.random.default_rng(seed))))
        ref_is = _outcome(lambda: _bits_of(bayes_is_ref(s, priors, count, seed)))
    assert new_g2 == ref_g2
    assert new_is == ref_is


@pytest.mark.parametrize("case", ["flood_complete", "flood_s1", "flood_s2",
                                  "guinea_complete", "guinea_s1", "guinea_s2"])
def test_sampler_and_summaries_equal_the_numpy_copies_on_datasets(request, case):
    s = request.getfixturevalue(case)
    for i, priors in enumerate(_PRIORS3):
        _assert_sampler_and_summaries_equal_the_copies(s, priors, 30 + i, 1000)


def test_sampler_and_summaries_equal_the_numpy_copies_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        s, _ = random_censored_sample(rng)
        seed = int(rng.integers(2 ** 32))
        for priors in _PRIORS3:
            _assert_sampler_and_summaries_equal_the_copies(s, priors, seed, 1000)
            # the mode search from starts other than the regression start
            guess = float(np.exp(rng.uniform(-5.0, 5.0)))
            new = _outcome(lambda: posterior._find_mode(
                lambda a: posterior._g2_slope_curve(a, s, priors), guess))
            ref = _outcome(lambda: find_mode_ref(lambda a: g2_terms_ref(a, s, priors, 2)[2:],
                                                 guess))
            assert new == ref
            # the tangents of the hull, at the start points and one doubling
            alphas = guess * np.exp(np.arange(-2.0, 3.0))
            for a in (alphas, alphas[-1:] * 2.0):
                new = [v.tobytes() for v in posterior._g2_terms(a, s, priors, 1)]
                assert new == [v.tobytes() for v in g2_terms_ref(a, s, priors, 1)]


@pytest.mark.parametrize("case", ["flood_s1", "guinea_s2"])
def test_sampler_tail_doubling_equals_the_numpy_copy(request, monkeypatch, case):
    # a mode reported far below the true one puts the top start tangent on
    # the rising side, so the setup doubles alpha until log g2 turns over
    s = request.getfixturevalue(case)
    for i, priors in enumerate(_PRIORS3):
        low = sample_g2(10, s, priors, 0)[1]["mode"] / 1000.0
        assert g2_terms_ref(low * math.e ** 2, s, priors, 1)[2] > 0
        monkeypatch.setattr(posterior, "_find_mode", lambda dlnf, guess: low)
        monkeypatch.setattr(_oracles, "find_mode_ref", lambda dlnf, guess: low)
        _assert_sampler_and_summaries_equal_the_copies(s, priors, 40 + i, 1000)
        monkeypatch.undo()


@settings(max_examples=200, deadline=None)
@given(censored_samples(), st.sampled_from(_PRIORS3), st.integers(0, 2 ** 32 - 1))
def test_sampler_and_summaries_equal_the_numpy_copies_property(case, priors, seed):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return
    _assert_sampler_and_summaries_equal_the_copies(
        reciprocals(apply_scheme(data, scheme)), priors, seed, 50)


# a tangent set that no concave function has can give NaN masses, in both
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_hull_refresh_equals_the_numpy_copy():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        n = int(rng.integers(2, 14))
        x = np.sort(np.exp(rng.normal(size=n) * 2.0))
        d = np.sort(rng.normal(size=n) * 10.0 ** rng.uniform(-14, 3))[::-1].copy()
        h = rng.normal(size=n) * 10.0
        # parallel tangents, and flat ones exactly or nearly at zero slope
        for i in np.flatnonzero(rng.random(n) < 0.2):
            d[i] = d[i - 1] if i > 0 else d[i]
        for i in np.flatnonzero(rng.random(n) < 0.2):
            d[i] = rng.choice([0.0, -0.0, 1e-13, -5e-13])
        if rng.random() < 0.5:
            d = np.sort(d)[::-1].copy()
        hull = posterior._Hull(x, h, d)
        z, flat, cum = hull_refresh_ref(x, h, d)
        assert hull.z.tobytes() == z.tobytes()
        assert hull.flat.tobytes() == flat.tobytes()
        assert hull.cum.tobytes() == cum.tobytes()
        if np.isfinite(cum[-1]) and cum[-1] > 0:
            seed = int(rng.integers(2 ** 32))
            t, j = hull.propose(50, np.random.default_rng(seed))
            t_ref, j_ref = hull_ref(x, h, d).propose(50, np.random.default_rng(seed))
            assert (t.tobytes(), j.tobytes()) == (t_ref.tobytes(), j_ref.tobytes())


def test_posterior_draws_reuse_of_one_seed_sequence(flood_s1):
    root = np.random.SeedSequence(18)
    first = posterior_draws(flood_s1, FLAT, 300, root)
    again = posterior_draws(flood_s1, FLAT, 300, root)
    from_int = posterior_draws(flood_s1, FLAT, 300, 18)
    for draws in (again, from_int):
        assert np.array_equal(draws.alphas, first.alphas)
        assert np.array_equal(draws.lams, first.lams)
        assert np.array_equal(draws.weights, first.weights)
    assert root.n_children_spawned == 0


def test_sample_g2_wide_shape_posterior_returns(deadline):
    # sum x**alpha underflowed above alpha ~ 330 and the sampler never returned
    deadline(10)
    s = _wide_shape_sample()
    assert np.all(np.isfinite(g2_log_density(np.array([400.0, 1e4, 1e6]), s, FLAT)))
    draws, _ = sample_g2(200, s, FLAT, seed=0)
    assert draws.shape == (200,)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_bayes_is_lam_overflow_is_numeric_error(deadline):
    deadline(10)
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


def test_posterior_draws_deterministic(flood_s1):
    one = posterior_draws(flood_s1, FLAT, 1000, seed=13)
    same = posterior_draws(flood_s1, FLAT, 1000, seed=13)
    for field in ("alphas", "lams", "weights"):
        assert np.array_equal(getattr(one, field), getattr(same, field))
    assert one.acceptance_ratio == same.acceptance_ratio
    other = posterior_draws(flood_s1, FLAT, 1000, seed=14)
    assert not np.array_equal(one.alphas, other.alphas)


def test_mean_var_hand_oracle():
    raw = np.array([1.0, 1.0, 2.0])
    mean, var = posterior._mean_var(np.array([1.0, 2.0, 3.0]), raw / raw.sum())
    assert mean == pytest.approx(2.25, abs=1e-14)
    assert var == pytest.approx(0.6875, abs=1e-14)


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


def test_weighted_quantile_ties_gather_weight_in_input_order():
    # 15 zeros and 17 ones; at the weight of the zeros summed in input order
    # the quantile is 0.  Summed in the order numpy's default argsort leaves
    # them in on x86 SIMD builds, the zeros round to less, which would give 1
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, size=32).astype(float)
    weights = rng.random(32)
    zeros = values == 0
    beta = float(np.cumsum(weights[zeros])[-1] / weights.sum())
    assert weighted_quantile(values, weights, beta) == 0.0
    assert weighted_quantile(values, weights, np.nextafter(beta, 1.0)) == 1.0


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


def test_hpd_validates_weights_as_the_quantile_does():
    with pytest.raises(DomainError, match="equally long"):
        hpd_interval(np.arange(10.0), np.ones(5), 0.5)
    negative = np.array([19.0] + [-1.0] * 9)
    for summary in (lambda w: hpd_interval(np.arange(10.0), w, 0.5),
                    lambda w: weighted_quantile(np.arange(10.0), w, 0.5)):
        with pytest.raises(DomainError, match="nonnegative"):
            summary(negative)


def test_hpd_with_infinite_values_raises_without_a_warning():
    values = np.array([-np.inf] * 6 + [1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"degenerate interval \(-inf, -inf\)"):
            hpd_interval(values, np.full(10, 0.1), 0.5)


@st.composite
def _weighted_samples(draw):
    """Values and weights of up to 10,000 draws, with ties, signed zeros,
    infinities or NaNs among the values and equal, sparse or skewed weights."""
    m = draw(st.integers(1, 40) | st.integers(1_000, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=m) * 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["distinct", "ties", "zeros", "inf", "nan"]))
    if kind == "ties":
        values = rng.integers(0, draw(st.integers(1, 50)), size=m).astype(float)
    elif kind != "distinct":
        special = {"zeros": [0.0, -0.0], "inf": [np.inf, -np.inf], "nan": [np.nan]}[kind]
        hit = rng.random(m) < draw(st.floats(0.0, 1.0))
        values[hit] = rng.choice(special, size=int(hit.sum()))
    weighting = draw(st.sampled_from(["random", "equal", "sparse", "skewed"]))
    weights = {"random": lambda: rng.random(m),
               "equal": lambda: np.full(m, 1.0 / m),
               "sparse": lambda: rng.random(m) * (rng.random(m) < 0.2),
               "skewed": lambda: np.exp(8.0 * rng.normal(size=m))}[weighting]()
    return values, weights


def _bits(x):
    return float(x).hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_weighted_samples(), st.floats(0.0, 1.0), st.floats(0.01, 0.99), st.data())
def test_quantile_and_hpd_equal_the_stable_sort_formulas(sample_, beta, level, data):
    values, weights = sample_
    if not weights.sum() > 0:
        with pytest.raises(DegenerateWeightsError):
            weighted_quantile(values, weights, beta)
        return
    # the shared sort gives the stable order's arrays, NaN tail included
    vs, cum = posterior._sorted_cum(values, weights)
    ref_vs, ref_cum = stable_sorted_cum(values, weights)
    assert np.array_equal(vs, ref_vs, equal_nan=True)
    assert np.array_equal(cum, ref_cum, equal_nan=True)
    # boundaries of the cumulative weights are where a tie order would show
    at = float(ref_cum[data.draw(st.integers(0, values.size - 1))])
    for b in (0.0, 1.0, beta, min(at, 1.0)):
        assert _bits(weighted_quantile(values, weights, b)) == \
            _bits(weighted_quantile_ref(values, weights, b))
    if values.size * level < 2:
        with pytest.raises(DomainError):
            hpd_interval(values, weights, level)
        return
    lo, hi = hpd_interval_ref(values, weights, level)
    try:
        interval = hpd_interval(values, weights, level)
    except NumericError:
        assert not lo < hi
        return
    assert (_bits(interval.lower), _bits(interval.upper)) == (_bits(lo), _bits(hi))


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


def test_bayes_is_reduces_to_averages_for_complete():
    s = _complete(sample(30, IwParams(1.5, 1.0), 14))
    res = bayes_is(s, FLAT, 3000, seed=15)
    assert res.alpha.mean == pytest.approx(res.draws.alphas.mean(), rel=1e-12)
    assert res.lam.mean == pytest.approx(res.draws.lams.mean(), rel=1e-12)


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
