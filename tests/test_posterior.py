import math
import tracemalloc
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
    PosteriorDraws,
    ReciprocalSample,
    apply_scheme,
    bayes_is,
    g2_log_density,
    hpd_interval,
    posterior_draws,
    reciprocals,
    sample,
    sample_g2,
    weighted_quantile,
)
from iwhc import errors, posterior
from iwhc.posterior import sample_g1
import _oracles
from _oracles import (
    bayes_is_ref,
    envelope_ref,
    g1_rate_ref,
    g2_quadrature_cdf,
    g2_terms_ref,
    hpd_interval_ref,
    posterior_quadrature_means,
    propose_ref,
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


def _c4_samples(count):
    """The first ``count`` samples of the C4 cell (n, T, R) = (30, 1.5, 20)
    at alpha = 2, lam = 1, one seed each."""
    params = IwParams.from_rate(2.0, 1.0)
    scheme = HybridScheme(n=30, R=20, T=1.5)
    return [reciprocals(apply_scheme(sample(30, params, seed), scheme)) for seed in range(count)]


@pytest.mark.parametrize("priors", [FLAT, GammaPriors(2, 1, 1, 1)], ids=["flat", "prior2"])
def test_sample_g2_acceptance_floor(flood_s1, guinea_s1, priors):
    # the table's envelope accepts 0.988 or more of the proposals here; the
    # floor lies six binomial standard errors (about 0.003 each) below
    for seed, s in enumerate([flood_s1, guinea_s1, *_c4_samples(50)]):
        _, info = sample_g2(1000, s, priors, seed=26 + seed)
        assert info["acceptance_ratio"] >= 0.97


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
    # 4.8e15; an envelope there once had NaN masses and the sampler never
    # returned, or on other seeds it returned draws near that false mode
    deadline(5)
    with pytest.raises(InsufficientDataError, match="improper"):
        sample_g2(count, s, FLAT, seed=seed)


@pytest.mark.parametrize("slope", [0.0, 0.5])
def test_sample_g2_envelope_without_finite_mass_is_insufficient_data(flood_s1, monkeypatch,
                                                                     slope):
    # a table whose upper tangent is flat or rising, which the table search
    # never returns, leaves the last segment of the envelope without a finite
    # mass, and the envelope check stops the sampler before its first round
    (alpha, h, d), _ = posterior._tangent_tables(posterior._Rows.of([flood_s1], [FLAT]))
    d[:, -1] = slope
    monkeypatch.setattr(posterior, "_tangent_tables", lambda rows: (np.stack((alpha, h, d)), {}))
    with pytest.raises(InsufficientDataError, match="no finite mass"):
        sample_g2(1000, flood_s1, FLAT, seed=0)


def test_sample_g2_mass_beyond_e80_is_a_numeric_error():
    # failures tied at 1 under an alpha prior of rate 1e-34: log g2 = 4 log
    # alpha - 1e-34 alpha + const turns at alpha = 4e34 but has not fallen 40
    # below its top at e^80, where the table stops; the posterior is proper,
    # with its mass beyond the sampler's range
    with pytest.raises(NumericError, match=r"not fallen 40 below its top by alpha=e\^80"):
        sample_g2(10, _complete([1.0] * 5), GammaPriors(0, 1e-34, 0, 0), seed=0)


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
    # each call builds its own envelope and fills in one or two rounds
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
    return (draws.tobytes(), info["log_rate"].tobytes(), info["rounds"],
            info["acceptance_ratio"])


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
            # tangents about starts other than the regression start
            guess = float(np.exp(rng.uniform(-5.0, 5.0)))
            alphas = guess * np.exp(np.linspace(-3.0, 3.0, posterior._TANGENTS))
            new = [v[0].tobytes() for v in posterior._g2_terms(
                alphas[None], posterior._Rows.of([s], [priors]), 1)]
            assert new == [v.tobytes() for v in g2_terms_ref(alphas, s, priors, 1)]


@pytest.mark.parametrize("factor", [1e-3, 1e3], ids=["below", "above"])
@pytest.mark.parametrize("case", ["flood_s1", "guinea_s2"])
def test_sampler_tail_doubling_equals_the_numpy_copy(request, monkeypatch, case, factor):
    # a regression start far below or above the top of log g2 puts the whole
    # start table on one side of it, so the search doubles the table's width
    # until both ends fall 40 below its top
    s = request.getfixturevalue(case)
    for i, priors in enumerate(_PRIORS3):
        (alpha, h, _), _ = posterior._tangent_tables(posterior._Rows.of([s], [priors]))
        alpha, h = alpha[0], h[0]
        start = float(alpha[h.argmax()]) * factor
        slopes = g2_terms_ref(start * np.exp([-3.0, 3.0]), s, priors, 1)[2]
        assert np.all(slopes > 0) if factor < 1 else np.all(slopes < 0)
        moved = ReciprocalSample(x=s.x, u=s.u, r=s.r, n=s.n)
        moved.__dict__["regression_start"] = (start, 1.0)
        monkeypatch.setattr(_oracles, "_initial_guess_ref", lambda s: (start, 1.0))
        _assert_sampler_and_summaries_equal_the_copies(moved, priors, 40 + i, 1000)
        monkeypatch.undo()


# counts about the edges of the blocks of the order-0 sums: the one block of
# up to 5,461 alphas, then two blocks, three and more
_BLOCK_EDGE_COUNTS = (1, 2, 1066, 4095, 4096, 4097, 4098, 5461, 5462, 8192, 8193, 3 * 4096 + 1,
                      int(np.random.default_rng(33).integers(3 * 4096, 6 * 4096)))


@pytest.mark.parametrize("r", [1, 2, 300])
def test_blocked_sums_equal_the_unblocked_copies(r):
    """Every order-0 sum, through each public reader, has the bits of the
    one array of exponentials, at d = 0 and d > 0 and block edges; and the
    order-1 sums of a table, one call for several records of r = 1, 2 and
    300, have the bits of each record's own array."""
    rng = np.random.default_rng(r)
    s = _complete(np.exp(rng.normal(size=r)))
    lx = np.log(s.x)
    mixed = [_complete(np.exp(rng.normal(size=m))) for m in (r, 1, 300, 2)]
    for priors in (FLAT, GammaPriors(2, 1, 1, 1)):
        for count in _BLOCK_EDGE_COUNTS:
            a = np.exp(rng.normal(size=count))
            rows = posterior._Rows.of([s], [priors])
            new = [v[0].tobytes() for v in posterior._g2_terms(a[None], rows, 0)]
            assert new[:1] == [v.tobytes() for v in _oracles._log_rate_sums_ref(a, lx, priors.d, 0)]
            ref = g2_terms_ref(a, s, priors, 0)
            assert new == [v.tobytes() for v in ref]
            assert g2_log_density(a, s, priors).tobytes() == ref[1].tobytes()
            want = _oracles.draw_lams_ref(ref[0], s.r + priors.c, np.random.default_rng(count))
            assert sample_g1(a, s, priors, count).tobytes() == want.tobytes()
        # an array of any shape is blocked as its flat order
        for shape in ((3, 4097), (1, 1)):
            a = np.exp(rng.normal(size=shape))
            assert g2_log_density(a, s, priors).tobytes() \
                == g2_terms_ref(a, s, priors, 0)[1].tobytes()
        a = np.exp(rng.normal(size=(len(mixed), posterior._TANGENTS)) * 2.0)
        terms = posterior._g2_terms(a, posterior._Rows.of(mixed, [priors] * len(mixed)), 1)
        for i, m in enumerate(mixed):
            assert [v[i].tobytes() for v in terms] \
                == [v.tobytes() for v in g2_terms_ref(a[i], m, priors, 1)]


@pytest.mark.parametrize("case", ["flood_s1", "guinea_s1", "guinea_complete"])
def test_sampler_and_summaries_equal_the_numpy_copies_in_blocks(request, case):
    """20,000 draws: a first round of 21,254 proposals in six blocks."""
    s = request.getfixturevalue(case)
    _assert_sampler_and_summaries_equal_the_copies(s, _PRIORS3[1], 50, 20_000)


def test_sampler_where_the_prior_rate_term_overflows_equals_the_numpy_copy():
    """Failure times near 1e28, scaled so that the table search starts about
    -alpha * max log x = 725: there d * exp(-alpha * max log x) in the slope
    of log g2 overflows to inf, which the sampler must hold, not warn."""
    base = sample(20, IwParams.from_rate(15.0, 1.0), 21)
    alpha0 = _complete(base).regression_start[0]
    s = _complete(base * np.exp(725.0 / alpha0 - np.log(base.min())))
    assert 709.8 < s.regression_start[0] * -s.log_x_max < 745.0
    for i, priors in enumerate((GammaPriors(2, 1, 1, 1), GammaPriors(0, 0, 0, 1),
                                GammaPriors(1, 0.5, 3, 0.2))):
        _assert_sampler_and_summaries_equal_the_copies(s, priors, 50 + i, 1000)


def test_sample_g2_memory_is_linear_in_the_draw_count(guinea_s1):
    """No buffer grows as r times the draws: the exponentials of a round
    take one block of r x 4,096 values.  The rest measured 77 bytes a draw
    on guinea (R=50, T=90) at 200,000 and 400,000 draws; the bound allows
    85, where one r x M array alone would take 376 (r = 47)."""
    count = 200_000
    sample_g2(10, guinea_s1, FLAT, 7)      # numpy's lazy set-up, paid once a process
    tracemalloc.start()
    try:
        sample_g2(count, guinea_s1, FLAT, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 85 * count + 8 * guinea_s1.r * posterior._ALPHA_BLOCK + 2**20


@settings(max_examples=200, deadline=None)
@given(censored_samples(), st.sampled_from(_PRIORS3), st.integers(0, 2 ** 32 - 1))
def test_sampler_and_summaries_equal_the_numpy_copies_property(case, priors, seed):
    data, scheme = case
    if scheme is None or not (np.all(np.isfinite(data)) and np.all(data > 0)):
        return
    _assert_sampler_and_summaries_equal_the_copies(
        reciprocals(apply_scheme(data, scheme)), priors, seed, 50)


def test_envelope_equals_the_numpy_copy():
    # random tangent sets, with parallel and flat tangents; one that no
    # concave function has can give NaN masses, a typed error in both
    rng = np.random.default_rng(32)
    for _ in range(2000):
        n = int(rng.integers(2, 14))
        x = np.sort(np.exp(rng.normal(size=n) * 2.0))
        d = np.sort(rng.normal(size=n) * 10.0 ** rng.uniform(-14, 3))[::-1].copy()
        h = rng.normal(size=n) * 10.0
        for i in np.flatnonzero(rng.random(n) < 0.2):
            d[i] = d[i - 1] if i > 0 else d[i]
        for i in np.flatnonzero(rng.random(n) < 0.2):
            d[i] = rng.choice([0.0, -0.0, 1e-13, -5e-13])
        if rng.random() < 0.5:
            d = np.sort(d)[::-1].copy()
        env, failed = posterior._envelope(x[None], h[None], d[None])
        ref = _outcome(lambda: envelope_ref(x, h, d))
        if isinstance(ref, tuple) and isinstance(ref[0], type):
            assert (type(failed[0]), str(failed[0])) == ref
            continue
        assert not failed
        cum, z, width, start, peak, fall, flat = ref
        assert [env[key][0].tobytes() for key in ("cum", "z", "width", "start", "peak", "fall")] \
            == [v.tobytes() for v in (cum, z, width, start, peak, fall)]
        assert env["flat"] is None if not flat.any() else np.array_equal(env["flat"][0], flat)
        seed = int(rng.integers(2 ** 32))
        keys = np.random.default_rng(seed).random((2, 1, 50))
        t, log_env = posterior._propose(env, *keys)
        t, log_env = t[0], log_env[0]
        t_ref, log_env_ref = propose_ref(ref, d, 50, np.random.default_rng(seed))
        assert (t.tobytes(), log_env.tobytes()) == (t_ref.tobytes(), log_env_ref.tobytes())


def _guide_env(cum):
    return {"cum": cum[None], **posterior._guide(cum[None])}


def _searchsorted_segments(cum, keys):
    return np.minimum(np.searchsorted(cum, keys * cum[-1], side="right"), cum.size - 1)


def test_guide_table_gives_the_searchsorted_segment():
    """The guide table's segment is ``searchsorted(side="right")``'s, clipped
    to the last, at keys equal to each cumulative mass and at their float
    neighbours (a total that is a power of two makes ``key * total`` exact),
    on repeated masses (segments of zero mass), at both end cells and the
    cell edges, and at random keys under any total."""
    rng = np.random.default_rng(61)
    for trial in range(300):
        masses = rng.exponential(size=64) * 10.0 ** rng.uniform(-12, 0, size=64)
        masses[rng.random(64) < 0.15] = 0.0
        masses[rng.integers(64)] += 1.0
        cum = np.cumsum(masses)
        if trial % 2:
            # a total of 2**e: every cum[j] / total is a key that lands on cum[j]
            cum *= 2.0 ** int(rng.integers(-30, 30)) / cum[-1]
            cum[-1] = 2.0 ** round(math.log2(cum[-1]))
            cum = np.minimum.accumulate(cum[::-1])[::-1]
            at = cum / cum[-1]
            keys = np.concatenate((at, np.nextafter(at, 0.0), np.nextafter(at, 2.0)))
        else:
            keys = rng.random(2000)
        keys = np.concatenate((keys, np.arange(129) / 128, [0.0, 5e-324, 2.0 ** -53,
                                                             1.0 - 2.0 ** -53]))
        keys = np.clip(keys, 0.0, 1.0)
        got = posterior._segments(_guide_env(cum), keys[None])[0]
        assert np.array_equal(got, _searchsorted_segments(cum, keys))
    # one cell holds most of the ends: the tails of a narrow envelope
    cum = np.cumsum(np.exp(-0.5 * np.linspace(-40, 40, 64) ** 2))
    keys = np.concatenate((rng.random(5000), cum / cum[-1]))
    assert np.array_equal(posterior._segments(_guide_env(cum), keys[None])[0],
                          _searchsorted_segments(cum, keys))


# the failures of the importance-sampling records, at 40 draws: a sample
# without a failure; five failures tied at 1, whose log g2 still rises at
# e^80; lam draws beyond float64; and two failures among 14 units whose lam
# interval is one draw wide, the weight of that draw being above the level
_ONE_DRAW_TIMES = np.array([
    1.1846583238909634, 2.2624351807595198, 1.3955177453441618, 0.6450078874036312,
    1.8266543324607352, 1.5406483065815202, 1.3676657972999122, 0.7713511564589174,
    1.1737787016639833, 1.5306323588640252, 0.8630278670496957, 4.156334785115118,
    2.999530971502964, 1.0646381531288611])
_ONE_DRAW_SCHEME = HybridScheme(n=14, R=5, T=0.8091364603916209)


def _failing_records():
    return [
        (ReciprocalSample(x=np.empty(0), u=1.0, r=0, n=5), FLAT, 3),
        (_complete([1.0] * 5), FLAT, 4),
        (_wide_shape_sample(), FLAT, 0),
        (reciprocals(apply_scheme(_ONE_DRAW_TIMES, _ONE_DRAW_SCHEME)), FLAT, 2801903999),
    ]


def _run_records(records, count):
    """``posterior._is_rows`` on the records, (sample, priors, seed) each,
    every record drawing from the generator bayes_is makes of its seed."""
    samples, priors, seeds = zip(*records)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return posterior._is_rows(zip(samples, priors, (errors._rng(seed, child=True)
                                                        for seed in seeds)), count, 0.95)


def _assert_records_equal_the_copies(records, count):
    """Each record has the bits of ``bayes_is_ref``'s alpha and lam means
    and interval ends, or fails where it raises a typed error; the records'
    grouping (one call, one record a group, two a group) and their order
    change no record."""
    values, ok = _run_records(records, count)
    outcomes = []
    for i, (s, priors, seed) in enumerate(records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                ref = bayes_is_ref(s, priors, count, seed, theta=False)
            except (InsufficientDataError, NumericError, DegenerateWeightsError):
                outcomes.append(False)
                assert not ok[i]
                continue
        outcomes.append(True)
        assert ok[i]
        assert values[:, i].tobytes() == np.array([ref[j] for j in (4, 8, 6, 10, 7, 11)]).tobytes()
    order = np.random.default_rng(len(records)).permutation(len(records))
    for budget in (1, 2 * (count + count // 16 + 4)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(posterior, "_GROUP_VALUES", budget)
            again, again_ok = _run_records([records[i] for i in order], count)
        assert again[:, np.argsort(order)][:, ok].tobytes() == values[:, ok].tobytes()
        assert np.array_equal(again_ok[np.argsort(order)], ok)
    return outcomes


def test_array_core_fails_only_the_failing_records(flood_s1, guinea_s1):
    records = [(flood_s1, FLAT, 5), *_failing_records(), (guinea_s1, _PRIORS3[1], 6),
               (flood_s1, _PRIORS3[2], 7)]
    assert _assert_records_equal_the_copies(records, 40) == [True, False, False, False, False,
                                                             True, True]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(censored_samples(), st.sampled_from(_PRIORS3),
                          st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5),
       st.sampled_from([3, 40, 300]), st.lists(st.integers(0, 3), max_size=2))
# one failure among two units: log g2 is flat, so the group's only table fails
@example([((np.array([2.2170699, 0.76328677]), HybridScheme(n=2, R=1, T=math.inf)), FLAT, 0)],
         3, [])
def test_array_core_equals_the_numpy_copies_on_mixed_batches(cases, count, failing):
    records = [(reciprocals(apply_scheme(data, scheme)), priors, seed)
               for (data, scheme), priors, seed in cases
               if scheme is not None and np.all(np.isfinite(data)) and np.all(data > 0)]
    records += [_failing_records()[i] for i in failing]
    if records:
        _assert_records_equal_the_copies(records, count)


def test_array_core_rounds_pad_the_rows_that_need_fewer_draws(monkeypatch, flood_s1, guinea_s1):
    """An envelope three times too high accepts about a third of the
    proposals, so the records fill in rounds of different widths; each has
    the bits it has alone."""
    envelope = posterior._envelope

    def loose(x, h, d):
        return envelope(x, h + math.log(3.0), d)
    monkeypatch.setattr(posterior, "_envelope", loose)
    samples = [flood_s1, guinea_s1, _c4_samples(3)[2]] * 2
    priors = [FLAT, _PRIORS3[1], _PRIORS3[2]] * 2
    seeds = range(len(samples))
    together = posterior._is_rows(zip(samples, priors, (errors._rng(s, child=True) for s in seeds)),
                                  300, 0.95)
    for i, (s, p) in enumerate(zip(samples, priors)):
        res = bayes_is(s, p, 300, i)
        assert res.draws.acceptance_ratio < 0.5
        assert together[0][:, i].tobytes() == np.array(
            [res.alpha.mean, res.lam.mean, res.alpha.hpd.lower, res.lam.hpd.lower,
             res.alpha.hpd.upper, res.lam.hpd.upper]).tobytes()
    assert together[1].all()


def test_array_core_drops_a_record_whose_envelope_fails(monkeypatch, flood_s1, guinea_s1):
    """A record whose envelope fails leaves the group before its first
    round; the others, under an envelope three times too high, fill in
    rounds of different widths with the bits they have alone."""
    envelope = posterior._envelope

    def second_fails(x, h, d):
        env, failed = envelope(x, h + math.log(3.0), d)
        if len(x) > 1:
            failed[1] = InsufficientDataError("no mass")
        return env, failed
    monkeypatch.setattr(posterior, "_envelope", second_fails)
    samples = [flood_s1, guinea_s1, _c4_samples(3)[2], flood_s1]
    priors = [FLAT, _PRIORS3[1], _PRIORS3[2], _PRIORS3[1]]
    values, ok = posterior._is_rows(
        zip(samples, priors, (errors._rng(s, child=True) for s in range(4))), 300, 0.95)
    assert ok.tolist() == [True, False, True, True]
    for i in (0, 2, 3):
        res = bayes_is(samples[i], priors[i], 300, i)
        assert values[:, i].tobytes() == np.array(
            [res.alpha.mean, res.lam.mean, res.alpha.hpd.lower, res.lam.hpd.lower,
             res.alpha.hpd.upper, res.lam.hpd.upper]).tobytes()


def _numpy_state():
    return np.getbufsize(), np.geterr()


# one cell of 14 units with a budget of two failures: at 40 draws one of its
# six replicates fails inside the importance-sampling core, the others return
_ONE_FAILING_STUDY = dict(true_alpha=2.0, true_lambda=1.0, cells=((14, 0.8, 2),), replicates=6,
                          draws=40, base_seed=7, methods=("is",))


@pytest.mark.parametrize("state", ["default", "changed"])
def test_numpy_state_is_restored_whether_a_call_returns_or_raises(monkeypatch, flood_s1, state):
    """The core runs with its own ufunc buffer size and error handling;
    the caller's are back after every call, also after a typed error (an
    improper posterior: five failures tied at 1) and an error raised inside
    a group of the study harness."""
    from iwhc import StudyConfig
    from iwhc.harness import run_study
    tied = _complete([1.0] * 5)
    calls = {
        "bayes_is": lambda s: bayes_is(s, FLAT, 200, 1).theta,
        "sample_g2": lambda s: sample_g2(200, s, FLAT, 1),
        "posterior_draws": lambda s: posterior_draws(s, FLAT, 200, 1),
    }
    with np.errstate(divide="ignore", over="ignore") if state == "changed" else np.errstate():
        old = np.setbufsize(4096 + 16) if state == "changed" else None
        try:
            before = _numpy_state()
            for name, call in calls.items():
                call(flood_s1)
                assert _numpy_state() == before, name
                with pytest.raises(InsufficientDataError, match="improper"):
                    call(tied)
                assert _numpy_state() == before, name
            summary = run_study(StudyConfig(**_ONE_FAILING_STUDY))
            assert _numpy_state() == before
            assert {(row.replicates_used, row.failures) for row in summary.rows} == {(5, 1)}
            with monkeypatch.context() as patch:
                patch.setattr(posterior, "_summary_rows", _raise_runtime_error)
                with pytest.raises(RuntimeError, match="inside a group"):
                    run_study(StudyConfig(**_ONE_FAILING_STUDY))
            assert _numpy_state() == before
        finally:
            if old is not None:
                np.setbufsize(old)


def _raise_runtime_error(*args):
    raise RuntimeError("inside a group")


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
    assert draws.weights.tobytes() == np.full(400, 1.0 / 400).tobytes()
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
    (mean, var, _, _), _ = posterior._summary_rows(np.array([[1.0, 2.0, 3.0]]),
                                                   (raw / raw.sum())[None], 0.9)
    assert mean == pytest.approx(2.25, abs=1e-14)
    assert var == pytest.approx(0.6875, abs=1e-14)


def test_degenerate_interval_names_the_largest_weight_and_the_ess():
    """One draw of 100 carries 0.97 of the weight, more than the level, so
    the shortest window starts and ends at it; the other row is uniform."""
    values = np.tile(np.arange(1.0, 101.0), (2, 1))
    weights = np.full((2, 100), 0.01)
    weights[0] = 0.03 / 99
    weights[0, 49] = 0.97
    ess = 1.0 / (0.97 ** 2 + 99 * (0.03 / 99) ** 2)
    (_, _, lower, upper), failed = posterior._summary_rows(values, weights, 0.95)
    assert list(failed) == [0] and (lower[0], upper[0]) == (50.0, 50.0) and lower[1] < upper[1]
    message = f"degenerate interval (50.0, 50.0): the largest weight is 0.97, the ESS {ess:.4g} " \
        "of 100 draws"
    assert ess == pytest.approx(1.063, abs=1e-3) and str(failed[0]) == message
    with pytest.raises(NumericError, match=r"^degenerate interval \("):
        posterior._summary(values[0], weights[0], 0.95)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30) | st.integers(1_000, 5_000),
       st.sampled_from(["distinct", "ties", "low bits", "huge and tiny"]),
       st.integers(0, 2 ** 32 - 1))
def test_sorted_rows_of_positive_values_equal_the_stable_sort(k, m, kind, seed):
    """Positive finite rows sort as keys of their bits and their index; the
    order and the cumulative weights are the stable argsort's, also where
    values tie or differ only in the low bits that hold the index."""
    rng = np.random.default_rng(seed)
    values = {"distinct": lambda: rng.gamma(2.0, 1.0, (k, m)),
              "ties": lambda: rng.integers(1, 20, (k, m)) / 7.0,
              # 1 + j ulp: equal but for the bits below the index, in any order
              "low bits": lambda: 1.0 + rng.integers(0, 64, (k, m)) * np.finfo(float).eps,
              "huge and tiny": lambda: np.exp(rng.uniform(-700.0, 700.0, (k, m)))}[kind]()
    weights = rng.random((k, m))
    vs, cum = posterior._sorted_rows(values, weights)
    for i in range(k):
        ref_vs, ref_cum = stable_sorted_cum(values[i], weights[i])
        assert np.array_equal(vs[i], ref_vs)
        assert np.array_equal(cum[i], ref_cum)


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


def test_bayes_is_summarizes_theta_on_first_read(monkeypatch, flood_s1):
    reads = []
    thetas = PosteriorDraws.thetas.fget
    monkeypatch.setattr(PosteriorDraws, "thetas",
                        property(lambda draws: reads.append(1) or thetas(draws)))
    res = bayes_is(flood_s1, FLAT, 500, seed=26)
    assert reads == []
    first = res.theta
    assert res.theta is first and reads == [1]
    # at the level of the call
    res = bayes_is(flood_s1, FLAT, 500, seed=26, level=0.9)
    assert res.theta.hpd == hpd_interval(thetas(res.draws), res.draws.weights, 0.9)


def test_a_theta_that_overflows_raises_at_its_read(monkeypatch, flood_s1):
    monkeypatch.setattr(PosteriorDraws, "thetas",
                        property(lambda draws: np.full(draws.size, 1e300) * draws.alphas))
    res = bayes_is(flood_s1, FLAT, 300, seed=27)
    assert math.isfinite(res.alpha.mean) and math.isfinite(res.lam.mean)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(2):
            with pytest.raises(NumericError, match="overflows float64"):
                res.theta


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
        # theta is summarized at its first read, which raises the same errors
        ests = (res.alpha, res.lam, res.theta)
    except (errors.DomainError, errors.InsufficientDataError, errors.NumericError,
            errors.ConvergenceError, errors.DegenerateWeightsError):
        return
    for est in ests:
        assert np.all(np.isfinite([est.mean, est.variance, est.hpd.lower, est.hpd.upper]))
        assert est.variance >= 0
