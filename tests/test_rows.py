"""The array path of the study harness: censored samples fitted together as
the rows of one matrix, of one design or of several, give, row by row, the
bits and the error classes of ``fit_mle``, ``asymptotic_ci`` and
``lindley_estimates`` on each sample, and ``run_study`` gives the bytes of
the one-replicate-at-a-time loop whatever the batch bound."""

import collections
import dataclasses
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
    StudyConfig,
    apply_scheme,
    asymptotic_ci,
    fit_mle,
    lindley_estimates,
    reciprocals,
    run_study,
    sample,
)
from iwhc import harness, lindley, mle
from iwhc.censoring import ReciprocalRows, _censor_rows
from iwhc.distribution import (
    _ARRAY_SEEDING,
    _child_seeds,
    _child_states,
    _entropy_words,
    _quantile,
    _sample_rows,
)
from iwhc.lindley import _lindley_rows
from iwhc.mle import _ci_rows, _derivative_rows, _derivatives, _fit_rows
from _oracles import run_study_ref

_PRIORS = (GammaPriors(), GammaPriors(2, 1, 1, 1), GammaPriors(5, 0.1, 3, 2))


def _stack(samples) -> ReciprocalRows:
    """Samples, given in the order of r, as the rows of one batch, padded to
    the largest n."""
    x = np.ones((len(samples), max(s.n for s in samples)))
    for row, s in zip(x, samples):
        row[:s.r] = s.x
    return ReciprocalRows(x=x, u=np.array([s.u for s in samples], dtype=float),
                          r=np.array([s.r for s in samples]),
                          n=np.array([s.n for s in samples]))


def _bits(*values) -> list:
    return [float(v).hex() for v in values]


def _outcome(fn, *args):
    """``(result, None)``, or ``(None, error class)`` where ``fn`` raises."""
    try:
        return fn(*args), None
    except Exception as exc:        # the class is what is compared
        return None, type(exc)


@st.composite
def _design_sample(draw, n):
    """One censored sample of n units: plain, rounded to ties, complete,
    with its failures tied, or with fewer than two failures."""
    kind = draw(st.sampled_from(["plain", "ties", "complete", "tied", "few"]))
    alpha = math.exp(draw(st.floats(math.log(0.1), math.log(40.0))))
    theta = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
    data = sample(n, IwParams(alpha, theta), draw(st.integers(0, 2 ** 32 - 1)))
    R = draw(st.integers(1, n))
    T = float(np.quantile(data, draw(st.floats(0.0, 1.0))))
    if kind == "ties":
        decimals = draw(st.integers(0, 3))
        data = np.maximum(np.round(data, decimals), 10.0 ** -decimals)
        T = float(np.round(T, decimals)) or math.inf
    elif kind == "complete":
        R, T = n, math.inf
    elif kind == "tied":
        # failures tied at t, then units censored at t (no MLE) or later
        data = np.full(n, 1.0 + draw(st.floats(0.0, 5.0)))
        data[draw(st.integers(1, n)):] *= draw(st.sampled_from([1.0, 3.0]))
    elif kind == "few":
        T = float(np.sort(data)[1]) * 0.999
    return reciprocals(apply_scheme(data, HybridScheme(n=n, R=R, T=T)))


@st.composite
def _rows(draw, mixed=False):
    """Two to eight samples in the order of r: of one n, or, where
    ``mixed``, each of its own n."""
    n = draw(st.integers(2, 30))
    design = st.integers(2, 30).flatmap(_design_sample) if mixed else _design_sample(n)
    samples = draw(st.lists(design, min_size=2, max_size=8))
    return sorted(samples, key=lambda s: s.r)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # extreme samples overflow on purpose
@settings(max_examples=120, deadline=None)
@given(samples=_rows(), level=st.sampled_from([0.9, 0.95, 0.99]))
def test_rows_fit_as_each_sample_does_alone(samples, level):
    _check_rows(samples, level)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(samples=_rows(mixed=True), level=st.sampled_from([0.9, 0.95, 0.99]))
def test_rows_of_different_designs_fit_as_each_sample_does_alone(samples, level):
    """Samples of different (n, T, R), stacked into one batch as the harness
    stacks the replicates of several cells."""
    _check_rows(samples, level)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(samples=_rows(), max_iter=st.integers(1, 4), tol=st.sampled_from([1e-8, 1e-3]))
def test_rows_and_samples_read_one_set_of_solver_settings(samples, max_iter, tol):
    """With the Newton cap and tolerance of ``mle`` changed, every row stops
    where its sample stops alone: the same bits or the same error class."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mle, "_MAX_ITER", max_iter)
        patch.setattr(mle, "_TOL", tol)
        _check_rows(samples, 0.95)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x, u, n", [
    ([0.0019100684920142657, 0.0018879949331040062, 0.0018697917762716162], 534.8189101537339,
     8),
    ([0.0011410199106734185, 0.0011404504464113255, 0.0011248179918839235,
      0.0011228336123929893, 0.0011218149770192134, 0.0011217876779440145], 891.4342880221113,
     35),
], ids=["n8", "n35"])
def test_rows_keep_a_covariance_error(x, u, n):
    """Found in a random scan: these fits raise NumericError, since the
    covariance at the maximum is not positive definite in float64."""
    odd = ReciprocalSample(x=np.array(x), u=u, r=len(x), n=n)
    with pytest.raises(NumericError, match="not positive definite"):
        fit_mle(odd)
    plain = reciprocals(apply_scheme(sample(n, IwParams(2.0, 1.0), 5),
                                     HybridScheme(n=n, R=n - 1, T=2.0)))
    _check_rows(sorted([odd, plain], key=lambda s: s.r), 0.95)


def _check_rows(samples, level):
    rows = _stack(samples)
    fits_alone = [_outcome(fit_mle, s) for s in samples]
    if any(error is DomainError for _, error in fits_alone):
        with pytest.raises(DomainError):
            _fit_rows(rows)
        return
    fits = _fit_rows(rows)
    len_a, len_l, ci_ok = _ci_rows(fits, level)
    lindley = _lindley_rows(fits, rows, _PRIORS)
    for i, (s, (fit, error)) in enumerate(zip(samples, fits_alone)):
        assert fits.error[i] is error
        assert bool(fits.ok[i]) == (error is None)
        if error is not None:
            assert not ci_ok[i] and not any(ok[i] for _, _, ok in lindley)
            continue
        assert fits.iterations[i] == fit.iterations
        assert _bits(fits.alpha[i], fits.lam[i], fits.theta[i], fits.loglik[i], fits.v11[i],
                     fits.v12[i], fits.v22[i], fits.grad_norm[i]) \
            == _bits(fit.alpha_hat, fit.lam_hat, fit.theta_hat, fit.loglik, fit.cov.v11,
                     fit.cov.v12, fit.cov.v22, fit.grad_norm)
        ci, error = _outcome(asymptotic_ci, fit, level)
        assert error in (None, NumericError)
        assert bool(ci_ok[i]) == (error is None)
        if ci is not None:
            assert _bits(len_a[i], len_l[i]) == _bits(ci[0].length, ci[1].length)
        for prior, (alpha_L, lambda_L, ok) in zip(_PRIORS, lindley):
            est, error = _outcome(lindley_estimates, fit, prior, s)
            assert error in (None, NumericError)
            assert bool(ok[i]) == (error is None)
            if est is not None:
                assert _bits(alpha_L[i], lambda_L[i]) == _bits(est.alpha_L, est.lambda_L)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(samples=_rows() | _rows(mixed=True), data=st.data())
def test_row_kernel_equals_the_sample_kernel_at_extreme_points(samples, data):
    """Every branch of the censoring term, q underflowing at extreme lam
    included, and every order."""
    samples = [s for s in samples if s.r >= 1]
    if not samples:
        return
    rows = _stack(samples)
    log_points = st.tuples(st.floats(-8.0, 12.0), st.floats(-700.0, 700.0))
    points = np.exp(np.array(data.draw(st.lists(log_points, min_size=len(samples),
                                                max_size=len(samples)))))
    for order in range(4):
        got = _derivative_rows(points[:, 0], points[:, 1], rows, slice(None), order)
        for i, s in enumerate(samples):
            want = _derivatives(points[i, 0], points[i, 1], s, order)
            assert _bits(*got[:, i]) == _bits(want[0], *(t for terms in want[1:] for t in terms))


def test_censored_rows_equal_each_censored_sample():
    """Two designs, the rows of the narrower padded to the wider n."""
    params = IwParams.from_rate(2.0, 1.0)
    pieces, samples = [], []
    for cell, scheme in enumerate((HybridScheme(n=30, R=20, T=1.5),
                                   HybridScheme(n=12, R=12, T=1.0))):
        seeds = [np.random.SeedSequence((3, cell, rep), spawn_key=(0,)) for rep in range(25)]
        pieces.append((_sample_rows(scheme.n, params, seeds), scheme))
        samples += [reciprocals(apply_scheme(sample(scheme.n, params, seed), scheme))
                    for seed in seeds]
    rows, order = _censor_rows(pieces)
    assert rows.x.shape == (50, 30)
    assert (np.diff(rows.r) >= 0).all() and sorted(order.tolist()) == list(range(50))
    for i, k in enumerate(order.tolist()):
        want = samples[k]
        got = rows.sample(i)
        assert (got.r, got.u, got.n) == (want.r, want.u, want.n)
        assert got.x.tobytes() == want.x.tobytes() and (rows.x[i, got.r:] == 1.0).all()
        assert got.regression_start == want.regression_start
        if want.r >= 2:     # the rows give NaN below two failures
            assert _bits(rows.sum_log_x[i], *(v[i] for v in rows.regression_start)) \
                == _bits(want.sum_log_x, *want.regression_start)


def _config(**overrides):
    base = dict(true_alpha=2.0, true_lambda=1.0,
                cells=((12, 1.5, 8), (20, 2.5, 20), (4, 0.3, 4)),
                priors=(GammaPriors(), GammaPriors(2, 1, 1, 1)), replicates=3, draws=60,
                base_seed=17, methods=("mle", "lindley", "is"))
    base.update(overrides)
    return StudyConfig(**base)


def _assert_same_bytes(got, want):
    assert repr([dataclasses.astuple(r) for r in got.rows]) \
        == repr([dataclasses.astuple(r) for r in want.rows])
    for mine, theirs in ((got.estimates, want.estimates), (got.lengths, want.lengths)):
        assert list(mine) == list(theirs)
        for key in theirs:
            assert mine[key].tobytes() == theirs[key].tobytes()


@pytest.mark.parametrize("replicates", [1, 2, 3, 9])
@pytest.mark.parametrize("batch_rows", [1, 7, 8, 9, None])
def test_run_study_bytes_do_not_depend_on_the_batch_bound(monkeypatch, replicates, batch_rows):
    """A bound of 1, 7, 8 or 9 rows at the widest cell's n, or the default
    one, cuts batches inside cells and across cells of different n, on both
    sides of the fit fork at 8 rows."""
    config = _config(replicates=replicates)
    if batch_rows is not None:
        monkeypatch.setattr(harness, "_CHUNK_VALUES",
                            batch_rows * max(n for n, _, _ in config.cells))
    _assert_same_bytes(run_study(config), run_study_ref(config))


def test_run_study_bytes_across_the_default_batch_bound():
    # 65 rows of n = 1000 to a batch: the first batch ends inside cell 1
    config = _config(cells=((1000, 1.0, 600), (800, 2.0, 800)), replicates=40,
                     methods=("mle", "lindley"))
    assert harness._CHUNK_VALUES // 1000 == 65
    _assert_same_bytes(run_study(config), run_study_ref(config))


def _spy_fit_rows(monkeypatch) -> list:
    """The row count of each ``_fit_rows`` call of the harness, as made."""
    calls = []
    fit_rows = harness._fit_rows

    def spy(rows):
        calls.append(rows.r.size)
        return fit_rows(rows)
    monkeypatch.setattr(harness, "_fit_rows", spy)
    return calls


def test_the_replicates_of_every_cell_are_fitted_in_one_call(monkeypatch):
    """The shape of the benchmark's MLE study: 4 cells of 100 replicates,
    400 rows at the width n = 50, are one batch."""
    calls = _spy_fit_rows(monkeypatch)
    config = _config(cells=((30, 1.5, 20), (30, 1.5, 30), (50, 1.5, 35), (50, 2.5, 50)),
                     replicates=100, methods=("mle", "lindley"))
    _assert_same_bytes(run_study(config), run_study_ref(config))
    assert calls == [400]


@pytest.mark.parametrize("cells, replicates", [(((12, 1.5, 8), (20, 2.5, 20)), 1),
                                               (((12, 1.5, 8), (20, 2.5, 20), (4, 0.3, 4)), 2),
                                               (((12, 1.5, 8),), _ARRAY_SEEDING - 1)])
def test_a_study_of_fewer_than_eight_rows_fits_no_rows(monkeypatch, cells, replicates):
    calls = _spy_fit_rows(monkeypatch)
    config = _config(cells=cells, replicates=replicates, methods=("mle", "lindley"))
    _assert_same_bytes(run_study(config), run_study_ref(config))
    assert calls == []


def test_a_single_replicate_is_fitted_and_sampled_on_one_sample(monkeypatch):
    """A batch of one replicate in each of two cells, the shape of a Bayes
    study, is fitted by the one-sample functions, not as arrays, and
    importance sampling reads the very sample they fitted, so that its
    cached work is done once: the third derivatives once for both priors."""
    config = _config(cells=((12, 1.5, 8), (20, 2.5, 20)), replicates=1,
                     methods=("lindley", "is"))
    want = run_study_ref(config)
    calls = []

    def spy(module, name, at):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[at]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name, at in ((harness, "_fit_rows", 0), (harness, "fit_mle", 0),
                             (harness, "lindley_estimates", 2), (harness, "bayes_is", 0),
                             (lindley, "third_derivatives", 2)):
        spy(module, name, at)
    _assert_same_bytes(run_study(config), want)
    by_sample = {}      # the calls on each sample object, by its id
    for name, s in calls:
        by_sample.setdefault(id(s), []).append(name)
    per_replicate = {"fit_mle": 1, "lindley_estimates": 2, "third_derivatives": 1, "bayes_is": 2}
    assert [collections.Counter(names) for names in by_sample.values()] \
        == [per_replicate] * len(config.cells)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_chunk_with_a_replicate_that_raises_raises_as_one_at_a_time():
    # shape 0.005 overflows some draws to inf, which apply_scheme rejects
    config = _config(true_alpha=0.005, cells=((30, 1.5, 20),), replicates=40,
                     methods=("mle", "lindley"))
    with pytest.raises(DomainError) as want:
        run_study_ref(config)
    with pytest.raises(DomainError) as got:
        run_study(config)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_batch_raises_as_the_loop_does_from_a_later_cell():
    """At this rate the lifetimes are near 1e150, and some regression starts
    overflow lam to inf, which fit_mle rejects with a message that names
    the start.  The 12 rows are one batch.  No replicate of cell 0 raises;
    in cell 1, replicates 1 (r = 10) and 4 (r = 7) raise.  The batch's rows
    are in the order of r, but the loop meets replicate 1 first."""
    config = _config(true_lambda=1e300, cells=((12, 1e150, 9), (20, 1e150, 18)), replicates=6,
                     base_seed=11, methods=("mle", "lindley"))
    run_study(dataclasses.replace(config, cells=config.cells[:1]))
    with pytest.raises(DomainError) as want:
        run_study_ref(config)
    with pytest.raises(DomainError) as got:
        run_study(config)
    assert str(want.value).startswith("alpha and lam must be positive, got (")
    assert str(got.value) == str(want.value)


# where the entropy of (base_seed, cell, rep) gains a 32-bit word
_WORD_EDGES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96)


@settings(max_examples=80, deadline=None)
@given(base_seed=st.integers(0, 2 ** 70) | st.sampled_from(_WORD_EDGES),
       cell=st.integers(0, 40) | st.sampled_from(_WORD_EDGES),
       start=st.integers(0, 5000) | st.integers(2 ** 32 - 20, 2 ** 32 + 5),
       size=st.integers(1, 3 * _ARRAY_SEEDING))
@example(base_seed=2 ** 64, cell=0, start=0, size=_ARRAY_SEEDING)
@example(base_seed=2 ** 32 - 1, cell=3, start=0, size=_ARRAY_SEEDING - 1)
@example(base_seed=2 ** 32, cell=0, start=2 ** 32 - 4, size=_ARRAY_SEEDING)
def test_child_seeds_give_numpys_child_streams(base_seed, cell, start, size):
    """The data of replicates ``reps`` are drawn from child 0 of numpy's
    ``SeedSequence((base_seed, cell, rep))``, by the array pass or not."""
    reps = range(start, start + size)
    seeds = _child_seeds((base_seed, cell), reps)
    want = [np.random.default_rng(np.random.SeedSequence((base_seed, cell, rep), spawn_key=(0,)))
            for rep in reps]
    assert isinstance(seeds, np.ndarray) == (size >= _ARRAY_SEEDING and reps[-1] < 2 ** 32)
    if isinstance(seeds, np.ndarray):
        assert _child_states(seeds) == [rng.bit_generator.state for rng in want]
    params = IwParams.from_rate(2.0, 1.0)
    u = np.array([rng.random(9) for rng in want])
    u[u == 0.0] = 0.5 ** 53
    assert _sample_rows(9, params, seeds).tobytes() == _quantile(u, params).tobytes()


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(0, 2 ** 70) | st.sampled_from(_WORD_EDGES),
                       min_size=1, max_size=4),
       prior=st.integers(0, 3))
def test_entropy_words_seed_as_the_ints_do(values, prior):
    """The importance-sampling stream of prior p, child 0 of SeedSequence((base_seed,
    cell, rep), spawn_key=(1 + p,)), is the same from the words of the seed."""
    words = np.array(_entropy_words(values), dtype=np.uint32)
    want = np.random.SeedSequence(tuple(values), spawn_key=(1 + prior, 0))
    got = np.random.SeedSequence(words, spawn_key=(1 + prior, 0))
    assert got.generate_state(8).tobytes() == want.generate_state(8).tobytes()


@settings(max_examples=60, deadline=None)
@given(entropy=st.integers(1, 12).flatmap(lambda width: st.lists(
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=width, max_size=width),
    min_size=1, max_size=4)))
def test_child_states_are_numpys_for_any_entropy_width(entropy):
    """Entropy shorter than the pool is zero-padded; longer entropy mixes
    every further word into the pool and, past eight assembled words, needs
    a longer hash chain than the precomputed one."""
    entropy = np.array(entropy, dtype=np.uint32)
    assert _child_states(entropy) == [
        np.random.default_rng(np.random.SeedSequence(row, spawn_key=(0,))).bit_generator.state
        for row in entropy]


@pytest.mark.parametrize("base_seed", [17, 2 ** 64])
@pytest.mark.parametrize("replicates", [_ARRAY_SEEDING - 1, _ARRAY_SEEDING,
                                        2 * _ARRAY_SEEDING + 1])
def test_run_study_bytes_across_the_array_seeding_threshold(base_seed, replicates):
    config = _config(cells=((12, 1.5, 8), (4, 0.3, 4)), replicates=replicates,
                     base_seed=base_seed, draws=40)
    _assert_same_bytes(run_study(config), run_study_ref(config))
