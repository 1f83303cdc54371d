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
    ConvergenceError,
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
    log_likelihood,
    observed_fisher,
    reciprocals,
    run_study,
    sample,
    score,
    third_derivatives,
)
from iwhc import harness, mle
from iwhc.censoring import ReciprocalRows, _censor_rows
from iwhc.distribution import _quantile
from iwhc.harness import _ARRAY_FITS, _pieces
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


# the reciprocal failures of a sample of 20 lifetimes near 1e150, of the
# design of cell 1 of _OVERFLOWING (below), censored at u = 1e150, whose
# regression start overflows lam to inf
_START_X = [2.2043448933589337e-150, 1.57845930166535e-150, 1.4406301938931865e-150,
            1.3366020211079597e-150, 1.2503096023215677e-150, 1.2075694979606868e-150,
            1.1743132077221451e-150, 1.0801122242842781e-150, 1.0453506029933632e-150,
            1.0328411282121744e-150]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x, u, n, match", [
    ([0.0019100684920142657, 0.0018879949331040062, 0.0018697917762716162], 534.8189101537339,
     8, "not positive definite"),
    ([0.0011410199106734185, 0.0011404504464113255, 0.0011248179918839235,
      0.0011228336123929893, 0.0011218149770192134, 0.0011217876779440145], 891.4342880221113,
     35, "not positive definite"),
    (_START_X, 1e150, 20, r"regression start \(alpha, lam\) = \(2\.129\d*, inf\)"),
], ids=["n8", "n35", "start"])
def test_rows_keep_a_numeric_error(x, u, n, match):
    """The first two fits, found in a random scan, raise NumericError since
    the covariance at the maximum is not positive definite in float64; in
    the third, the regression start overflows lam to inf."""
    odd = ReciprocalSample(x=np.array(x), u=u, r=len(x), n=n)
    with pytest.raises(NumericError, match=match):
        fit_mle(odd)
    plain = reciprocals(apply_scheme(sample(n, IwParams(2.0, 1.0), 5),
                                     HybridScheme(n=n, R=n - 1, T=2.0)))
    _check_rows(sorted([odd, plain], key=lambda s: s.r), 0.95)


def _check_rows(samples, level):
    rows = _stack(samples)
    fits_alone = [_outcome(fit_mle, s) for s in samples]
    fits = _fit_rows(rows)
    ci_a, ci_l, ci_ok = _ci_rows(fits, level)
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
            assert _bits(ci_a[0][i], ci_a[1][i], ci_l[0][i], ci_l[1][i]) \
                == _bits(ci[0].lower, ci[0].upper, ci[1].lower, ci[1].upper)
            assert _bits(ci_a[1][i] - ci_a[0][i], ci_l[1][i] - ci_l[0][i]) \
                == _bits(ci[0].length, ci[1].length)
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
        got = _derivative_rows(points[:, 0], points[:, 1], rows, np.arange(len(samples)),
                               order)
        for i, s in enumerate(samples):
            want = _derivatives(points[i, 0], points[i, 1], s, order)
            assert _bits(*got[:, i]) == _bits(want[0], *(t for terms in want[1:] for t in terms))


def test_public_derivatives_where_expm1_overflows_equal_the_row_kernel():
    """Where q = lam * u**-alpha passes 709.78, expm1(q) overflows and p =
    q/expm1(q) is 0: the public functions hold the overflow warning and give
    the bits of the row kernel."""
    s = reciprocals(apply_scheme(np.linspace(0.2, 2.0, 20), HybridScheme(n=20, R=15, T=1.1)))
    assert s.r < s.n
    rows = _stack([s])
    for alpha, lam in ((2.0, 720.0 * s.u ** 2.0), (3.0, 1e3), (0.5, 1e4), (1.5, 1e300)):
        assert lam * s.u ** -alpha > 709.79
        got = (log_likelihood(alpha, lam, s), *score(alpha, lam, s),
               *dataclasses.astuple(observed_fisher(alpha, lam, s)),
               *third_derivatives(alpha, lam, s))
        with np.errstate(all="ignore"):     # as the study runs the row kernel
            want = _derivative_rows(np.array([alpha]), np.array([lam]), rows, np.arange(1), 3)
        assert _bits(*got) == _bits(*want[:, 0])


def test_censored_rows_equal_each_censored_sample():
    """Two designs, the rows of the narrower padded to the wider n."""
    params = IwParams.from_rate(2.0, 1.0)
    schemes = [HybridScheme(n=30, R=20, T=1.5), HybridScheme(n=12, R=12, T=1.0)]
    rows, order = _censor_rows(_pieces(_config(base_seed=3), schemes, params,
                                       [(0, range(25)), (1, range(25))]))
    samples = []
    for cell, scheme in enumerate(schemes):
        stream = _cell_stream(3, cell)
        samples += [reciprocals(apply_scheme(sample(scheme.n, params, stream), scheme))
                    for _ in range(25)]
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


def _cell_stream(base_seed: int, cell: int) -> np.random.Generator:
    """A generator at the start of the data stream of ``cell``, from which
    its replicates draw n values each, in replicate order."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, cell), spawn_key=(0,)))


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
@pytest.mark.parametrize("batch_rows", [1, 7, 8, 9, _ARRAY_FITS, None])
def test_run_study_bytes_do_not_depend_on_the_batch_bound(monkeypatch, replicates, batch_rows):
    """A bound of 1, 7, 8, 9 or ``_ARRAY_FITS`` rows at the widest cell's
    n, or the default one, cuts batches inside cells and across cells of
    different n, on both sides of the fit fork."""
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
                                               (((12, 1.5, 8),), _ARRAY_FITS - 1)])
def test_a_study_below_the_fit_fork_fits_no_rows(monkeypatch, cells, replicates):
    calls = _spy_fit_rows(monkeypatch)
    config = _config(cells=cells, replicates=replicates, methods=("mle", "lindley"))
    _assert_same_bytes(run_study(config), run_study_ref(config))
    assert calls == []


def test_a_single_replicate_is_fitted_and_sampled_on_one_sample(monkeypatch):
    """A batch of one replicate in each of two cells, the shape of a Bayes
    study, is fitted by the one-sample functions, not as arrays, and
    importance sampling reads the very sample they fitted, so that its
    cached work is done once: the third derivatives once for both priors,
    and the expansion once for each."""
    config = _config(cells=((12, 1.5, 8), (20, 2.5, 20)), replicates=1,
                     methods=("lindley", "is"))
    want = run_study_ref(config)
    calls = []

    def spy(name, at):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[at]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapper)

    for name, at in (("_fit_rows", 0), ("fit_mle", 0), ("third_derivatives", 2),
                     ("_estimate", 0), ("bayes_is", 0)):
        spy(name, at)
    _assert_same_bytes(run_study(config), want)
    by_sample = {}      # the calls on each sample object, by its id
    for name, s in calls:
        if name != "_estimate":
            by_sample.setdefault(id(s), []).append(name)
    per_replicate = {"fit_mle": 1, "third_derivatives": 1, "bayes_is": 2}
    assert [collections.Counter(names) for names in by_sample.values()] \
        == [per_replicate] * len(config.cells)
    # the expansion under each prior at each replicate's fit
    estimated = collections.Counter(id(fit) for name, fit in calls if name == "_estimate")
    assert list(estimated.values()) == [len(config.priors)] * len(config.cells)


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


# lifetimes near 1e150: some regression starts overflow lam to inf
_OVERFLOWING = dict(true_lambda=1e300, cells=((12, 1e150, 9), (20, 1e150, 18)), replicates=6,
                    base_seed=30, methods=("mle", "lindley"))


def _study_samples(config) -> list:
    """The censored sample of every (cell, replicate) task of ``config``,
    in task order."""
    params = IwParams.from_rate(config.true_alpha, config.true_lambda)
    samples = []
    for cell, (n, T, R) in enumerate(config.cells):
        stream = _cell_stream(config.base_seed, cell)
        for rep in range(config.replicates):
            samples.append(reciprocals(apply_scheme(sample(n, params, stream),
                                                    HybridScheme(n=n, R=R, T=T))))
    return samples


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_study_counts_an_overflowing_start_as_a_failed_fit():
    """The 12 rows are one batch.  In cell 1, the regression starts of
    replicates 2 (r = 5) and 4 (r = 9) overflow lam to inf, where fit_mle
    raises NumericError naming the start, and the other four replicates do
    not converge: the study completes, and its MLE fails 6 times of 6 in
    that cell."""
    config = _config(**_OVERFLOWING)
    got = run_study(config)
    _assert_same_bytes(got, run_study_ref(config))
    cell1 = _study_samples(config)[6:]
    assert [_outcome(fit_mle, s)[1] for s in cell1] == [
        ConvergenceError, ConvergenceError, NumericError,
        ConvergenceError, NumericError, ConvergenceError]
    for s in (cell1[2], cell1[4]):
        with pytest.raises(NumericError, match=r"regression start \(alpha, lam\) = \(2\.\d*, inf\)"):
            fit_mle(s)
    assert [(row.replicates_used, row.failures) for row in got.rows
            if (row.n, row.method) == (20, "mle")] == [(0, 6), (0, 6)]


# where the entropy of (base_seed, cell) gains a 32-bit word
_WORD_EDGES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 96)


@settings(max_examples=80, deadline=None)
@given(base_seed=st.integers(0, 2 ** 70) | st.sampled_from(_WORD_EDGES),
       cell=st.integers(0, 40), n=st.integers(1, 60), offset=st.integers(0, 3 * 2 ** 16),
       edge=st.sampled_from([None, -1, 0, 1]), size=st.integers(1, 40), more=st.integers(0, 5))
@example(base_seed=2 ** 64, cell=0, n=50, offset=0, edge=-1, size=3, more=2)
def test_pieces_read_the_cell_streams_in_replicate_order(base_seed, cell, n, offset, edge,
                                                         size, more):
    """The pieces of a batch, replicates ``start`` to ``start + size`` of
    ``cell`` and then the first ``more`` of the next cell, are, byte for
    byte, those rows of each cell's stream drawn in order, n values a row:
    the jump past ``start`` replicates is exact at every start, up to three
    times the default batch bound (``_CHUNK_VALUES // n`` rows) and next to
    it (``edge``)."""
    bound = harness._CHUNK_VALUES // n
    start = offset % (3 * bound + 1) if edge is None else bound + edge
    schemes = {cell: HybridScheme(n=n, R=n, T=1.0), cell + 1: HybridScheme(n=n + 1, R=1, T=1.0)}
    batch = [(cell, range(start, start + size))] + [(cell + 1, range(more))] * (more > 0)
    params = IwParams.from_rate(2.0, 1.0)
    pieces = _pieces(_config(base_seed=base_seed), schemes, params, batch)
    assert [scheme for _, scheme in pieces] == [schemes[c] for c, _ in batch]
    for (times, scheme), (c, reps) in zip(pieces, batch):
        u = _cell_stream(base_seed, c).random(reps.stop * scheme.n)
        u = u.reshape(reps.stop, scheme.n)[reps.start:]
        u[u == 0.0] = 0.5 ** 53
        assert times.tobytes() == _quantile(u, params).tobytes()


@pytest.mark.parametrize("cells, replicates, batch_rows, built", [
    (((30, 1.5, 20), (30, 1.5, 30), (50, 1.5, 35), (50, 2.5, 50)), 100, None, [4]),
    (((12, 1.5, 8), (20, 2.5, 20), (4, 0.3, 4)), 5, 7, [2, 2, 1]),
    (((12, 1.5, 8), (20, 2.5, 20)), 1, None, [2]),
], ids=["benchmark", "cut-across-cells", "one-replicate-a-cell"])
def test_a_batch_builds_one_generator_per_cell(monkeypatch, cells, replicates, batch_rows,
                                               built):
    """Each (cell, replicates) piece of a batch builds one PCG64 on the cell's
    stream, whatever its number of rows: the benchmark's 400 rows build
    four, and a bound of 7 rows at n = 20 cuts 5 replicates of each of
    three cells into batches of 5 + 2, 3 + 4 and 1 rows."""
    config = _config(cells=cells, replicates=replicates, methods=("mle", "lindley"))
    want = run_study_ref(config)
    if batch_rows is not None:
        monkeypatch.setattr(harness, "_CHUNK_VALUES",
                            batch_rows * max(n for n, _, _ in config.cells))
    made, batches = [], []
    records = harness._records

    def spy_records(*args):
        batches.append(len(made))
        return records(*args)

    def spy_pcg64(*args, _make=np.random.PCG64, **kwargs):
        made.append(args)
        return _make(*args, **kwargs)
    monkeypatch.setattr(harness, "_records", spy_records)
    monkeypatch.setattr(np.random, "PCG64", spy_pcg64)
    _assert_same_bytes(run_study(config), want)
    assert np.diff(batches + [len(made)]).tolist() == built


@pytest.mark.parametrize("base_seed", [17, 2 ** 64])
@pytest.mark.parametrize("replicates", sorted({_ARRAY_FITS - 1, _ARRAY_FITS, 12, 25}))
@pytest.mark.parametrize("cells", [((12, 1.5, 8),), ((12, 1.5, 8), (4, 0.3, 4))],
                         ids=["one-cell", "two-cells"])
def test_run_study_bytes_across_the_fork_thresholds(base_seed, replicates, cells):
    """A batch of each size on both sides of the fit fork, of 12 and 25
    rows past it, and of twice those sizes across two cells of different n."""
    config = _config(cells=cells, replicates=replicates, base_seed=base_seed, draws=40)
    _assert_same_bytes(run_study(config), run_study_ref(config))
