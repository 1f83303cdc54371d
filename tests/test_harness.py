import dataclasses
import io
import json
import math
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwhc import (
    DomainError,
    GammaPriors,
    HybridScheme,
    IwParams,
    PosteriorDraws,
    StudyConfig,
    apply_scheme,
    asymptotic_ci,
    bayes_is,
    fit_mle,
    reciprocals,
    run_study,
    sample,
)
from iwhc import cli, harness, posterior
from iwhc.harness import format_table, write_csv
from _oracles import run_study_ref


def _tiny_config(**overrides):
    base = dict(
        true_alpha=2.0,
        true_lambda=1.0,
        cells=((12, 1.5, 8),),
        priors=(GammaPriors(),),
        replicates=40,
        draws=300,
        base_seed=7,
        methods=("mle", "lindley", "is"),
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        _tiny_config(replicates=0)
    for bad in (dict(draws=1), dict(draws=2), dict(level=1.5)):
        with pytest.raises(DomainError):
            _tiny_config(**bad)
    with pytest.raises(DomainError):
        _tiny_config(methods=("mle", "bootstrap"))
    with pytest.raises(DomainError):
        _tiny_config(cells=((10, 1.5, 11),))
    # a study that would run no estimator
    for empty in (dict(cells=()), dict(methods=()), dict(methods=("is",), priors=()),
                  dict(methods=("lindley", "is"), priors=())):
        with pytest.raises(DomainError, match="no estimator"):
            _tiny_config(**empty)
    assert _tiny_config(methods=("mle",), priors=()).priors == ()


def test_a_study_too_large_to_run_is_rejected():
    limit = harness._MAX_STUDY_VALUES
    cells = ((10, 1.5, 8), (5, 1.5, 5))
    assert _tiny_config(cells=cells, replicates=limit // 15).replicates == limit // 15
    assert _tiny_config(cells=((limit, 1.5, 1),), replicates=1).cells[0][0] == limit
    # the first count past the limit, and a study of 76,765,005 lifetimes
    for replicates in (limit // 15 + 1, 5_117_667):
        with pytest.raises(DomainError, match=f"{replicates * 15:,} lifetimes .* "
                                              f"harness._MAX_STUDY_VALUES = {limit:,}"):
            _tiny_config(cells=cells, replicates=replicates)
    with pytest.raises(DomainError, match="_MAX_STUDY_VALUES"):
        _tiny_config(cells=((limit + 1, 1.5, 1),), replicates=1)


def test_simulate_rejects_a_study_too_large_to_run_at_once(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"true_alpha": 2.0, "true_lambda": 1.0,
                                "cells": [[12, 1.5, 8]], "replicates": 10 ** 12}))
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert (code, err.getvalue()) == (1, "error: the study draws 12,000,000,000,000 lifetimes "
                                         "(replicates times the sum of the cells' n), more than "
                                         "harness._MAX_STUDY_VALUES = 10,000,000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None, [1], math.nan])
@pytest.mark.parametrize("name", ["base_seed", "replicates", "draws"])
def test_config_takes_only_integer_seed_and_counts(name, bad):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        _tiny_config(**{name: bad})


def test_config_keeps_numpy_integers_as_ints():
    config = _tiny_config(base_seed=np.uint64(7), replicates=np.int32(3), draws=np.int64(50),
                          methods=("mle", "lindley"))
    assert [type(v) for v in (config.base_seed, config.replicates, config.draws)] == [int] * 3
    want = run_study(_tiny_config(base_seed=7, replicates=3, draws=50, methods=("mle", "lindley")))
    assert run_study(config).rows == want.rows


@pytest.mark.parametrize("name", ["base_seed", "replicates", "draws"])
def test_config_from_dict_rejects_a_fraction_rather_than_truncate_it(name):
    raw = {"true_alpha": 2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]]}
    with pytest.raises(DomainError, match=f"malformed study config: {name} must be an integer"):
        StudyConfig.from_dict({**raw, name: 3.5})
    # JSON may write a whole number as a float
    assert getattr(StudyConfig.from_dict({**raw, name: 3e0}), name) == 3


def test_cells_take_only_integer_n_and_r():
    with pytest.raises(DomainError, match="n must be an integer, got 12.7"):
        HybridScheme(n=12.7, R=8.9, T=1.5)
    with pytest.raises(DomainError, match="R must be an integer, got 8.9"):
        HybridScheme(n=12, R=8.9, T=1.5)
    scheme = HybridScheme(n=np.int64(12), R=np.int32(8), T=1.5)
    assert (type(scheme.n), type(scheme.R)) == (int, int)
    with pytest.raises(DomainError, match="n must be an integer, got 12.7"):
        _tiny_config(cells=((12.7, 1.5, 8.9),))
    raw = {"true_alpha": 2.0, "true_lambda": 1.0}
    with pytest.raises(DomainError, match="malformed study config: n must be an integer"):
        StudyConfig.from_dict({**raw, "cells": [[12.7, 1.5, 8.9]]})
    with pytest.raises(DomainError, match="malformed study config: R must be an integer"):
        StudyConfig.from_dict({**raw, "cells": [[12, 1.5, 8.9]]})
    # JSON may write a whole number as a float
    cells = StudyConfig.from_dict({**raw, "cells": [[12.0, 1.5, 8e0]]}).cells
    assert cells == ((12, 1.5, 8),) and [type(v) for v in cells[0]] == [int, float, int]


def test_config_json_round_trip(tmp_path):
    raw = {
        "true_alpha": 2.0, "true_lambda": 1.0,
        "cells": [[12, 1.5, 8], [20, 2.5, 20]],
        "priors": [[0, 0, 0, 0], [2, 1, 1, 1]],
        "replicates": 5, "draws": 100, "base_seed": 3, "methods": ["mle"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    config = StudyConfig.from_json(path)
    assert config.cells == ((12, 1.5, 8), (20, 2.5, 20))
    assert config.priors[1].as_tuple() == (2, 1, 1, 1)


def _direct_samples(config) -> list:
    """The censored samples of the replicates of cell 0 of ``config``, one
    design (25, 1.5, 18): replicate i reads the values ``[25 * i, 25 * (i +
    1))`` of the cell's data stream."""
    stream = np.random.default_rng(np.random.SeedSequence((config.base_seed, 0), spawn_key=(0,)))
    scheme = HybridScheme(n=25, R=18, T=1.5)
    return [reciprocals(apply_scheme(sample(25, IwParams.from_rate(2.0, 1.0), stream), scheme))
            for _ in range(config.replicates)]


def test_replicates_equal_direct_fits():
    config = _tiny_config(replicates=3, methods=("mle",), cells=((25, 1.5, 18),))
    summary = run_study(config)
    fits = [fit_mle(s) for s in _direct_samples(config)]
    intervals = [asymptotic_ci(fit, 0.95) for fit in fits]
    assert summary.estimates[(0, "mle", None, "alpha")].tolist() == [f.alpha_hat for f in fits]
    assert summary.estimates[(0, "mle", None, "lambda")].tolist() == [f.lam_hat for f in fits]
    assert summary.lengths[(0, "mle", None, "alpha")].tolist() == [ci[0].length for ci in intervals]
    assert summary.lengths[(0, "mle", None, "lambda")].tolist() == [ci[1].length for ci in intervals]
    by_param = {row.parameter: row for row in summary.rows}
    assert by_param["alpha"].average_estimate == np.mean([f.alpha_hat for f in fits])
    assert by_param["lambda"].avg_interval_length == np.mean([ci[1].length for ci in intervals])


def test_importance_sampling_memory_follows_the_group_budget():
    """2,100 records of one batch at M = 1,000 run in groups of 15, so the
    peak is one group's, not the batch's 2,100 records: its round arrays
    (uniforms, proposals, log densities and levels) of at most 16,384
    values each, its draws and summaries, and one row's exponentials, over
    the batch's samples and records (about 2 MB).  Measured 3.05 MB; one
    record at a time, the peak was 2.1 MB.

    At M = 40, the 1,310 records of one batch of a complete n = 50 cell run
    in groups of 16,384 // 64 = 256, whose tables of 64 points each hold
    the whole budget: 256 x 64 = 16,384 values an array (the guide table's
    twice that).  The envelopes, the group's largest step, hold about 20
    such arrays at once beside the tables and the draws, so the bound is 32
    arrays of 16,384 values (4.2 MB) over the same 2 MB.  Measured 5.5 MB;
    with one (256, r, 64) array of the exponentials of the tables' sums, 50
    x 16,384 values at r = 50 and more than the 32 arrays alone, 10.5 MB."""
    for cell, replicates, draws, arrays in (((30, 1.5, 20), 2100, 1000, 16),
                                            ((50, math.inf, 50), 1310, 40, 32)):
        config = _tiny_config(cells=(cell,), replicates=replicates, draws=draws, methods=("is",))
        n, t, big_r = cell
        assert len(list(harness._batches(replicates, [HybridScheme(n, big_r, t)]))) == 1
        run_study(dataclasses.replace(config, replicates=2))    # numpy's lazy set-up
        tracemalloc.start()
        try:
            summary = run_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.rows[0].replicates_used > replicates - 100
        assert peak < arrays * 8 * posterior._GROUP_VALUES + 2 ** 21


def test_importance_sampling_uses_child_one_plus_prior():
    """Replicate i under prior p samples from child 1 + p of
    ``SeedSequence((base_seed, 0, i))``, on the data of replicate i."""
    priors = (GammaPriors(), GammaPriors(2, 1, 1, 1))
    config = _tiny_config(replicates=2, methods=("is",), cells=((25, 1.5, 18),), priors=priors)
    summary = run_study(config)
    for rep, s in enumerate(_direct_samples(config)):
        children = np.random.SeedSequence(entropy=(config.base_seed, 0, rep)).spawn(3)
        for p, prior in enumerate(priors):
            res = bayes_is(s, prior, config.draws, children[1 + p], level=config.level)
            assert summary.estimates[(0, "is", p, "alpha")][rep] == res.alpha.mean
            assert summary.lengths[(0, "is", p, "lambda")][rep] == res.lam.hpd.length


def test_bit_identical_reruns():
    config = _tiny_config()
    first = run_study(config)
    second = run_study(config)
    assert [dataclasses.asdict(r) for r in first.rows] \
        == [dataclasses.asdict(r) for r in second.rows]
    for key in first.estimates:
        assert np.array_equal(first.estimates[key], second.estimates[key])


def test_mse_matches_independent_second_pass():
    config = _tiny_config(methods=("mle",), replicates=60)
    summary = run_study(config)
    truth = {"alpha": 2.0, "lambda": 1.0}
    for row in summary.rows:
        stored = summary.estimates[(0, row.method, None, row.parameter)]
        assert row.replicates_used == stored.size
        recomputed = float(np.mean([(v - truth[row.parameter]) ** 2 for v in stored]))
        assert row.mse == pytest.approx(recomputed, rel=1e-14)


@pytest.mark.parametrize("methods", [("mle",), ("lindley",), ("is",), ("mle", "lindley", "is")],
                         ids=["mle", "lindley", "is", "all"])
def test_accounting_with_degenerate_replicates(methods):
    # a time budget so small that many replicates see fewer than 2 failures
    config = _tiny_config(cells=((4, 0.05, 4),), replicates=60, methods=methods)
    summary = run_study(config)
    assert {row.method for row in summary.rows} == set(methods)
    for row in summary.rows:
        assert row.replicates_used + row.failures == 60
        assert row.failures > 0
        key = (0, row.method, None if row.method == "mle" else 0, row.parameter)
        assert summary.estimates[key].size == row.replicates_used


_TWO_PRIORS = (GammaPriors(), GammaPriors(2, 1, 1, 1))


def _rows(summary, method=None):
    """The rows as dicts, of one method or all, with NaN as a string so that
    a row without estimates compares equal to itself."""
    return [{k: "nan" if isinstance(v, float) and np.isnan(v) else v
             for k, v in dataclasses.asdict(row).items()}
            for row in summary.rows if method in (None, row.method)]


@pytest.mark.parametrize("config", [
    _tiny_config(cells=((12, 1.5, 8), (20, 2.5, 14)), priors=_TWO_PRIORS, replicates=15,
                 draws=150),
    _tiny_config(cells=((30, 1.5, 20), (30, 1.5, 30), (50, 1.5, 35), (50, 2.5, 50)),
                 priors=_TWO_PRIORS, replicates=25, methods=("mle", "lindley")),
    # no replicate of the first cell has two failures, half of the second's
    _tiny_config(cells=((4, 0.05, 4), (4, 1.0, 4)), priors=_TWO_PRIORS, replicates=30,
                 draws=100),
    _tiny_config(cells=((4, 0.05, 4), (12, 1.5, 8)), replicates=20, draws=100,
                 methods=("lindley", "is")),
    _tiny_config(replicates=10, draws=100, methods=("is",)),
    # one batch of 9 rows: one sample at a time below both forks, which sat
    # at 8 rows before each had its own threshold
    _tiny_config(cells=((12, 1.5, 8), (20, 2.5, 14), (4, 1.0, 4)), priors=_TWO_PRIORS,
                 replicates=3, draws=100),
], ids=["all-methods", "mle-lindley", "degenerate-cell", "lindley-is", "is-only",
        "between-the-old-and-new-forks"])
def test_run_study_equals_the_one_loop_copy(config):
    new, ref = run_study(config), run_study_ref(config)
    assert _rows(new) == _rows(ref)
    for got, want in ((new.estimates, ref.estimates), (new.lengths, ref.lengths)):
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes()


# lifetimes that overflow to inf at shape 0.005, and draws that no machine holds
_UNALLOCATABLE_DRAWS = dict(true_alpha=0.005, true_lambda=1.0, cells=((30, 1.5, 20),),
                            replicates=40, draws=10 ** 15, methods=("is",))


def test_config_rejects_draws_that_cannot_be_allocated():
    """The draws are checked when the config is built, so no study meets
    the lifetimes that do not fit float64 first."""
    with pytest.raises(DomainError, match=f"{10 ** 15} draws need {16 * 10 ** 15} bytes, "
                                          "which cannot be allocated"):
        StudyConfig(**_UNALLOCATABLE_DRAWS)


def test_simulate_rejects_draws_that_cannot_be_allocated(tmp_path):
    raw = {**_UNALLOCATABLE_DRAWS, "cells": [list(_UNALLOCATABLE_DRAWS["cells"][0])],
           "methods": ["is"]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert err.getvalue() == (f"error: {10 ** 15} draws need {16 * 10 ** 15} bytes, "
                              "which cannot be allocated\n")


def test_a_groups_stream_does_not_depend_on_the_other_groups():
    config = _tiny_config(cells=((12, 1.5, 8), (20, 2.5, 14)), priors=_TWO_PRIORS,
                          replicates=10, draws=150)
    full = run_study(config)
    for method in ("mle", "is"):
        alone = run_study(dataclasses.replace(config, methods=(method,)))
        assert _rows(alone) == _rows(full, method)
        for key, vals in alone.estimates.items():
            assert key[1] == method
            assert vals.tobytes() == full.estimates[key].tobytes()


# sizes on both sides of the blocks of numpy's pairwise sum (8 and 128 values)
@settings(max_examples=400, deadline=None)
@given(size=st.integers(1, 300) | st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129]),
       exponent=st.integers(-300, 300) | st.sampled_from([0, -200, 200, 154, 155]),
       offset=st.sampled_from([0.0, 1.0, -3.0, 1e8]), seed=st.integers(0, 2 ** 32 - 1))
def test_merge_mean_and_se_are_numpys_bits(size, exponent, offset, seed):
    """The merge's mean and standard error are ``ndarray.mean()`` and
    ``std(ddof=1) / sqrt(size)``, bit for bit, also where the squares
    overflow or underflow."""
    values = (offset + np.random.default_rng(seed).standard_normal(size)) * 10.0 ** exponent
    with np.errstate(all="ignore"):
        want = (values.mean(),
                values.std(ddof=1) / np.sqrt(values.size) if size > 1 else math.nan)
        got = (harness._mean(values), harness._se(values))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_a_study_never_reads_theta(monkeypatch):
    """The harness records alpha and lambda only, so a theta that cannot be
    summarized neither runs nor fails a record."""
    config = _tiny_config(cells=((12, 1.5, 8), (20, 2.5, 14)), priors=_TWO_PRIORS,
                          replicates=4, draws=100, methods=("is",))
    want = run_study(config)

    def unread(self):
        raise AssertionError("theta was read")

    monkeypatch.setattr(PosteriorDraws, "thetas", property(unread))
    got = run_study(config)
    assert _rows(got) == _rows(want)
    for mine, theirs in ((got.estimates, want.estimates), (got.lengths, want.lengths)):
        assert list(mine) == list(theirs)
        assert [v.tobytes() for v in mine.values()] == [v.tobytes() for v in theirs.values()]


@pytest.mark.parametrize("name", ["true_alpha", "true_lambda"])
@pytest.mark.parametrize("bad", ["2", None, [2.0], True, 10 ** 400])
def test_config_takes_only_real_true_parameters(name, bad):
    with pytest.raises(DomainError, match=f"{name} (must be a real number|is outside)"):
        _tiny_config(**{name: bad})


@pytest.mark.parametrize("name", ["true_alpha", "true_lambda"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_true_parameters_that_are_not_finite(name, bad):
    with pytest.raises(DomainError, match="true parameters must be finite"):
        _tiny_config(**{name: bad})
    raw = {"true_alpha": 2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]], name: bad}
    with pytest.raises(DomainError, match="true parameters must be finite"):
        StudyConfig.from_dict(raw)


def test_config_keeps_numpy_and_integer_true_parameters_as_floats():
    config = _tiny_config(true_alpha=np.float64(2.0), true_lambda=1, methods=("mle",),
                          replicates=3)
    assert [type(v) for v in (config.true_alpha, config.true_lambda)] == [float, float]
    assert _rows(run_study(config)) == _rows(run_study(_tiny_config(methods=("mle",),
                                                                    replicates=3)))
    # the messages for parameters that are not positive are as before
    with pytest.raises(DomainError, match="^true parameters must be positive$"):
        StudyConfig.from_dict({"true_alpha": -2.0, "true_lambda": 1.0, "cells": [[12, 1.5, 8]]})


def test_mse_decreases_with_sample_size():
    config = StudyConfig(
        true_alpha=2.0, true_lambda=1.0,
        cells=((30, 1.5, 30), (50, 1.5, 50)),
        priors=(GammaPriors(),),
        replicates=250, draws=100, base_seed=101,
        methods=("mle",),
    )
    summary = run_study(config)
    mse = {(row.n, row.parameter): row.mse for row in summary.rows}
    assert mse[(50, "alpha")] < mse[(30, "alpha")]
    assert mse[(50, "lambda")] < mse[(30, "lambda")]


def test_outputs_are_complete(tmp_path):
    config = _tiny_config(replicates=12)
    summary = run_study(config)
    # one row per (cell, method-prior combination, parameter)
    assert len(summary.rows) == 2 * (1 + 2 * len(config.priors))
    for row in summary.rows:
        assert row.replicates_used + row.failures == 12
        if row.method == "lindley":
            assert row.avg_interval_length is None
        elif row.replicates_used:
            assert row.avg_interval_length is not None
    csv_path = tmp_path / "summary.csv"
    write_csv(summary, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(summary.rows)
    table = format_table(summary)
    assert "Average estimates and MSE for alpha" in table
    assert "MLE" in table and "IS(0,0,0,0)" in table


def _cell():
    """(n, T, R), with R out of range now and then."""
    return st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.floats(0.05, 5.0) | st.just(math.inf),
        st.integers(1, n) | st.integers(-1, 13)))


_SMALL_CONFIGS = st.fixed_dictionaries({
    "true_alpha": st.floats(0.3, 8.0), "true_lambda": st.floats(0.05, 20.0),
    "cells": st.lists(_cell(), min_size=1, max_size=2),
    "priors": st.lists(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 4), max_size=2),
    "methods": st.lists(st.sampled_from(["mle", "lindley", "is"]), unique=True, min_size=1),
    "replicates": st.integers(1, 3), "draws": st.just(20),
    "base_seed": st.integers(0, 2 ** 32),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(raw=_SMALL_CONFIGS)
def test_small_configs_give_consistent_rows_or_domain_error(raw):
    try:
        config = StudyConfig.from_dict(raw)
    except DomainError:
        return
    summary = run_study(config)
    params = ("alpha", "lambda")
    assert [(row.n, row.T, row.R, row.method, row.prior, row.parameter) for row in summary.rows] \
        == [(int(n), float(T), int(R), method,
             None if pi is None else config.priors[pi].as_tuple(), parameter)
            for n, T, R in config.cells for method, pi in harness._groups(config)
            for parameter in params]
    for row in summary.rows:
        assert row.replicates_used + row.failures == config.replicates
        if row.replicates_used:
            assert math.isfinite(row.average_estimate) and math.isfinite(row.mse)
        assert (row.avg_interval_length is None) == (row.method == "lindley"
                                                     or not row.replicates_used)
    for key, values in summary.estimates.items():
        assert np.isfinite(values).all()
    assert {key[1] for key in summary.lengths} <= {"mle", "is"}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(raw=_SMALL_CONFIGS, junk=st.dictionaries(
    st.sampled_from(["true_alpha", "true_lambda", "cells", "priors", "methods", "replicates",
                     "draws", "base_seed", "level"]),
    _JSON | st.integers(10 ** 300, 10 ** 400) | st.just([[12, 10 ** 400, 8]]), min_size=1))
def test_malformed_configs_raise_only_domain_error(raw, junk):
    try:
        StudyConfig.from_dict({**raw, **junk})
    except DomainError:
        pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(raw=_SMALL_CONFIGS, junk=st.dictionaries(st.sampled_from(["cells", "replicates", "level"]),
                                                _JSON, max_size=1))
# "replicates": 1e400 reads as inf, and int(inf) raised OverflowError
@example(raw={"true_alpha": 2.0, "true_lambda": 1.0, "cells": [(12, 1.5, 8)]},
         junk={"replicates": math.inf})
def test_simulate_exits_0_or_1_with_no_traceback(tmp_path_factory, raw, junk):
    out_dir = tmp_path_factory.mktemp("simulate")
    path = out_dir / "study.json"
    path.write_text(json.dumps({**raw, **junk}))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["simulate", str(path), "--out-dir", str(out_dir), "--json"])
    assert code in (0, 1)
    assert (err.getvalue() == "") == (code == 0)
