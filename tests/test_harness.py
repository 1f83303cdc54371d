import dataclasses
import json

import numpy as np
import pytest

from iwhc import (
    DomainError,
    GammaPriors,
    HybridScheme,
    IwParams,
    StudyConfig,
    apply_scheme,
    asymptotic_ci,
    bayes_is,
    fit_mle,
    reciprocals,
    run_study,
    sample,
)
from iwhc.harness import format_table, write_csv


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


def test_single_replicate_equals_direct_fit():
    config = _tiny_config(replicates=1, methods=("mle",), cells=((25, 1.5, 18),))
    summary = run_study(config)
    root = np.random.SeedSequence(entropy=(config.base_seed, 0, 0))
    children = root.spawn(1 + len(config.priors))
    data = sample(25, IwParams.from_rate(2.0, 1.0), children[0])
    s = reciprocals(apply_scheme(data, HybridScheme(n=25, R=18, T=1.5)))
    fit = fit_mle(s)
    ci_a, ci_l, _ = asymptotic_ci(fit, 0.95)
    by_param = {row.parameter: row for row in summary.rows}
    assert by_param["alpha"].average_estimate == fit.alpha_hat
    assert by_param["alpha"].mse == (fit.alpha_hat - 2.0) ** 2
    assert by_param["alpha"].avg_interval_length == ci_a.length
    assert by_param["lambda"].average_estimate == fit.lam_hat
    assert by_param["lambda"].avg_interval_length == ci_l.length


def test_importance_sampling_uses_child_one_plus_prior():
    priors = (GammaPriors(), GammaPriors(2, 1, 1, 1))
    config = _tiny_config(replicates=1, methods=("is",), cells=((25, 1.5, 18),), priors=priors)
    summary = run_study(config)
    children = np.random.SeedSequence(entropy=(config.base_seed, 0, 0)).spawn(3)
    data = sample(25, IwParams.from_rate(2.0, 1.0), children[0])
    s = reciprocals(apply_scheme(data, HybridScheme(n=25, R=18, T=1.5)))
    for p, prior in enumerate(priors):
        res = bayes_is(s, prior, config.draws, children[1 + p], level=config.level)
        assert summary.estimates[(0, "is", p, "alpha")].tolist() == [res.alpha.mean]
        assert summary.lengths[(0, "is", p, "lambda")].tolist() == [res.lam.hpd.length]


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


def test_accounting_with_degenerate_replicates():
    # a time budget so small that many replicates see fewer than 2 failures
    config = _tiny_config(cells=((4, 0.05, 4),), replicates=60, methods=("mle",))
    summary = run_study(config)
    for row in summary.rows:
        assert row.replicates_used + row.failures == 60
        assert row.failures > 0


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
