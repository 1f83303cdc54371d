"""Monte Carlo study of the estimators over a grid of censoring designs.

For every cell (n, T, R) and replicate the harness draws n lifetimes from the
true distribution, censors them, fits the requested methods, and accumulates
average estimates, mean squared errors against the truth, and average 95%
interval lengths (confidence intervals for the MLE, highest-density credible
intervals for importance sampling; the expansion estimator has no interval).

Reproducibility contract: replicate seeds derive from
``SeedSequence((base_seed, cell_index, replicate_index))``; child 0 generates
the data and child 1+p drives importance sampling under prior p.  Replicates
are therefore independent tasks whose results merge in replicate order, and a
summary is bit-identical for a given config no matter how the replicates are
scheduled.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .censoring import HybridScheme, apply_scheme, reciprocals
from .distribution import IwParams, sample
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .lindley import GammaPriors, lindley_estimates
from .mle import asymptotic_ci, fit_mle
from .posterior import bayes_is

__all__ = ["StudyConfig", "CellMetric", "SimulationSummary", "run_study",
           "write_csv", "format_table"]

_METHODS = ("mle", "lindley", "is")
_FIT_ERRORS = (ConvergenceError, NumericError, InsufficientDataError,
               DegenerateWeightsError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class StudyConfig:
    true_alpha: float
    true_lambda: float
    cells: tuple
    priors: tuple = (GammaPriors(),)
    replicates: int = 1000
    draws: int = 1000
    base_seed: int = 0
    methods: tuple = _METHODS
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        # the importance-sampling HPD interval needs draws * level >= 2
        if self.draws < 2 or self.draws * self.level < 2:
            raise DomainError(f"draws must be >= 2 with draws * level >= 2, got {self.draws}")
        if self.true_alpha <= 0 or self.true_lambda <= 0:
            raise DomainError("true parameters must be positive")
        if self.base_seed < 0:
            raise DomainError("base_seed must be a nonnegative integer")
        for method in self.methods:
            if method not in _METHODS:
                raise DomainError(f"unknown method {method!r}; choose from {_METHODS}")
        for n, T, R in self.cells:
            HybridScheme(n=int(n), R=int(R), T=float(T))  # validates invariants

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        if not isinstance(raw, dict):
            raise DomainError("a study config must be a JSON object")
        missing = [key for key in ("true_alpha", "true_lambda", "cells") if key not in raw]
        if missing:
            raise DomainError(f"study config lacks required keys: {', '.join(missing)}")
        cells = raw["cells"]
        priors = raw.get("priors", [(0, 0, 0, 0)])
        for key, items, size, shape in (("cells", cells, 3, "[n, T, R]"),
                                        ("priors", priors, 4, "[a, b, c, d]")):
            if not isinstance(items, (list, tuple)) or not all(
                isinstance(item, (list, tuple)) and len(item) == size for item in items
            ):
                raise DomainError(f"{key} must be a list of {shape}, got {items!r}")
        try:
            fields = dict(
                true_alpha=float(raw["true_alpha"]),
                true_lambda=float(raw["true_lambda"]),
                cells=tuple((int(n), float(T), int(R)) for n, T, R in cells),
                priors=tuple(GammaPriors(*map(float, p)) for p in priors),
                replicates=int(raw.get("replicates", 1000)),
                draws=int(raw.get("draws", 1000)),
                base_seed=int(raw.get("base_seed", 0)),
                methods=tuple(raw.get("methods", list(_METHODS))),
                level=float(raw.get("level", 0.95)),
            )
        except DomainError:
            raise
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed study config: {exc}") from None
        return cls(**fields)

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class CellMetric:
    """Aggregates for one (cell, method, prior, parameter) combination."""

    n: int
    T: float
    R: int
    method: str
    prior: tuple | None
    parameter: str
    average_estimate: float
    mse: float
    avg_interval_length: float | None
    se_average: float
    se_mse: float
    se_interval_length: float | None
    replicates_used: int
    failures: int


@dataclass
class SimulationSummary:
    config: StudyConfig
    rows: list
    # per-replicate audit trail, keyed (cell_idx, method, prior_idx, parameter)
    estimates: dict = field(default_factory=dict)
    lengths: dict = field(default_factory=dict)


def _se(values: np.ndarray) -> float:
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_study(config: StudyConfig) -> SimulationSummary:
    truth = {"alpha": config.true_alpha, "lambda": config.true_lambda}
    params = IwParams.from_rate(config.true_alpha, config.true_lambda)
    want_mle = "mle" in config.methods
    want_lin = "lindley" in config.methods
    want_is = "is" in config.methods
    rows: list[CellMetric] = []
    estimates: dict = {}
    lengths: dict = {}

    for cell_idx, (n, T, R) in enumerate(config.cells):
        scheme = HybridScheme(n=int(n), R=int(R), T=float(T))
        est: dict = {}
        lens: dict = {}
        fails: dict = {}

        def record(key, parameter, value, length=None):
            est.setdefault((key, parameter), []).append(value)
            if length is not None:
                lens.setdefault((key, parameter), []).append(length)

        def fail(key):
            fails[key] = fails.get(key, 0) + 1

        method_keys = []
        if want_mle:
            method_keys.append(("mle", None))
        for pi in range(len(config.priors)):
            if want_lin:
                method_keys.append(("lindley", pi))
            if want_is:
                method_keys.append(("is", pi))

        for rep in range(config.replicates):
            # child k of SeedSequence(entropy), as spawn() gives it, made
            # only for the streams this replicate uses
            entropy = (config.base_seed, cell_idx, rep)
            data = sample(scheme.n, params, np.random.SeedSequence(entropy, spawn_key=(0,)))
            rs = reciprocals(apply_scheme(data, scheme))
            if rs.r < 2:
                for key in method_keys:
                    fail(key)
                continue
            fit = None
            if want_mle or want_lin:
                try:
                    fit = fit_mle(rs)
                except _FIT_ERRORS:
                    fit = None
            if want_mle:
                if fit is None:
                    fail(("mle", None))
                else:
                    ci_a, ci_l, _ = asymptotic_ci(fit, config.level)
                    record(("mle", None), "alpha", fit.alpha_hat, ci_a.length)
                    record(("mle", None), "lambda", fit.lam_hat, ci_l.length)
            if want_lin:
                for pi, prior in enumerate(config.priors):
                    if fit is None:
                        fail(("lindley", pi))
                        continue
                    try:
                        lest = lindley_estimates(fit, prior, rs)
                    except _FIT_ERRORS:
                        fail(("lindley", pi))
                        continue
                    record(("lindley", pi), "alpha", lest.alpha_L)
                    record(("lindley", pi), "lambda", lest.lambda_L)
            if want_is:
                for pi, prior in enumerate(config.priors):
                    try:
                        res = bayes_is(rs, prior, config.draws,
                                       np.random.SeedSequence(entropy, spawn_key=(1 + pi,)),
                                       level=config.level)
                    except _FIT_ERRORS:
                        fail(("is", pi))
                        continue
                    record(("is", pi), "alpha", res.alpha.mean, res.alpha.hpd.length)
                    record(("is", pi), "lambda", res.lam.mean, res.lam.hpd.length)

        for key in method_keys:
            method, pi = key
            prior = config.priors[pi].as_tuple() if pi is not None else None
            n_fail = fails.get(key, 0)
            for parameter in ("alpha", "lambda"):
                vals = np.array(est.get((key, parameter), []))
                lvals = np.array(lens.get((key, parameter), []))
                errors2 = (vals - truth[parameter]) ** 2 if vals.size else np.array([])
                rows.append(CellMetric(
                    n=scheme.n, T=scheme.T, R=scheme.R,
                    method=method, prior=prior, parameter=parameter,
                    average_estimate=float(vals.mean()) if vals.size else float("nan"),
                    mse=float(errors2.mean()) if vals.size else float("nan"),
                    avg_interval_length=float(lvals.mean()) if lvals.size else None,
                    se_average=_se(vals),
                    se_mse=_se(errors2),
                    se_interval_length=_se(lvals) if lvals.size else None,
                    replicates_used=int(vals.size),
                    failures=n_fail,
                ))
                estimates[(cell_idx, method, pi, parameter)] = vals
                if lvals.size:
                    lengths[(cell_idx, method, pi, parameter)] = lvals
    return SimulationSummary(config=config, rows=rows, estimates=estimates, lengths=lengths)


def write_csv(summary: SimulationSummary, path) -> None:
    rows = [asdict(row) for row in summary.rows]
    for row in rows:
        prior = row.pop("prior")
        row["prior"] = "" if prior is None else ",".join(f"{v:g}" for v in prior)
    fieldnames = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _column_label(method: str, prior) -> str:
    if prior is None:
        return "MLE"
    tag = ",".join(f"{v:g}" for v in prior)
    return {"lindley": f"Lindley({tag})", "is": f"IS({tag})"}[method]


def format_table(summary: SimulationSummary) -> str:
    """Aligned text tables: A.E/MSE per parameter, then interval lengths."""
    rows = summary.rows
    columns: list[tuple[str, tuple | None]] = []
    for row in rows:
        key = (row.method, row.prior)
        if key not in columns:
            columns.append(key)
    cells = []
    for row in rows:
        cell = (row.n, row.T, row.R)
        if cell not in cells:
            cells.append(cell)

    def lookup(cell, col, parameter):
        for row in rows:
            if ((row.n, row.T, row.R) == cell and (row.method, row.prior) == col
                    and row.parameter == parameter):
                return row
        return None

    width = 18
    out = []
    header = "".join(_column_label(*c).rjust(width) for c in columns)
    for parameter in ("alpha", "lambda"):
        out.append(f"Average estimates and MSE for {parameter}")
        out.append(" (n, T)      R   metric" + header)
        for cell in cells:
            n, T, R = cell
            for metric in ("A.E", "MSE"):
                line = f"({n:3d},{T:5.2f}) {R:4d}  {metric:6s}"
                for col in columns:
                    row = lookup(cell, col, parameter)
                    if row is None or np.isnan(row.average_estimate):
                        line += "-".rjust(width)
                    else:
                        value = row.average_estimate if metric == "A.E" else row.mse
                        line += f"{value:.4f}".rjust(width)
                out.append(line)
        out.append("")
    interval_cols = [c for c in columns if c[0] in ("mle", "is")]
    if interval_cols:
        out.append(f"Average {summary.config.level:.0%} interval lengths (alpha row, lambda row)")
        out.append(" (n, T)      R   param "
                   + "".join(_column_label(*c).rjust(width) for c in interval_cols))
        for cell in cells:
            n, T, R = cell
            for parameter in ("alpha", "lambda"):
                line = f"({n:3d},{T:5.2f}) {R:4d}  {parameter:6s}"
                for col in interval_cols:
                    row = lookup(cell, col, parameter)
                    if row is None or row.avg_interval_length is None:
                        line += "-".rjust(width)
                    else:
                        line += f"{row.avg_interval_length:.4f}".rjust(width)
                out.append(line)
        out.append("")
    return "\n".join(out)
