"""Monte Carlo study of the estimators over a grid of censoring designs.

For every cell (n, T, R) and replicate the harness draws n lifetimes from the
true distribution, censors them, fits the requested methods, and accumulates
average estimates, mean squared errors against the truth, and average 95%
interval lengths (confidence intervals for the MLE, highest-density credible
intervals for importance sampling; the expansion estimator has no interval).

Reproducibility contract: replicate seeds derive from
``SeedSequence((base_seed, cell_index, replicate_index))``; child 0 generates
the data and child 1+p drives importance sampling under prior p.  Each
replicate is one independent task that returns a record per (method, prior)
group, and a merge step builds the rows from the records in replicate order,
so a summary is bit-identical for a given config no matter how the replicates
are scheduled, and no group's stream depends on which other groups run.

The replicates of a cell run in chunks (``_chunk``): each replicate draws
its own data into one row of a matrix, and censoring runs on all rows at
once.  The data streams are the same child 0 streams in every chunk: a large
chunk computes their generator states in one array pass over its entropy
words, and a small one gets them from numpy's own ``SeedSequence``
(``distribution._child_seeds``).  Only the fits fork, on the number of rows:
a chunk of one replicate is fitted on its sample by ``fit_mle``,
``asymptotic_ci`` and ``lindley_estimates``, and a chunk of several as
arrays, with the same bits.  Importance sampling records alpha and lambda
only, so theta, which ``bayes_is`` summarizes on first read, is never
computed here.

The merge (``run_study``) takes the means and standard errors of the
records with ``_mean`` and ``_se``: numpy's ``ndarray.mean()`` and
``std(ddof=1) / sqrt(n)`` in the same two passes of ``add.reduce`` sums,
bit for bit, without the method dispatch that dominates on a few values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .censoring import HybridScheme, _censor_rows
from .datasets import _read_text
from .distribution import IwParams, _child_seeds, _entropy_words, _sample_rows
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
    _integer,
    _real,
)
from .lindley import GammaPriors, _lindley_rows, lindley_estimates
from .mle import _ci_rows, _fit_rows, asymptotic_ci, fit_mle
from .posterior import bayes_is

__all__ = ["StudyConfig", "CellMetric", "SimulationSummary", "run_study",
           "write_csv", "format_table"]

_METHODS = ("mle", "lindley", "is")
_FIT_ERRORS = (ConvergenceError, NumericError, InsufficientDataError,
               DegenerateWeightsError)
# replicates fitted together: at most this many rows, and rows times n values
_CHUNK_ROWS = 256
_CHUNK_VALUES = 1 << 16


def _json_integer(name: str, value) -> int:
    """A JSON number as an int, checked by :func:`_integer`: a float with an
    integral value counts (JSON reads ``1e3`` as one), and none is truncated."""
    return _integer(name, int(value) if isinstance(value, float) and value.is_integer()
                    else value)


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
        # a numpy integer is stored as the int it holds, a true parameter as a float
        for name, least in (("replicates", 1), ("draws", None), ("base_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name in ("true_alpha", "true_lambda"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        # the importance-sampling HPD interval needs draws * level >= 2; a
        # count past 2**53, which a float cannot hold, compares as 2**53
        if self.draws < 2 or min(self.draws, 2 ** 53) * self.level < 2:
            raise DomainError(f"draws must be >= 2 with draws * level >= 2, got {self.draws}")
        if self.true_alpha <= 0 or self.true_lambda <= 0:
            raise DomainError("true parameters must be positive")
        if not (math.isfinite(self.true_alpha) and math.isfinite(self.true_lambda)):
            raise DomainError(f"true parameters must be finite, got alpha={self.true_alpha}, "
                              f"lambda={self.true_lambda}")
        for method in self.methods:
            if method not in _METHODS:
                raise DomainError(f"unknown method {method!r}; choose from {_METHODS}")
        for n, T, R in self.cells:
            HybridScheme(n=n, R=R, T=T)  # validates invariants
        if not self.cells or not _groups(self):
            raise DomainError("the study runs no estimator: it needs a cell and a method, "
                              "and lindley and is need a prior")

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
                cells=tuple((_json_integer("n", n), float(T), _json_integer("R", R))
                            for n, T, R in cells),
                priors=tuple(GammaPriors(*map(float, p)) for p in priors),
                replicates=_json_integer("replicates", raw.get("replicates", 1000)),
                draws=_json_integer("draws", raw.get("draws", 1000)),
                base_seed=_json_integer("base_seed", raw.get("base_seed", 0)),
                methods=tuple(raw.get("methods", list(_METHODS))),
                level=float(raw.get("level", 0.95)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed study config: {exc}") from None
        return cls(**fields)

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        return cls.from_dict(json.loads(_read_text(path)))


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


def _mean(values: np.ndarray) -> float:
    """``values.mean()`` as numpy's method computes it, NaN for no values."""
    return float(np.add.reduce(values) / values.size) if values.size else float("nan")


def _se(values: np.ndarray) -> float:
    """``values.std(ddof=1) / sqrt(values.size)`` in the two passes of
    numpy's method, NaN for fewer than two values.  Square roots are
    correctly rounded, so ``math.sqrt`` gives numpy's bits."""
    n = values.size
    if n < 2:
        return float("nan")
    d = values - np.add.reduce(values) / n
    return math.sqrt(np.add.reduce(d * d) / (n - 1)) / math.sqrt(n)


def _groups(config: StudyConfig) -> list:
    """The (method, prior index) of every estimator the study runs, in row
    order: the MLE, then Lindley and importance sampling under each prior."""
    groups = [("mle", None)] if "mle" in config.methods else []
    for pi in range(len(config.priors)):
        groups += [(method, pi) for method in ("lindley", "is") if method in config.methods]
    return groups


def _is_record(config: StudyConfig, rs, pi: int, entropy: np.ndarray):
    """The importance-sampling record under prior ``pi``, or None.
    ``entropy`` holds the words of the replicate's seed."""
    # child 1 + pi of SeedSequence(entropy), as spawn() gives it
    try:
        res = bayes_is(rs, config.priors[pi], config.draws,
                       np.random.SeedSequence(entropy, spawn_key=(1 + pi,)), level=config.level)
    except _FIT_ERRORS:
        return None
    return (res.alpha.mean, res.lam.mean, res.alpha.hpd.length, res.lam.hpd.length)


def _chunk(config: StudyConfig, scheme: HybridScheme, params: IwParams, groups: list,
           cell: int, reps: range) -> list:
    """The records of the replicates ``reps`` of cell ``cell``, in order.

    A replicate's record has one entry per group: ``(alpha, lambda, alpha
    length, lambda length)``, with lengths ``None`` for Lindley, or ``None``
    where the fit failed.  Fewer than two failures fail every group.  A
    chunk where some replicate raises an error that is not a failed fit
    (DomainError) runs again one replicate at a time, so that the error comes
    from the same replicate.
    """
    try:
        return _records(config, scheme, params, groups, cell, reps)
    except DomainError:
        if len(reps) == 1:
            raise
    return [_records(config, scheme, params, groups, cell, range(rep, rep + 1))[0]
            for rep in reps]


def _records(config, scheme, params, groups, cell, reps) -> list:
    """The records of :func:`_chunk`, from one try at the whole chunk.  A
    single row is fitted on its sample, which importance sampling then reads
    too, so that the logs and the regression start that the sample caches
    are computed once."""
    data = _sample_rows(scheme.n, params, _child_seeds((config.base_seed, cell), reps))
    rows, order = _censor_rows(data, scheme)
    single = len(reps) == 1
    rs = rows.sample(0) if single else None
    fitted = {}     # the record of each row that has one, by group
    if groups[0][0] != "is":        # row order puts the MLE and Lindley groups first
        fitted = _sample_fits(config, groups, rs) if single else _row_fits(config, groups, rows)
    sampled = any(method == "is" for method, _ in groups)
    records = [None] * len(reps)
    for i, (rep, r) in enumerate(zip(order.tolist(), rows.r.tolist())):
        if r < 2:
            records[rep] = [None] * len(groups)
            continue
        if sampled:
            if not single:
                rs = rows.sample(i)
            # the seed (base_seed, cell, replicate) as words, once for every prior
            entropy = np.array(_entropy_words((config.base_seed, cell, reps[rep])),
                               dtype=np.uint32)
        records[rep] = [fitted[group].get(i) if group in fitted
                        else _is_record(config, rs, group[1], entropy)
                        for group in groups]
    return records


def _sample_fits(config: StudyConfig, groups: list, rs) -> dict:
    """``{group: {0: record}}`` for the MLE and Lindley groups on one sample,
    the record left out where the fit fails."""
    fitted = {group: {} for group in groups if group[0] != "is"}
    try:
        fit = fit_mle(rs)
    except _FIT_ERRORS:
        return fitted
    for method, pi in fitted:
        try:
            if method == "mle":
                ci_a, ci_l, _ = asymptotic_ci(fit, config.level)
                fitted[method, pi][0] = (fit.alpha_hat, fit.lam_hat, ci_a.length, ci_l.length)
            else:
                est = lindley_estimates(fit, config.priors[pi], rs)
                fitted[method, pi][0] = (est.alpha_L, est.lambda_L, None, None)
        except _FIT_ERRORS:
            pass
    return fitted


def _row_fits(config: StudyConfig, groups: list, rows) -> dict:
    """``{group: {row: record}}`` for the MLE and Lindley groups on every row
    of ``rows`` at once, the rows where the fit fails left out."""
    fits = _fit_rows(rows)
    fitted = {}
    if groups[0][0] == "mle":
        len_a, len_l, ok = _ci_rows(fits, config.level)
        fitted[groups[0]] = _by_row(ok, fits.alpha, fits.lam, len_a, len_l)
    lindley = [group for group in groups if group[0] == "lindley"]
    for group, (alpha_L, lambda_L, ok) in zip(lindley, _lindley_rows(
            fits, rows, [config.priors[pi] for _, pi in lindley])):
        fitted[group] = _by_row(ok, alpha_L, lambda_L, None, None)
    return fitted


def _by_row(ok: np.ndarray, *columns) -> dict:
    """``{row: record}`` over the rows where ``ok``, a column None where it
    is None."""
    rows = np.flatnonzero(ok)
    return dict(zip(rows.tolist(), zip(*(
        [None] * rows.size if column is None else column[rows].tolist() for column in columns))))


def run_study(config: StudyConfig) -> SimulationSummary:
    truth = (config.true_alpha, config.true_lambda)
    params = IwParams.from_rate(config.true_alpha, config.true_lambda)
    groups = _groups(config)
    rows: list[CellMetric] = []
    estimates: dict = {}
    lengths: dict = {}

    for cell_idx, (n, T, R) in enumerate(config.cells):
        scheme = HybridScheme(n=n, R=R, T=T)
        size = max(1, min(_CHUNK_ROWS, _CHUNK_VALUES // scheme.n))
        records = []
        for start in range(0, config.replicates, size):
            records += _chunk(config, scheme, params, groups, cell_idx,
                              range(start, min(start + size, config.replicates)))
        for g, (method, pi) in enumerate(groups):
            fits = [rec[g] for rec in records if rec[g] is not None]
            prior = config.priors[pi].as_tuple() if pi is not None else None
            for i, parameter in enumerate(("alpha", "lambda")):
                vals = np.array([fit[i] for fit in fits])
                lvals = np.array([fit[2 + i] for fit in fits if fit[2 + i] is not None])
                errors2 = (vals - truth[i]) ** 2
                rows.append(CellMetric(
                    n=scheme.n, T=scheme.T, R=scheme.R,
                    method=method, prior=prior, parameter=parameter,
                    average_estimate=_mean(vals),
                    mse=_mean(errors2),
                    avg_interval_length=_mean(lvals) if lvals.size else None,
                    se_average=_se(vals),
                    se_mse=_se(errors2),
                    se_interval_length=_se(lvals) if lvals.size else None,
                    replicates_used=len(fits),
                    failures=config.replicates - len(fits),
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
    columns = list(dict.fromkeys((row.method, row.prior) for row in rows))
    cells = list(dict.fromkeys((row.n, row.T, row.R) for row in rows))
    by_key: dict = {}
    for row in rows:
        by_key.setdefault(((row.n, row.T, row.R), (row.method, row.prior), row.parameter), row)

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
                    row = by_key.get((cell, col, parameter))
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
                    row = by_key.get((cell, col, parameter))
                    if row is None or row.avg_interval_length is None:
                        line += "-".rjust(width)
                    else:
                        line += f"{row.avg_interval_length:.4f}".rjust(width)
                out.append(line)
        out.append("")
    return "\n".join(out)
