"""Monte Carlo study of the estimators over a grid of censoring designs.

For every cell (n, T, R) and replicate the harness draws n lifetimes from the
true distribution, censors them, fits the requested methods, and accumulates
average estimates, mean squared errors against the truth, and average 95%
interval lengths (confidence intervals for the MLE, highest-density credible
intervals for importance sampling; the expansion estimator has no interval).

Reproducibility contract: cell c draws its data from one stream,
``PCG64(SeedSequence((base_seed, c), spawn_key=(0,)))``, of which replicate
i reads the uniforms ``[i * n, (i + 1) * n)``; importance sampling under
prior p draws from child 0 of child 1+p of
``SeedSequence((base_seed, cell_index, replicate_index))``.  Each replicate
is one independent task that fills a column of a block per (method, prior)
group: its two estimates and, for the MLE and importance sampling, the
lower and upper bounds of its two intervals, or a failure.  A merge step
builds the rows from the columns in replicate order, so a summary is
bit-identical for a given config no matter how the replicates are
scheduled, and no group's stream depends on which other groups run.

The (cell, replicate) tasks, in cell-major order, run in batches
(``_batches``) of at most ``_CHUNK_VALUES`` values at the width of the
batch's widest cell, so that a batch may span cells.  Each cell's piece of
a batch, replicates ``[start, stop)``, builds one generator on the cell's
stream, advances it past ``start * n`` uniforms (PCG64's ``advance`` jumps
there in O(log) steps) and draws its rows with one ``random()`` call, so
a replicate's data do not depend on the batch.  The pieces are censored
each under its own scheme and stacked into one ``ReciprocalRows``, padded
to the widest n and ordered by r.  A batch of at least ``_ARRAY_FITS``
rows fits all its rows at once as arrays, with the same bits.  A smaller
one, such as the one batch of a study of one replicate in each of two
cells, fits each row on its own sample with ``fit_mle``, ``asymptotic_ci``
and the Lindley expansion.  Either way the results land in the batch's
blocks, the array fits with one permutation from the order of r to the
order of the tasks; only the one-sample fits and importance sampling loop
over the rows.  Importance sampling records alpha and lambda only, so
theta, which ``bayes_is`` summarizes on first read, is never computed here.

A replicate whose fit fails (too few failures, a regression start that
float64 cannot hold, no convergence, ...) fails its groups, and the study
goes on.  A batch is tried once: the DomainErrors that can still escape
``run_study`` name no replicate (failure times that are not positive and
finite, a one-row batch or importance-sampling draws too large to
allocate), so none depends on which replicate of the batch met it first.

The merge (``run_study``) concatenates each group's blocks over the
batches, in which cell c is columns ``[c * replicates, (c + 1) *
replicates)``, keeps each cell's columns that fitted, and takes the
lengths as ``upper - lower``, the bits of ``ConfidenceInterval.length``.
It takes the means and standard errors of the estimates, their squared
errors and the lengths, a row each, with ``_mean`` and ``_se``: numpy's
``ndarray.mean()`` and ``std(ddof=1) / sqrt(n)`` of each row in the same
two passes of ``add.reduce`` sums, bit for bit, without the method
dispatch that dominates on a few values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .censoring import HybridScheme, _censor_rows
from .datasets import _read_text
from .distribution import IwParams, _lifetimes
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
    _integer,
    _real,
)
from .lindley import GammaPriors, _estimate, _lindley_rows, third_derivatives
from .mle import _ci_rows, _fit_rows, asymptotic_ci, fit_mle
from .posterior import _draw_buffers, bayes_is

__all__ = ["StudyConfig", "CellMetric", "SimulationSummary", "run_study",
           "write_csv", "format_table"]

_METHODS = ("mle", "lindley", "is")
_FIT_ERRORS = (ConvergenceError, NumericError, InsufficientDataError,
               DegenerateWeightsError)
# replicates fitted together: at most this many values, rows times the
# largest n among their cells
_CHUNK_VALUES = 1 << 16
# the measured crossover (README.md) at and above which a batch fits as
# arrays (mle._fit_rows and the rows' intervals and Lindley estimates) rather
# than one sample at a time
_ARRAY_FITS = 11


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
        if not 0.0 < _real("level", self.level) < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        # the importance-sampling HPD interval needs draws * level >= 2; a
        # count past 2**53, which a float cannot hold, compares as 2**53
        if self.draws < 2 or min(self.draws, 2 ** 53) * self.level < 2:
            raise DomainError(f"draws must be >= 2 with draws * level >= 2, got {self.draws}")
        # the draws of an importance-sampling record, checked before any is run
        _draw_buffers(self.draws)
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


def _mean(values: np.ndarray) -> np.ndarray:
    """``values.mean(axis=-1)`` as numpy's method computes it, NaN for no
    values.  numpy's pairwise sum along a contiguous last axis rounds each
    row as it rounds the row alone."""
    n = values.shape[-1]
    return np.add.reduce(values, axis=-1) / n if n else np.full(values.shape[:-1], np.nan)


def _se(values: np.ndarray) -> np.ndarray:
    """``values.std(ddof=1, axis=-1) / sqrt(n)`` for n values a row, in the
    two passes of numpy's method, NaN for fewer than two values."""
    n = values.shape[-1]
    if n < 2:
        return np.full(values.shape[:-1], np.nan)
    d = values - (np.add.reduce(values, axis=-1) / n)[..., None]
    return np.sqrt(np.add.reduce(d * d, axis=-1) / (n - 1)) / math.sqrt(n)


def _groups(config: StudyConfig) -> list:
    """The (method, prior index) of every estimator the study runs, in row
    order: the MLE, then Lindley and importance sampling under each prior."""
    groups = [("mle", None)] if "mle" in config.methods else []
    for pi in range(len(config.priors)):
        groups += [(method, pi) for method in ("lindley", "is") if method in config.methods]
    return groups


def _is_record(config: StudyConfig, rs, pi: int, task: tuple):
    """The importance-sampling record under prior ``pi`` of the ``(cell,
    replicate)`` task, or None."""
    # child 0 of child 1 + pi of SeedSequence((base_seed, cell, replicate)),
    # the stream bayes_is reads from that child 1 + pi
    rng = np.random.default_rng(np.random.SeedSequence((config.base_seed, *task),
                                                       spawn_key=(1 + pi, 0)))
    try:
        res = bayes_is(rs, config.priors[pi], config.draws, rng, level=config.level)
    except _FIT_ERRORS:
        return None
    a, lam = res.alpha.hpd, res.lam.hpd
    return (res.alpha.mean, res.lam.mean, a.lower, lam.lower, a.upper, lam.upper)


def _batches(replicates: int, schemes: list):
    """The (cell, replicate) tasks in cell-major order, cut into batches:
    lists of ``(cell, reps)`` pieces.  A batch holds at most
    ``_CHUNK_VALUES`` values at the width of its widest cell, and at least
    one task."""
    batch, rows, width = [], 0, 0
    for cell, scheme in enumerate(schemes):
        start = 0
        while start < replicates:
            width = max(width, scheme.n)
            take = min(replicates - start, _CHUNK_VALUES // width - rows)
            if take < 1 and batch:
                yield batch
                batch, rows, width = [], 0, 0
                continue
            take = max(take, 1)
            batch.append((cell, range(start, start + take)))
            rows += take
            start += take
    if batch:
        yield batch


def _records(config, schemes, params, groups, batch) -> list:
    """The column blocks of the replicates of ``batch``, a list of ``(cell,
    reps)`` pieces: one ``(values, ok)`` per group, whose columns are the
    replicates in the order of the pieces and their replicates.

    ``values`` has a row for each of alpha and lambda, and for the MLE and
    importance sampling then rows for the lower bounds of their intervals
    and for the upper bounds; ``ok`` is False where the fit failed, and
    there the values are not read.  A replicate with fewer than two
    failures (r < 2) fails every group.  Row i of the batch's
    ``ReciprocalRows``, which are in the order of r, fills column
    ``order[i]``.  Importance sampling reads the sample that a batch of
    fewer than ``_ARRAY_FITS`` rows fits, so that the sample's cached
    logs and regression start are computed once."""
    size = sum(len(reps) for _, reps in batch)
    rows, order = _censor_rows(_pieces(config, schemes, params, batch))
    blocks = [(np.full((2 if method == "lindley" else 6, size), np.nan),
               np.zeros(size, dtype=bool)) for method, _ in groups]
    small = size < _ARRAY_FITS
    fitting = groups[0][0] != "is"      # row order puts the MLE and Lindley groups first
    sampled = [g for g, (method, _) in enumerate(groups) if method == "is"]
    if fitting and not small:
        _row_fits(config, groups, rows, order, blocks)
    if small or sampled:
        tasks = [(cell, rep) for cell, reps in batch for rep in reps]
        for i in np.flatnonzero(rows.r >= 2).tolist():
            k = order[i]
            rs = rows.sample(i)
            records = _sample_fits(config, groups, rs) if small and fitting else {}
            records.update((g, _is_record(config, rs, groups[g][1], tasks[k]))
                           for g in sampled)
            for g, record in records.items():
                if record is not None:
                    blocks[g][0][:, k] = record
                    blocks[g][1][k] = True
    return blocks


def _pieces(config, schemes, params, batch) -> list:
    """The ``(complete samples, scheme)`` piece of each ``(cell, reps)`` of
    ``batch``, for ``_censor_rows``: replicate i of the cell reads values
    ``[i * n, (i + 1) * n)`` of the cell's data stream, so one generator
    per piece, advanced past the cell's earlier replicates, fills the piece.
    The drawn matrices are freed once censored, before the fit, whose
    buffers set the batch's memory peak."""
    pieces = []
    for cell, reps in batch:
        scheme = schemes[cell]
        bits = np.random.PCG64(np.random.SeedSequence((config.base_seed, cell), spawn_key=(0,)))
        bits.advance(reps.start * scheme.n)
        pieces.append((_lifetimes(np.random.Generator(bits), (len(reps), scheme.n), params),
                       scheme))
    return pieces


def _sample_fits(config: StudyConfig, groups: list, rs) -> dict:
    """``{group index: record}`` for the MLE and Lindley groups on the
    sample ``rs``, a record ``_records``' column of values or None where the
    fit fails."""
    fitted = {g: None for g, (method, _) in enumerate(groups) if method != "is"}
    try:
        fit = fit_mle(rs)
    except _FIT_ERRORS:
        return fitted
    if any(groups[g][0] == "lindley" for g in fitted):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # as in lindley
            thirds = third_derivatives(fit.alpha_hat, fit.lam_hat, rs)      # for every prior
    for g in fitted:
        method, pi = groups[g]
        try:
            if method == "mle":
                a, lam, _ = asymptotic_ci(fit, config.level)
                fitted[g] = (fit.alpha_hat, fit.lam_hat, a.lower, lam.lower, a.upper, lam.upper)
            else:
                est = _estimate(fit, config.priors[pi], thirds)
                fitted[g] = (est.alpha_L, est.lambda_L)
        except _FIT_ERRORS:
            pass
    return fitted


def _row_fits(config: StudyConfig, groups: list, rows, order: np.ndarray, blocks: list) -> None:
    """Fills the blocks of the MLE and Lindley groups from fits of every row
    of ``rows`` at once, each group's columns put in task order by one
    permutation, ``order``."""
    fits = _fit_rows(rows)
    fitted = []
    if groups[0][0] == "mle":
        (lower_a, upper_a), (lower_l, upper_l), ok = _ci_rows(fits, config.level)
        fitted.append((0, (fits.alpha, fits.lam, lower_a, lower_l, upper_a, upper_l), ok))
    lindley = [g for g, (method, _) in enumerate(groups) if method == "lindley"]
    if lindley:
        for g, (alpha_L, lambda_L, ok) in zip(lindley, _lindley_rows(
                fits, rows, [config.priors[groups[g][1]] for g in lindley])):
            fitted.append((g, (alpha_L, lambda_L), ok))
    for g, columns, ok in fitted:
        blocks[g][0][:, order] = columns
        blocks[g][1][order] = ok


def run_study(config: StudyConfig) -> SimulationSummary:
    truth = np.array([[config.true_alpha], [config.true_lambda]])
    params = IwParams.from_rate(config.true_alpha, config.true_lambda)
    groups = _groups(config)
    rows: list[CellMetric] = []
    estimates: dict = {}
    lengths: dict = {}

    schemes = [HybridScheme(n=n, R=R, T=T) for n, T, R in config.cells]
    batches = [_records(config, schemes, params, groups, batch)
               for batch in _batches(config.replicates, schemes)]
    # each group's blocks over the batches, in task order: cell c is
    # columns [c * replicates, (c + 1) * replicates)
    merged = [[np.concatenate(parts, axis=-1) for parts in zip(*blocks)]
              for blocks in zip(*batches)]
    for cell_idx, scheme in enumerate(schemes):
        cols = slice(cell_idx * config.replicates, (cell_idx + 1) * config.replicates)
        for (method, pi), (values, ok) in zip(groups, merged):
            # the replicates that fitted, in replicate order: a row each for
            # the estimates, their squared errors and the interval lengths
            kept = np.ascontiguousarray(values[:, cols][:, ok[cols]])
            used = kept.shape[1]
            bounded = len(kept) == 6 and used > 0
            table = np.concatenate([kept[:2], (kept[:2] - truth) ** 2,
                                    kept[4:] - kept[2:4] if bounded else kept[:0]])
            mean, se = _mean(table), _se(table)
            prior = config.priors[pi].as_tuple() if pi is not None else None
            for i, parameter in enumerate(("alpha", "lambda")):
                rows.append(CellMetric(
                    n=scheme.n, T=scheme.T, R=scheme.R,
                    method=method, prior=prior, parameter=parameter,
                    average_estimate=float(mean[i]),
                    mse=float(mean[2 + i]),
                    avg_interval_length=float(mean[4 + i]) if bounded else None,
                    se_average=float(se[i]),
                    se_mse=float(se[2 + i]),
                    se_interval_length=float(se[4 + i]) if bounded else None,
                    replicates_used=used,
                    failures=config.replicates - used,
                ))
                estimates[(cell_idx, method, pi, parameter)] = table[i]
                if bounded:
                    lengths[(cell_idx, method, pi, parameter)] = table[4 + i]
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
