"""Type-I hybrid censoring: stop at the R-th failure or at time T, whichever
comes first, and record the failures observed up to that point."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, _data, _integer, _positive, _real

__all__ = ["HybridScheme", "HybridSample", "ReciprocalSample", "apply_scheme", "reciprocals"]


@dataclass(frozen=True)
class HybridScheme:
    """Test design: ``n`` units on test, failure budget ``R``, time budget ``T``.

    ``T = inf`` is the conventional way to express "no time limit", which with
    ``R = n`` reduces to a complete sample.
    """

    n: int
    R: int
    T: float

    def __post_init__(self):
        # a numpy integer is stored as the int it holds, a fraction rejected,
        # and T as a float
        object.__setattr__(self, "n", _integer("n", self.n, 1))
        object.__setattr__(self, "R", _integer("R", self.R))
        object.__setattr__(self, "T", _real("T", self.T))
        if not 1 <= self.R <= self.n:
            raise DomainError(f"R must satisfy 1 <= R <= n, got R={self.R}, n={self.n}")
        if not self.T > 0:
            raise DomainError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class HybridSample:
    """Observed portion of a censored test.

    ``times`` holds the ``r`` ascending failure times, every one ``<= u``.
    The censoring terminus ``u`` is the R-th failure time when that failure
    occurred within the time budget, and ``T`` otherwise; the remaining
    ``n - r`` units survived past ``u``.
    """

    times: np.ndarray
    r: int
    u: float
    scheme: HybridScheme

    @property
    def n(self) -> int:
        return self.scheme.n


@lru_cache(maxsize=128)
def _centred_positions(r: int, n: int) -> np.ndarray:
    """``y - mean(y)`` for the plotting positions ``y = log(-log((i -
    0.5)/n))``, i = 1..r, of :attr:`ReciprocalSample.regression_start`.
    Read-only: every sample with this (r, n) shares it."""
    i = np.arange(1, r + 1)
    y = np.log(-np.log((i - 0.5) / n))
    out = y - y.mean()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReciprocalSample:
    """Reciprocals ``x_i = 1/t_(i)`` of the observed failure times.

    The order follows ``times``, so ``x`` is nonincreasing with every entry
    ``>= 1/u``.  This is the working representation of the likelihood code:
    inverse Weibull data become Weibull data under ``t -> 1/t``.

    The logs that the likelihood code reads, and the regression start of the
    MLE and of the g2 mode search, are computed once per sample and cached, so
    ``x`` must not be changed after construction.
    """

    x: np.ndarray
    u: float
    r: int
    n: int

    @cached_property
    def log_x(self) -> np.ndarray:
        return np.log(self.x)

    @cached_property
    def log_x_powers(self) -> np.ndarray:
        """Rows ``(log x)**k`` for k = 0..3, so that one product with
        ``x**alpha`` and one row sum give the power sums ``S_0..S_3``.  The
        cube is the product of the square and log x."""
        lx = self.log_x
        out = np.empty((4, lx.size))
        out[0] = 1.0
        out[1] = lx
        np.square(lx, out=out[2])
        np.multiply(out[2], lx, out=out[3])
        return out

    @cached_property
    def log_x_max(self) -> float:
        return float(self.log_x.max())

    @cached_property
    def log_x_shifted(self) -> np.ndarray:
        """``log x - max log x``: its exponential times alpha has largest term 1."""
        return self.log_x - self.log_x_max

    @cached_property
    def sum_log_x(self) -> float:
        return float(self.log_x.sum())

    @cached_property
    def log_u(self) -> float:
        return float(np.log(self.u))

    @cached_property
    def regression_start(self) -> tuple[float, float]:
        """``(alpha0, lam0)`` from regressing log(-log F_hat) on log x over
        the observed portion.

        Plotting positions (i - 0.5)/n estimate F at t_(i); under the model
        log(-log F) = log(lam) + alpha*log(x), so the slope estimates alpha.
        alpha0 is 1 when the slope is useless or x**alpha0 under- or
        overflows, and lam0 = r / sum x**alpha0.
        """
        lx = self.log_x
        cx = lx - lx.mean()
        with np.errstate(all="ignore"):
            denom = (cx ** 2).sum()
            alpha0 = (float((cx * _centred_positions(self.r, self.n)).sum() / denom)
                      if denom > 0 else 1.0)
            total = float(np.power(self.x, alpha0).sum())
        if not (np.isfinite(alpha0) and alpha0 > 0.05 and 0.0 < total < np.inf):
            alpha0, total = 1.0, float(self.x.sum())
        return alpha0, self.r / total


@dataclass(frozen=True)
class ReciprocalRows:
    """Many censored samples, one :class:`ReciprocalSample` a row, for the
    array path of the study harness.  The samples may come from designs of
    different n.

    Row i holds ``x[i, :r[i]]`` of its ``n[i]`` units and is padded with ones
    to the width of ``x``; the rows are ordered by r.  numpy's pairwise sum
    rounds by length, so each sum along rows reduces a slice ``[:, :r]`` of
    the rows of equal r, which gives the bits of the same sum over
    ``ReciprocalSample.x``.
    """

    x: np.ndarray
    u: np.ndarray
    r: np.ndarray
    n: np.ndarray

    def sample(self, i: int) -> ReciprocalSample:
        """The sample of row i."""
        r = int(self.r[i])
        return ReciprocalSample(x=self.x[i, :r].copy(), u=float(self.u[i]), r=r,
                                n=int(self.n[i]))

    def runs(self, idx=slice(None), *keys) -> list:
        """``(start, stop, r)`` for each run of equal r, and of equal
        ``keys`` (arrays over the same rows) where given, in the rows
        ``idx``, all rows or an increasing index array: ``idx[start:stop]``
        are the rows of the run."""
        r = self.r[idx]
        change = r[1:] != r[:-1]
        for key in keys:
            change |= key[1:] != key[:-1]
        cuts = [0, *(np.flatnonzero(change) + 1).tolist(), r.size]
        return [(a, b, int(r[a])) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]

    def row_sums(self, values: np.ndarray, idx=slice(None)) -> np.ndarray:
        """The sums over the last axis of ``values``, whose first axis runs
        over the rows ``idx``, of each row's r entries: one reduction for
        each run of equal r."""
        out = np.empty(values.shape[:-1])
        for a, b, r in self.runs(idx):
            np.add.reduce(values[a:b, ..., :r], axis=-1, out=out[a:b])
        return out

    @cached_property
    def held(self) -> np.ndarray:
        """True at the entries of ``x`` that a row holds, False in the padding."""
        return np.arange(self.x.shape[1]) < self.r[:, None]

    @cached_property
    def log_x(self) -> np.ndarray:
        """``log x``, a view of ``log_x_powers[0]``."""
        return self.log_x_powers[0]

    @cached_property
    def log_x_powers(self) -> np.ndarray:
        """``[k - 1] = (log x)**k`` for k = 1..3, the powers of
        ReciprocalSample's ``log_x_powers`` but for the ones of k = 0, each
        a matrix like ``x`` (the cubes, the products of the squares and log
        x, only where a row holds x)."""
        out = np.zeros((3, *self.x.shape))
        lx = np.log(self.x, out=out[0])
        np.square(lx, out=out[1])
        np.multiply(out[1], lx, out=out[2], where=self.held)
        return out

    @cached_property
    def sum_log_x(self) -> np.ndarray:
        return self.row_sums(self.log_x)

    @cached_property
    def log_u(self) -> np.ndarray:
        return np.log(self.u)

    @cached_property
    def regression_start(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`ReciprocalSample.regression_start` of every row, as two
        arrays (NaN where r < 2)."""
        # two terms a row, summed by one row_sums: first the squares of the
        # centred log x and their products with the positions, then x**slope and x
        pair = np.zeros((self.r.size, 2, self.x.shape[1]))
        positions = pair[:, 1]
        for a, b, r in self.runs(slice(None), self.n):
            if r >= 2:
                positions[a:b, :r] = _centred_positions(r, int(self.n[a]))
        with np.errstate(all="ignore"):
            # the mean is the sum of log x over r, as ndarray.mean computes it
            cx = self.log_x - (self.sum_log_x / self.r)[:, None]
            np.square(cx, out=pair[:, 0])
            positions *= cx
            denom, cross = self.row_sums(pair).T
            slope = np.where(denom > 0, cross / denom, 1.0)
            np.power(self.x, slope[:, None], out=pair[:, 0])
            pair[:, 1] = self.x
            total, x_sum = self.row_sums(pair).T
            bad = ~(np.isfinite(slope) & (slope > 0.05) & (0.0 < total) & (total < np.inf))
            alpha0 = np.where(bad, 1.0, slope)
            lam0 = self.r / np.where(bad, x_sum, total)
        few = self.r < 2
        alpha0[few] = lam0[few] = np.nan
        return alpha0, lam0


def apply_scheme(complete_times, scheme: HybridScheme) -> HybridSample:
    """Censor a complete sample of ``scheme.n`` failure times.

    Sorts ascending, then truncates at ``u = min(t_(R), T)``.  A failure
    exactly at ``T`` counts as observed.  When the R-th failure occurs within
    the budget, exactly ``R`` failures are kept even if further ties at
    ``t_(R)`` exist: the test stops at that failure event.
    """
    times = _data("complete failure times", complete_times)
    if times.size != scheme.n:
        raise DomainError(
            f"expected exactly {scheme.n} complete failure times, got {times.size}"
        )
    srt, r, u = _stop(times, scheme)
    return HybridSample(times=srt[:r].copy(), r=int(r), u=float(u), scheme=scheme)


def _stop(complete_times: np.ndarray, scheme: HybridScheme) -> tuple:
    """``(sorted times, r, u)`` for each complete sample along the last axis
    of ``complete_times``: it stops at its R-th failure where that is within
    T, so u = min(t_(R), T) and r, the failures up to u, is the least of R
    and the failures within T."""
    srt = np.sort(complete_times, axis=-1)
    # each sample's least and greatest value, where NaN sorts last
    if not ((srt[..., 0] > 0.0) & (srt[..., -1] < np.inf)).all():
        raise DomainError("failure times must be strictly positive and finite")
    return (srt, np.minimum((srt <= scheme.T).sum(axis=-1), scheme.R),
            np.minimum(srt[..., scheme.R - 1], scheme.T))


def _censor_rows(pieces) -> tuple:
    """:func:`apply_scheme` and :func:`reciprocals` on every row of each
    ``(complete samples, scheme)`` piece, a matrix of samples of
    ``scheme.n`` lifetimes each, with the same bits.  Returns the
    :class:`ReciprocalRows` of all the pieces' rows, as wide as the widest,
    and, for each of its rows, the index of the row it came from in the
    pieces' rows taken in order."""
    srt, r, u = zip(*(_stop(times, scheme) for times, scheme in pieces))
    r, u = np.concatenate(r), np.concatenate(u)
    n = np.concatenate([np.full(len(times), scheme.n) for times, scheme in pieces])
    order = np.argsort(r, kind="stable")
    x = np.ones((r.size, n.max()))
    start = 0
    for block in srt:
        x[start:start + len(block), :block.shape[1]] = block
        start += len(block)
    x, r = x[order], r[order]
    np.divide(1.0, x, out=x)
    x[np.arange(x.shape[1]) >= r[:, None]] = 1.0
    return ReciprocalRows(x=x, u=u[order], r=r, n=n[order]), order


def reciprocals(s: HybridSample) -> ReciprocalSample:
    """Map observed times to their reciprocals, carrying (u, r, n) through.

    The sample must be one that :func:`apply_scheme` could return: ``r``
    failure times, at most n, ascending, positive and finite, none beyond
    a positive and finite ``u``.  Else DomainError."""
    times = _positive("failure times", s.times)
    if times.ndim != 1 or times.size != s.r or s.r > s.n:
        raise DomainError(f"a sample of r={s.r} failures among n={s.n} units needs r <= n "
                          f"failure times in one dimension, got shape {times.shape}")
    if not (0.0 < s.u < np.inf and (times[1:] >= times[:-1]).all()
            and (times[-1:] <= s.u).all()):
        raise DomainError(f"failure times must be ascending and at most u={s.u}, "
                          "which must be positive and finite")
    return ReciprocalSample(x=1.0 / times, u=s.u, r=s.r, n=s.n)
