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
    y = np.log(-np.log((np.arange(1, r + 1) - 0.5) / n))
    out = y - y.mean() if r else y
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReciprocalSample:
    """Reciprocals ``x_i = 1/t_(i)`` of the observed failure times.

    The order follows ``times``, so ``x`` is nonincreasing with every entry
    ``>= 1/u``.  This is the working representation of the likelihood code:
    inverse Weibull data become Weibull data under ``t -> 1/t``.

    The logs that the likelihood code reads, and the regression start of the
    MLE and of the g2 tangent table, are computed once per sample and cached,
    so ``x`` must not be changed after construction.  ``r`` and ``n`` must be
    integers with 0 <= r <= n, ``x`` one-dimensional with r entries in (0,
    inf) and ``u`` in (0, inf); else DomainError.
    """

    x: np.ndarray
    u: float
    r: int
    n: int

    def __post_init__(self):
        # numpy integers are stored as the ints they hold, u as a float
        object.__setattr__(self, "r", _integer("r", self.r))
        object.__setattr__(self, "n", _integer("n", self.n))
        if not 0 <= self.r <= self.n:
            raise DomainError(f"r must satisfy 0 <= r <= n, got r={self.r}, n={self.n}")
        object.__setattr__(self, "x", _positive("x", self.x))
        if self.x.shape != (self.r,):
            raise DomainError(f"x must hold the r={self.r} reciprocals in one dimension, "
                              f"got shape {self.x.shape}")
        object.__setattr__(self, "u", _real("u", self.u))
        if not 0.0 < self.u < np.inf:
            raise DomainError(f"u must be positive and finite, got {self.u}")

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
            # an exponent as long as x, as ReciprocalRows takes it
            total = float(np.power(self.x, np.full(self.r, alpha0)).sum())
        if not (np.isfinite(alpha0) and alpha0 > 0.05 and 0.0 < total < np.inf):
            alpha0, total = 1.0, float(self.x.sum())
        return alpha0, self.r / total


@dataclass(frozen=True)
class ReciprocalRows:
    """Many censored samples, one :class:`ReciprocalSample` a row, for the
    array path of the study harness.  The samples may come from designs of
    different n.

    Row i is segment i of the flat array ``x``: a lead slot holding 1, then
    the row's ``r[i]`` reciprocals; ``starts`` indexes the lead slots.  Each
    sum over the rows is one ``np.add.reduceat`` over the segments with a
    lead term of 0.0, which gives the bits of ``ndarray.sum`` over each
    row's own sample: numpy adds the pairwise sum of a segment's later terms
    to its first, as a reduction adds the pairwise sum to its identity 0.0.
    The logs of the lead slot are 0; other terms are set to 0.0 there.
    """

    x: np.ndarray
    u: np.ndarray
    r: np.ndarray
    n: np.ndarray

    @cached_property
    def starts(self) -> np.ndarray:
        """The index in ``x`` of each row's lead slot."""
        size = self.r + 1
        return np.cumsum(size) - size

    def sample(self, i: int) -> ReciprocalSample:
        """The sample of row i."""
        r, start = int(self.r[i]), int(self.starts[i]) + 1
        return ReciprocalSample(x=self.x[start:start + r].copy(), u=float(self.u[i]), r=r,
                                n=int(self.n[i]))

    def power_sums(self, alpha: np.ndarray, idx: np.ndarray, order: int) -> np.ndarray:
        """``[k, j]``, the sum of ``x**alpha[j] * (log x)**k`` over the sample of
        row ``idx[j]`` (idx increasing), for k = 0..order: the power sums of
        ``mle._derivatives`` on each row's sample, with the same bits."""
        x, logs, starts = self.x, self.log_x_powers[:order], self.starts
        if idx.size < self.r.size:
            # the rows' segments end to end; an increasing idx of r's size is every row,
            # and x itself spares the gathers (about 0.05 ms a call, five a study_mle batch)
            size = self.r[idx] + 1
            starts = np.cumsum(size) - size
            slots = np.arange(size.sum()) + np.repeat(self.starts[idx] - starts, size)
            x, logs = x.take(slots), logs.take(slots, axis=1)
        # x**alpha with an exponent as long as the values (the bits of one
        # sample's power wherever they sit), times the logs, 0 at the lead slots
        terms = np.empty((order + 1, x.size))
        np.power(x, np.repeat(alpha, self.r[idx] + 1), out=terms[0])
        terms[0, starts] = 0.0
        np.multiply(logs, terms[0], out=terms[1:])
        return np.add.reduceat(terms, starts, axis=-1)

    @cached_property
    def last(self) -> np.ndarray:
        """Each row's last value, 1.0 where r = 0."""
        return self.x[self.starts + self.r]

    @cached_property
    def all_equal(self) -> np.ndarray:
        """True where a row's r values are all equal, so also where r <= 1."""
        same = self.x == np.repeat(self.last, self.r + 1)
        same[self.starts] = True
        return np.logical_and.reduceat(same, self.starts)

    @cached_property
    def log_x(self) -> np.ndarray:
        """``log x``, a view of ``log_x_powers[0]``."""
        return self.log_x_powers[0]

    @cached_property
    def log_x_powers(self) -> np.ndarray:
        """``[k - 1] = (log x)**k`` for k = 1..3, the powers of
        ReciprocalSample's ``log_x_powers`` but for the ones of k = 0, each
        flat like ``x`` (the cubes as the products of the squares and log x)."""
        out = np.empty((3, self.x.size))
        lx = np.log(self.x, out=out[0])
        np.square(lx, out=out[1])
        np.multiply(out[1], lx, out=out[2])
        return out

    @cached_property
    def sum_log_x(self) -> np.ndarray:
        return np.add.reduceat(self.log_x, self.starts)

    @cached_property
    def log_u(self) -> np.ndarray:
        return np.log(self.u)

    @cached_property
    def regression_start(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`ReciprocalSample.regression_start` of every row, as two
        arrays (NaN where r < 2)."""
        # two terms a slot, 0.0 at the lead slots, summed by one reduceat:
        # the squares of the centred log x and their products with the
        # positions, then x**slope and x
        starts, size, lead = self.starts, self.r + 1, np.zeros(1)
        pair = np.empty((2, self.x.size))
        positions = np.concatenate([a for r, n in zip(self.r.tolist(), self.n.tolist())
                                    for a in (lead, _centred_positions(r, n))])
        with np.errstate(all="ignore"):
            # the mean is the sum of log x over r, as ndarray.mean computes it
            cx = self.log_x - np.repeat(self.sum_log_x / self.r, size)
            cx[starts] = 0.0
            np.square(cx, out=pair[0])
            np.multiply(cx, positions, out=pair[1])
            denom, cross = np.add.reduceat(pair, starts, axis=-1)
            slope = np.where(denom > 0, cross / denom, 1.0)
            np.power(self.x, np.repeat(slope, size), out=pair[0])
            pair[1] = self.x
            pair[:, starts] = 0.0
            total, x_sum = np.add.reduceat(pair, starts, axis=-1)
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


def _censor_rows(pieces) -> ReciprocalRows:
    """:func:`apply_scheme` and :func:`reciprocals` on every row of each
    ``(complete samples, scheme)`` piece, a matrix of samples of
    ``scheme.n`` lifetimes each, with the same bits.  Returns the
    :class:`ReciprocalRows` of all the pieces' rows, in order."""
    srt, r, u = zip(*(_stop(times, scheme) for times, scheme in pieces))
    segments = []
    for t, k in zip(srt, r):
        # each row's segment: the lead slot, then its k observed times
        led = np.hstack((np.ones((len(t), 1)), t))
        segments.append(led[np.arange(led.shape[1]) <= k[:, None]])
    x = np.concatenate(segments)
    n = np.concatenate([np.full(len(times), scheme.n) for times, scheme in pieces])
    return ReciprocalRows(x=np.divide(1.0, x, out=x), u=np.concatenate(u), r=np.concatenate(r),
                          n=n)


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
