"""Exact posterior machinery for hybrid censored inverse Weibull data.

Under independent gamma priors the joint posterior of (alpha, lam) factors as

    pi(alpha, lam | data)  propto  g1(lam | alpha) * g2(alpha) * h(alpha, lam)

where g1 is Gamma(r + c, rate d + sum(x_i**alpha)), g2 is a proper log-concave
density on alpha, and h = (1 - exp(-lam * u**-alpha))**(n-r) carries the
censoring information.  Posterior summaries are computed by importance
sampling: draw alpha from g2 (rejection from one envelope of tangents, which
the log-concavity makes an upper bound), lam from g1 given alpha, and weight
each pair by h.  Weighted step-function quantiles give credible bounds, and
the highest-density interval is the shortest of the candidate quantile
windows.  g2, its slope and the g1 rate read ``log(d + sum x**alpha)`` and
the ratio ``sum x**alpha * log x / (d + sum x**alpha)`` from log-sum-exp
sums over the sample's cached ``log x - max log x``, and each lam is drawn
with the g1 rate of the round that accepted its alpha; h takes ``q`` from
the likelihood kernel's censoring helper.

One array core runs importance-sampling records (a sample, a prior and a
generator each) together: ``sample_g2``, ``posterior_draws`` and
``bayes_is`` are calls of one record, and the study harness runs every
record of a batch in one call of :func:`_is_rows`.  Each record keeps its
sample's own cached arrays, and one routine, :func:`_blocked_exp_sums`,
sums over the samples a record at a time, for the tangent tables and the
rounds alike; only a round's proposals are rows padded to the widest, and
the padding is never read.  So each record's sums, draws and summaries
have the bits of the record run alone, and each record draws from its own
generator in the order of a lone record.  The records run in groups of at
most ``_GROUP_VALUES`` proposals (or table points) a round, so that each
array of a round holds at most 16,384 values however many records a batch
has.  Each proposal finds its envelope segment through a guide table of 2
x 64 equal cells of the cumulative mass, with one comparison where a cell
holds at most one segment end, and the summaries sort positive draws as
float keys that carry their index.  The groups of one call reuse one
workspace (:class:`_Work`) for the arrays of their rounds and summaries.

The core runs with numpy's ufunc buffers at ``_BUFSIZE`` elements
(:class:`_SmallBuffers`, which restores the caller's size): at numpy's
default, every product that broadcasts a column along rows of fewer than
2,731 elements, as each record's exponents and each row's terms of g2 do,
goes through the buffered iterator, several times slower per element, with
the same bits.

A round's ``sum x**alpha`` over more than 5,461 proposals of one record
runs in blocks of at most 4,096 alphas, so M draws need r x 4,096 values
plus O(M), not r x M; such a record forms a group of its own.  Every block
has at least 2 columns and smaller arrays (every table, and every round at
1,000 draws) take one block, which keeps the bits of the one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from .censoring import ReciprocalSample
from .errors import (DegenerateWeightsError, DomainError, InsufficientDataError, NumericError,
                     _floats, _integer, _level, _positive, _real, _rng)
from .lindley import GammaPriors
from .mle import ConfidenceInterval, _censor_q

__all__ = [
    "PosteriorDraws",
    "BayesEstimate",
    "IsResult",
    "g2_log_density",
    "sample_g2",
    "sample_g1",
    "posterior_draws",
    "weighted_quantile",
    "hpd_interval",
    "bayes_is",
]


# ---------------------------------------------------------------------------
# conditional and marginal posterior factors
# ---------------------------------------------------------------------------


class _Rows(NamedTuple):
    """The samples and priors of K records, one row each: ``lx`` holds each
    sample's cached log x and ``shifted`` its log x - max log x as an (r, 1)
    column, and the rest hold one value a row as (K, 1) columns."""

    lx: list
    shifted: list
    top: np.ndarray        # max log x
    slx: np.ndarray        # sum log x
    log_u: np.ndarray
    alpha0: np.ndarray     # the regression start
    r: np.ndarray
    n: np.ndarray
    shape: np.ndarray      # r + c, the shape of g1
    k: np.ndarray          # a + r - 1, the coefficient of log alpha in log g2
    b: np.ndarray
    d: np.ndarray
    log_d: np.ndarray      # log d, -inf where d = 0
    neg_shape: np.ndarray  # -(r + c)

    @classmethod
    def of(cls, samples: list, priors: list) -> "_Rows":
        """The rows of the samples (each with r >= 1) under their priors."""
        values = np.array([[s.log_x_max, s.sum_log_x, s.log_u, s.regression_start[0], s.r, s.n,
                            s.r + p.c, p.a + s.r - 1.0, p.b, p.d, -math.inf, -(s.r + p.c)]
                           for s, p in zip(samples, priors)]).T.copy()[:, :, None]
        np.log(values[9], out=values[10], where=values[9] > 0)
        return cls([s.log_x for s in samples], [s.log_x_shifted[:, None] for s in samples],
                   *values)

    def take(self, idx) -> "_Rows":
        """The rows ``idx`` (increasing)."""
        if len(idx) == len(self.lx):
            return self
        return _Rows([self.lx[i] for i in idx], [self.shifted[i] for i in idx],
                     *np.array(self[2:])[:, idx])


# the ufunc buffer size of the core, in elements: numpy's default of 8,192
# sends a product that broadcasts one operand along rows of fewer than
# 8,192 / 3 elements through its buffered iterator (tests/test_numpy_facts.py
# pins that the bits are the same at both sizes)
_BUFSIZE = 1024


class _SmallBuffers:
    """numpy's ufunc buffers at ``_BUFSIZE`` elements within the block, and
    the caller's size restored however the block exits."""

    def __enter__(self):
        self.old = np.setbufsize(_BUFSIZE)

    def __exit__(self, *exc):
        np.setbufsize(self.old)


class _Work:
    """The scratch arrays of one call, one a name, of 8-byte values (the
    arena holds float64, viewed as each name's dtype).  A name asked for more
    values than its place in the arena holds gets a new array, and
    :meth:`regroup`, which :func:`_is_rows` calls between groups, lays every
    name out at its largest size in one arena, of which the later groups
    take views.  So the groups of a call reuse one block of memory, which
    the heap would otherwise give back after each group and fault in again;
    one-record calls take :func:`_fresh`, which keeps nothing.  One block
    rather than a buffer a name, since glibc trims the top of its heap where
    the free memory there exceeds twice the largest block freed: buffers
    freed together at the end of a call went back to the system every call
    at 10,000 draws, and one arena does not."""

    def __init__(self):
        self.sizes, self.places, self.grown = {}, {}, False

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        place = self.places.get(name)
        if place is not None and place.size >= size:
            return place[:size].view(dtype).reshape(shape)
        if size > self.sizes.get(name, 0):
            self.sizes[name], self.grown = size, True
        return np.empty(shape, dtype)

    def regroup(self) -> None:
        """Lay every name out in one arena, if one has grown since the last."""
        if self.grown:
            arena, start = np.empty(sum(self.sizes.values())), 0
            for name, size in self.sizes.items():
                self.places[name], start = arena[start:start + size], start + size
            self.grown = False


def _fresh(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """The workspace of one-record calls: a new array each time."""
    return np.empty(shape, dtype)


# the sums of more than 4/3 of this many alphas (5,461) run through one buffer
# of r times at most this many exponentials, a block of alphas at a time
_ALPHA_BLOCK = 4096


def _blocked_exp_sums(rows: _Rows, alpha: np.ndarray, widths, order: int, work) -> np.ndarray:
    """``sum exp(alpha * (log x - max log x))`` over each row's sample at
    the first ``widths[i]`` elements of row i of ``alpha`` (K, w), and 1 at
    the rest, and for ``order`` 1 also ``sum exp(...) * log x`` there, 0 at
    the rest, as one (1 + order, K, w) array; ``widths`` None is every
    element.  For a row's ``shifted`` and ``a``, the bits of ``e =
    np.exp(np.multiply.outer(shifted, a))``, ``np.add.reduce(e, axis=0)``
    and ``log x @ e``, in the fewest blocks of at most ``_ALPHA_BLOCK``
    columns, of equal width to one column, through one buffer.

    The reduce adds the r terms of a block in order, column by column, so
    a block's sums are those of the whole array, provided the block has at
    least two columns: a one-column block is summed pairwise along r.  Up to
    5,461 columns (4/3 of ``_ALPHA_BLOCK``) take one block, the whole row,
    as every table of ``_TANGENTS`` points and every round at up to 5,120
    draws does.  More are cut into blocks at least 2,731 wide, so that the
    buffer, ``work``'s ``"exp"``, stays near r x ``_ALPHA_BLOCK`` values.
    """
    out = work("sums", (1 + order, *alpha.shape))
    if widths is None:
        widths = [alpha.shape[1]] * len(alpha)
    else:
        out[0].fill(1.0)
        out[1:].fill(0.0)
    blocks = [-(-w // _ALPHA_BLOCK) if 3 * w > 4 * _ALPHA_BLOCK else 1 for w in widths]
    buf = work("exp", (max([c.size * -(-w // n) for c, w, n in zip(rows.shifted, widths, blocks)]),))
    for i, (lx, col, w, n) in enumerate(zip(rows.lx, rows.shifted, widths, blocks)):
        for j in range(n):
            start, stop = w * j // n, w * (j + 1) // n
            e = buf[:col.size * (stop - start)].reshape(col.size, stop - start)
            np.multiply(col, alpha[i, start:stop], out=e)
            np.exp(e, out=e)
            np.add.reduce(e, axis=0, out=out[0, i, start:stop])
            if order:
                np.matmul(lx, e, out=out[1, i, start:stop])
    return out


def _g2_terms(alpha: np.ndarray, rows: _Rows, order: int, widths=None, work=_fresh) -> list:
    """``[log(d + S_0), log g2]`` at every element of each row of ``alpha``
    (K, w; > 0) for the same row of ``rows``, where ``S_k = sum x**alpha *
    (log x)**k``, and for ``order`` 1 also ``(log g2)' = -(r+c) S_1/(d +
    S_0) + (a+r-1)/alpha - b + sum log x``; only at the first ``widths[i]``
    elements of row i (all by default), the rest being padding that is not
    read.

    Sums ``exp(alpha * (log x - max log x))``, whose largest term is 1, by
    :func:`_blocked_exp_sums` and adds the shift back in logs, so nothing
    under- or overflows at any finite alpha.  ``d + S_0`` is the rate of g1.
    The sums, and the order-0 log rates, are arrays of ``work``.
    """
    sums = _blocked_exp_sums(rows, alpha, widths, order, work)
    total = sums[0]
    log_rate = np.log(total) if order else np.log(total, out=total)
    term = np.multiply(alpha, rows.top)
    log_rate += term
    proper = rows.d > 0.0
    any_proper = np.logical_or.reduce(proper, axis=None)
    if any_proper:
        np.logaddexp(rows.log_d, log_rate, out=log_rate, where=proper)
    h = rows.neg_shape * log_rate
    np.log(alpha, out=term)
    term *= rows.k
    h += term
    np.multiply(rows.b, alpha, out=term)
    h -= term
    np.add(alpha, 1.0, out=term)
    term *= rows.slx
    h += term
    if not order:
        return [log_rate, h]
    if any_proper:
        # d * exp(-alpha * max log x) overflows to inf, and is NaN where d = 0
        with np.errstate(over="ignore", invalid="ignore"):
            np.negative(alpha, out=term)
            term *= rows.top
            np.exp(term, out=term)
            term *= rows.d
            np.add(total, term, out=total, where=proper)
    slope = np.divide(sums[1], total, out=sums[1])
    slope *= rows.neg_shape
    np.divide(rows.k, alpha, out=term)
    slope += term
    slope -= rows.b
    slope += rows.slx
    return [log_rate, h, slope]


def g2_log_density(alpha, s: ReciprocalSample, priors: GammaPriors):
    """Unnormalized log density of the alpha-marginal proposal g2.

    log g2 = -(r+c)*log(d + sum x**alpha) + (a+r-1)*log(alpha) - b*alpha
             + (alpha+1)*sum(log x), up to an additive constant.  Concave in
    alpha because log(d + sum x**alpha) is convex.
    """
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    arr = _positive("alpha", alpha)
    out = _g2_terms(arr.reshape(1, -1), _Rows.of([s], [priors]), 0)[1].reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _lam_rows(log_rate: np.ndarray, gammas: np.ndarray) -> tuple:
    """``gammas / exp(log_rate)``, the lam draws of each row, in place of
    ``gammas``, and the :class:`NumericError` of each row where one
    overflows or underflows float64, keyed by row."""
    with np.errstate(over="ignore", divide="ignore"):
        lams = np.log(gammas, out=gammas)
        lams -= log_rate
        np.exp(lams, out=lams)
    bad = ~((lams > 0) & (lams < math.inf))
    if not np.logical_or.reduce(bad, axis=None):
        return lams, {}
    bad = np.count_nonzero(bad, axis=-1)
    return lams, {i: NumericError(
        f"{bad[i]} of {lams.shape[-1]} lam draws from g1 overflow or underflow float64: "
        f"the log rate log(d + sum x**alpha) reaches {np.min(log_rate[i]):.4g} "
        f"to {np.max(log_rate[i]):.4g} at these alphas") for i in np.flatnonzero(bad).tolist()}


def sample_g1(alpha, s: ReciprocalSample, priors: GammaPriors, seed):
    """Draw lam ~ g1(. | alpha): Gamma(r + c, rate d + sum x**alpha).

    The "scale" of the conditional gamma is a rate: the joint density carries
    exp(-lam * (d + sum x**alpha)).  ``alpha`` may be a scalar or an array of
    conditioning values (one draw each); ``seed`` may also be a Generator.
    A draw beyond the float64 range raises :class:`NumericError`.
    """
    shape = s.r + priors.c
    if shape <= 0:
        raise DomainError(f"gamma shape r + c must be positive, got {shape}")
    arr = _positive("alpha", alpha)
    log_rate = _g2_terms(arr.reshape(1, -1), _Rows.of([s], [priors]), 0)[0]
    gammas = np.asarray(_rng(seed).gamma(shape, 1.0, size=arr.shape))
    lams, failed = _lam_rows(log_rate, gammas.reshape(1, -1))
    if failed:
        raise failed[0]
    return float(lams[0, 0]) if arr.ndim == 0 else lams.reshape(arr.shape)


# ---------------------------------------------------------------------------
# rejection sampling from the log-concave g2 under one table of tangents
# ---------------------------------------------------------------------------


_TANGENTS = 64     # points of the tangent table, evenly spaced in log alpha
_DROP = 40.0       # the table spans where log g2 is within this of its top
_IMPROPER = "the alpha posterior is improper for these data and priors"
_SLOPE_ROUNDING = 8.0 * math.ulp(1.0)   # relative rounding of (log g2)'
# a group's round proposes at most this many alphas, and its table search
# evaluates at most this many points, over all its records
_GROUP_VALUES = 1 << 14


_STEPS = np.arange(_TANGENTS, dtype=float)


def _grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_TANGENTS`` points evenly spaced from each ``lo`` to its ``hi``:
    the bits of ``np.linspace(lo, hi, _TANGENTS, axis=-1)``."""
    out = _STEPS * ((hi - lo) / (_TANGENTS - 1))[:, None]
    out += lo[:, None]
    out[:, -1] = hi
    return out


def _tangent_tables(rows: _Rows) -> tuple:
    """``(alpha, log g2, (log g2)')`` of each row, at ``_TANGENTS`` points
    evenly spaced in log alpha over where log g2 is within ``_DROP`` of its
    top, and the error of each row that has no table, keyed by row.

    A row's table starts at log alpha0 - 3 to log alpha0 + 3 about the
    regression start.  An end where log g2 is within ``_DROP`` of the
    table's highest value, or an upper end where it still rises, moves out
    by the table's width, within -80 <= log alpha <= 80; the lower end stops
    at -80 where g2 does not vanish at 0.  Each step evaluates the rows
    that still move as one array.  Once both ends lie below, a table with
    fewer than three quarters of its points within shrinks once, to those
    points and one more on each side.  An improper g2 is an
    :class:`InsufficientDataError`: a slope that turns negative where
    (a+r-1)/alpha is below the rounding of its other terms, a false turn of
    a rising log g2, or an upper end at e^80 where it still rises.  A g2
    that turns over but has not fallen ``_DROP`` by e^80 is proper, with its
    mass beyond the table's range: a :class:`NumericError`.
    """
    count = len(rows.lx)
    k = rows.k[:, 0].tolist()
    rounding = (_SLOPE_ROUNDING * (np.abs(rows.shape * rows.top) + np.abs(rows.slx)
                                   + rows.b))[:, 0].tolist()
    lo = [math.log(a) - 3.0 for a in rows.alpha0[:, 0].tolist()]
    hi = [v + 6.0 for v in lo]
    table = np.empty((3, count, _TANGENTS))
    failed, shrink = {}, []
    # the records of the rows still moving, and those rows
    active, sub = list(range(count)), rows
    while True:
        eta = _grid(np.array([lo[row] for row in active]), np.array([hi[row] for row in active]))
        alpha = np.exp(eta)
        _, h, d = _g2_terms(alpha, sub, 1)
        inside = h >= np.maximum.reduce(h, axis=1, keepdims=True) - _DROP
        # the first point where the slope turns, flat in the table
        turn = (d <= 0.0).argmax(axis=1)
        turn += np.arange(0, d.size, _TANGENTS)
        facts = np.array([inside.argmax(axis=1), inside[:, ::-1].argmax(axis=1),
                          alpha.take(turn), d.take(turn), d[:, -1], alpha[:, -1]]).tolist()
        done, moving = [], []
        for n, (row, i, j, turn_alpha, turn_d, last_d, last_alpha) in enumerate(
                zip(active, *facts)):
            i, j = int(i), _TANGENTS - 1 - int(j)
            if turn_d <= 0.0 and k[row] > 0 and k[row] / turn_alpha <= rounding[row]:
                failed[row] = InsufficientDataError(
                    f"{_IMPROPER}: the slope of log g2 vanishes only to rounding at "
                    f"alpha={turn_alpha:.3g}")
                continue
            low = i == 0 and lo[row] > -80.0
            high = j == _TANGENTS - 1 or not last_d < 0.0
            if not (low or high):
                if 4 * (j - i) < 3 * _TANGENTS:
                    shrink.append((row, eta[n, max(i - 1, 0)], eta[n, j + 1]))
                else:
                    done.append(n)
            elif high and hi[row] >= 80.0:
                failed[row] = NumericError(
                    f"g2 turns over but has not fallen {_DROP:g} below its top by alpha=e^80, "
                    "the end of the sampler's range, so its mass lies beyond the draws it "
                    "can make") if last_d < 0.0 else InsufficientDataError(
                    f"{_IMPROPER}: log g2 is still rising at alpha={last_alpha:.3g}")
            else:
                width = hi[row] - lo[row]
                if low:
                    lo[row] = max(lo[row] - width, -80.0)
                if high:
                    hi[row] = min(hi[row] + width, 80.0)
                moving.append(n)
        if done:
            table[:, [active[n] for n in done]] = np.array((alpha, h, d))[:, done]
        if not moving:
            break
        if len(moving) < len(active):
            active, sub = [active[n] for n in moving], sub.take(moving)
    if shrink:
        idx, start, stop = map(list, zip(*sorted(shrink)))
        alpha = np.exp(_grid(np.array(start), np.array(stop)))
        terms = np.array((alpha, *_g2_terms(alpha, rows.take(idx), 1)[1:]))
        if len(idx) < count:
            table[:, idx] = terms
        else:
            table = terms
    return table, failed


def _envelope(x: np.ndarray, h: np.ndarray, d: np.ndarray) -> tuple:
    """The inverse-cdf columns of the piecewise-exponential envelope under
    the tangents ``h + d * (t - x)`` of a concave log density at the
    increasing points of each row of ``x`` (K, k), and the error of each
    row whose envelope has no finite mass, keyed by row.

    Segment j runs from ``z[j]`` to ``z[j + 1]``, where its tangent meets
    its neighbours' (0 and inf at the ends, and halfway between the points
    where two slopes differ by at most 1e-14).  Its envelope is highest at
    ``start``, where its log is ``peak``, and a proposal at the uniform xi
    lies below it by ``log1p(xi * fall)``, ``fall = expm1(-|d| * width)``.
    A segment over which the tangent changes by less than 1e-12 is flat: it
    proposes uniformly under the constant ``exp(peak)``, and its ``fall`` is
    0.  ``cum`` holds the cumulative masses over their largest term, and
    ``guide`` the guide table of :func:`_segments` over them; where the
    masses are not finite and positive, an :class:`InsufficientDataError`.
    """
    z = np.empty((len(x), x.shape[1] + 1))
    z[:, 0], z[:, -1] = 0.0, math.inf
    gap = d[:, :-1] - d[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(h[:, 1:] - h[:, :-1] + x[:, :-1] * d[:, :-1] - x[:, 1:] * d[:, 1:], gap,
                  out=z[:, 1:-1])
        near = gap <= 1e-14
        if np.logical_or.reduce(near, axis=None):
            np.copyto(z[:, 1:-1], 0.5 * (x[:, :-1] + x[:, 1:]), where=near)
        del gap, near
        width = np.subtract(z[:, 1:], z[:, :-1])
        np.maximum(width, 0.0, out=width)
        start = np.where(d > 0.0, z[:, 1:], z[:, :-1])
        peak = start - x
        peak *= d
        peak += h
        slope = np.abs(d)
        fall = slope * width
        np.negative(fall, out=fall)
        flat = fall > -1e-12          # |d| * width < 1e-12
        np.expm1(fall, out=fall)
        logmass = np.divide(fall, slope, out=slope)
        np.negative(logmass, out=logmass)
        if np.logical_or.reduce(flat, axis=None):
            np.copyto(logmass, width, where=flat)
            fall[flat] = 0.0
        else:
            flat = None
        np.log(logmass, out=logmass)
        logmass += peak
        logmass -= np.maximum.reduce(logmass, axis=1, keepdims=True)
        cum = np.add.accumulate(np.exp(logmass, out=logmass), axis=1, out=logmass)
    total = cum[:, -1]
    failed = {} if (np.minimum.reduce(total, initial=math.inf) > 0.0
                    and np.maximum.reduce(total, initial=0.0) < math.inf) else {
        i: InsufficientDataError(f"{_IMPROPER}: the envelope of g2 has no finite mass")
        for i in (~((0.0 < total) & (total < math.inf))).nonzero()[0].tolist()}
    return {"cum": cum, **_guide(cum), "z": z, "width": width, "start": start, "peak": peak,
            "fall": fall, "d": d, "flat": flat}, failed


def _guide(cum: np.ndarray) -> dict:
    """The guide table of :func:`_segments` over each row of the cumulative
    masses ``cum`` (K, k): for the 2k equal cells of ``[0, cum[-1]]`` and
    the edge ``cum[-1]``, a column each, ``guide``, the count of the entries
    but the last up to the cell's lower edge ``c / 2k * cum[-1]`` (the
    clipped searchsorted), or -2 where the cell holds two or more of them
    (it is wide), and ``next``, the first entry above that edge, inf where
    the count is k - 1: so no key steps past the last segment."""
    size = cum.shape[1]
    cells = 2 * size
    edges = np.arange(cells + 1) / cells * cum[:, -1:]
    guide = np.empty(edges.shape, dtype=np.intp)
    for row, at, out in zip(cum, edges, guide):
        out[:] = row[:-1].searchsorted(at, side="right")
    del edges
    wide = guide[:, 1:] - guide[:, :-1] > 1
    after = cum.take(guide + np.arange(0, cum.size, size)[:, None])
    after[guide == size - 1] = math.inf
    guide[:, :-1][wide] = -2
    return {"guide": guide, "next": after, "total": cum[:, -1:]}


def _segments(env: dict, keys: np.ndarray) -> np.ndarray:
    """The segment of the cumulative masses ``env["cum"]`` (K, k) at each
    uniform in [0, 1] of the same row of ``keys`` (K, w), as a flat index
    of ``cum``: row i's index plus i * k, where its index is the one that
    ``searchsorted(cum, key * cum[-1], side="right")`` gives, clipped to
    k - 1.

    ``key * 2k`` is exact, so its floor is the key's cell c among the 2k
    equal cells of :func:`_guide`, and ``key * cum[-1]`` rounds to within
    the cell's edges, ``c / 2k * cum[-1]`` and the next.  So the index is
    the count of the entries up to the lower edge, plus one where the first
    entry above it is at most the key, if the cell holds at most one entry.
    The keys of a wide cell, such as an end cell, whose tail segments carry
    little mass, are searched in their row.
    """
    cum, guide = env["cum"], env["guide"]
    rows, size = cum.shape
    u = keys * env["total"]
    cell = (keys * (guide.shape[1] - 1)).astype(np.intp)
    if rows > 1:
        cell += np.arange(0, guide.size, guide.shape[1])[:, None]
    j = guide.take(cell)
    j += env["next"].take(cell) <= u
    wide = (j < 0).ravel().nonzero()[0]
    if rows > 1:
        j += np.arange(0, cum.size, size)[:, None]
    if wide.size:
        # the wide keys of row i are wide[cuts[i]:cuts[i + 1]]
        cuts = wide.searchsorted(np.arange(rows + 1) * keys.shape[1]).tolist()
        flat, key = j.reshape(-1), u.reshape(-1)[wide]
        for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
            if a < b:
                flat[wide[a:b]] = cum[i, :-1].searchsorted(key[a:b], side="right") + i * size
    return j


def _propose(env: dict, keys: np.ndarray, xi: np.ndarray) -> tuple:
    """The draws from the envelopes ``env`` of :func:`_envelope` at the
    uniforms ``keys`` (a segment each) and ``xi`` (a point within it), of
    the same shape (K, w), and the log of the envelope at each."""
    j = _segments(env, keys)
    drop = env["fall"].take(j)
    drop *= xi
    np.log1p(drop, out=drop)
    t = env["d"].take(j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(drop, t, out=t)
    t += env["start"].take(j)
    if env["flat"] is not None:
        flat = env["flat"].take(j)
        jf = j[flat]
        # z has one column more than the segments: row i starts at i * (size + 1)
        t[flat] = env["z"].take(jf + jf // env["cum"].shape[1]) + xi[flat] * env["width"].take(jf)
    drop += env["peak"].take(j)
    return t, drop


def _draw_buffers(count: int, rows: int = 1) -> np.ndarray:
    """An empty (2, rows, count) array for ``count`` draws of ``rows``
    records and their log rates; a count that cannot be allocated is a
    :class:`DomainError` naming it."""
    try:
        return np.empty((2, rows, count))
    except (ValueError, MemoryError):
        raise DomainError(f"{count} draws need {16 * count} bytes, which cannot be "
                          "allocated") from None


def _g2_rows(rows: _Rows, rngs: list, count: int, work) -> tuple:
    """``count`` exact draws from the normalized g2 of each row of ``rows``
    by rejection from one fixed envelope, each row from its generator in
    ``rngs``: the draws and their log g1 rates as one (2, K, count) array,
    the acceptance ratio and rounds of each row (lists), and the error of
    each row that could not draw, keyed by row.

    Builds the tables (:func:`_tangent_tables`) and the envelopes
    (:func:`_envelope`) once.  Then draws in rounds: each round proposes
    ``need + need // 16 + 4`` points a row that still needs draws, from
    two arrays of uniforms drawn from its generator (segment keys, then the
    points within the segments), evaluates log g2 on the proposals that
    are positive and finite and accepts with one comparison to the log of
    a third array of uniforms.  The rows of a round are padded to the
    widest, and the padding is never read.  One search finds the hits of
    every row, and each row copies its first hits, up to the draws it
    needs, straight into its draws.  The uniforms and the sums of a round
    are arrays of ``work``.
    """
    size = len(rows.lx)
    out = _draw_buffers(count, size)
    table, failed = _tangent_tables(rows)
    # ``at`` holds the record of each row of ``sub`` and ``env``
    at = [i for i in range(size) if i not in failed]
    env, no_mass = _envelope(*(table[:, at] if failed else table))
    sub = rows.take(at)
    filled, proposals, accepted, rounds = [[0] * size for _ in range(4)]
    keep = [i for i in range(len(at)) if i not in no_mass]
    failed.update((at[i], exc) for i, exc in no_mass.items())
    while keep:
        if len(keep) < len(at):
            at, sub = [at[i] for i in keep], sub.take(keep)
            env = {key: None if v is None else v[keep] for key, v in env.items()}
        need = [count - filled[row] for row in at]
        widths = [m + m // 16 + 4 for m in need]
        width = max(widths)
        padded = width > min(widths)
        keys, xi = uniforms = work("uniforms", (2, len(at), width))
        if padded:
            uniforms.fill(0.0)
        streams = [rngs[row] for row in at]
        for rng, m, key, x in zip(streams, widths, keys, xi):
            rng.random(out=key[:m])
            rng.random(out=x[:m])
        t, log_env = _propose(env, keys, xi)
        held = widths
        if padded or not (np.minimum.reduce(t, axis=None) > 0.0
                          and np.maximum.reduce(t, axis=None) < math.inf):
            # the positive and finite proposals first, then padding at alpha = 1
            ok = (t > 0.0) & (t < math.inf) & (np.arange(width) < np.array(widths)[:, None])
            held = np.count_nonzero(ok, axis=1).tolist()
            for i, m in enumerate(held):
                t[i, :m], log_env[i, :m] = t[i, ok[i]], log_env[i, ok[i]]
                t[i, m:] = 1.0
            padded = width > min(held)
        lr, hval = _g2_terms(t, sub, 0, held if padded else None, work)
        # accept where log(uniform) + log envelope <= log g2
        level = work("level", (len(at), width))
        if padded:
            level.fill(1.0)
        for rng, m, row in zip(streams, held, level):
            rng.random(out=row[:m])
        np.log(level, out=level)
        level += log_env
        hit = level <= hval
        if padded:
            hit &= np.arange(width) < np.array(held)[:, None]
        # each row's first hits, up to the draws it needs, after its draws so far:
        # row i's hits are pos[edges[i]:edges[i + 1]]
        pos = hit.ravel().nonzero()[0]
        edges = pos.searchsorted(np.arange(0, hit.size + 1, width)).tolist()
        keep = []
        for i, (row, a, b, m, n) in enumerate(zip(at, edges, edges[1:], need, held)):
            use, f = min(b - a, m), filled[row]
            t.take(pos[a:a + use], out=out[0, row, f:f + use], mode="clip")
            lr.take(pos[a:a + use], out=out[1, row, f:f + use], mode="clip")
            filled[row] += use
            proposals[row] += n
            accepted[row] += b - a
            rounds[row] += 1
            if use < m:
                keep.append(i)
    return out, [a / max(p, 1) for a, p in zip(accepted, proposals)], rounds, failed


def sample_g2(
    count: int,
    s: ReciprocalSample,
    priors: GammaPriors,
    seed,
) -> tuple[np.ndarray, dict]:
    """Exact draws from the normalized g2 by rejection from one fixed envelope.

    Builds the table of ``_TANGENTS`` tangents of log g2 over where it is
    within ``_DROP`` of its top (:func:`_tangent_tables`) and the
    piecewise-exponential envelope under them (:func:`_envelope`), once.
    Then draws in rounds from that envelope: each round proposes ``need +
    need // 16 + 4`` points, evaluates log g2 on them at once and accepts
    with one comparison.  Deterministic for a given seed.  Returns the draws
    and a dict carrying the acceptance ratio (accepted over evaluated
    proposals, including accepted surplus the last round discards), the
    number of rounds, and ``log_rate``: log(d + sum x**alpha), the log g1
    rate, at each draw.
    """
    count = _integer("count", count, 1)
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    with _SmallBuffers():
        (draws, log_rate), acceptance, rounds, failed = _g2_rows(_Rows.of([s], [priors]),
                                                                 [_rng(seed)], count, _fresh)
    if failed:
        raise failed[0]
    return draws[0], {"acceptance_ratio": acceptance[0], "rounds": rounds[0],
                      "log_rate": log_rate[0]}


# ---------------------------------------------------------------------------
# weighted draws and summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorDraws:
    """Importance-sampled (alpha, lam) pairs with normalized weights."""

    alphas: np.ndarray
    lams: np.ndarray
    weights: np.ndarray
    acceptance_ratio: float = field(default=float("nan"), compare=False)

    @property
    def size(self) -> int:
        return int(self.alphas.size)

    @property
    def thetas(self) -> np.ndarray:
        return np.exp(-np.log(self.lams) / self.alphas)

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(w**2); equals M for equal weights."""
        return float(1.0 / (self.weights ** 2).sum())


@dataclass(frozen=True)
class BayesEstimate:
    mean: float
    variance: float
    hpd: ConfidenceInterval | None = None


@dataclass(frozen=True)
class IsResult:
    """The summaries of :func:`bayes_is`: alpha and lam from its call, and
    theta = lam**(-1/alpha) at its first read, from ``draws`` at ``level``.
    A failure of the theta summary (theta or its moments overflow, or its
    interval is degenerate) raises at that read, as the same typed error."""

    alpha: BayesEstimate
    lam: BayesEstimate
    draws: PosteriorDraws
    level: float = 0.95

    @cached_property
    def theta(self) -> BayesEstimate:
        # theta and its moments overflow to inf, which _summary_rows reports
        with np.errstate(over="ignore", invalid="ignore"):
            return _summary(self.draws.thetas, self.draws.weights, self.level)


class _Draws(NamedTuple):
    """The weighted draws of the records ``rows`` of a group that drew
    them: ``values`` (2, K, M) holds the alphas and then the lams, a row a
    record, and ``weights`` (K, M) their weights; and the error of every
    record of the group that failed, keyed by record."""

    rows: list
    values: np.ndarray
    weights: np.ndarray
    acceptance: list
    failed: dict


def _draw_rows(samples: list, priors: list, rngs: list, count: int, work) -> _Draws:
    """Steps 1-3 of the sampler for each record (a sample, its priors and
    its generator): alphas from g2 (:func:`_g2_rows`), then lams from g1,
    each with the g1 rate of its alpha, and weights from h.  Callers hold
    :class:`_SmallBuffers`.

    A record without a failure is an :class:`InsufficientDataError`, and a
    record fails where its g2 cannot be drawn, a lam is beyond the float64
    range (:class:`NumericError`) or all its weights underflow
    (:class:`DegenerateWeightsError`).  For complete samples the weights
    are exactly uniform.
    """
    failed = {i: InsufficientDataError("posterior sampling needs at least one failure")
              for i, s in enumerate(samples) if s.r < 1}
    live = [i for i in range(len(samples)) if i not in failed]
    if not live:
        return _Draws([], np.empty((2, 0, count)), np.empty((0, count)), [], failed)
    rows = _Rows.of([samples[i] for i in live], [priors[i] for i in live])
    values, acceptance, _, bad = _g2_rows(rows, [rngs[i] for i in live], count, work)
    # the rows of ``rows`` still drawing, and of ``values`` and the arrays after it
    keep = [i for i in range(len(live)) if i not in bad]
    if len(keep) < len(live):
        values = values[:, keep]
    gammas = work("gammas", (len(keep), count))
    for g, i in zip(gammas, keep):
        # Gamma(shape, scale 1), the draws and bits of rng.gamma(shape, 1.0)
        rngs[live[i]].standard_gamma(rows.shape[i, 0], out=g)
    lams, lam_bad = _lam_rows(values[1], gammas)
    # the lams take the place of the log rates they were drawn with
    values[1] = lams
    del gammas, lams
    if lam_bad:
        bad.update((keep[i], exc) for i, exc in lam_bad.items())
        ok = [i for i in range(len(keep)) if i not in lam_bad]
        keep, values = [keep[i] for i in ok], values[:, ok]
    # a complete sample (n = r) has log weights 0 * finite, so weights 1/count
    lw = _censor_q(values[0], values[1], rows.log_u[keep])[1]
    lw *= (rows.n - rows.r)[keep]
    lw -= np.maximum.reduce(lw, axis=1, keepdims=True)
    w = np.exp(lw, out=lw)
    total = np.add.reduce(w, axis=1, keepdims=True)
    if not np.minimum.reduce(total, axis=None, initial=math.inf) > 0.0:
        bad.update((keep[i], DegenerateWeightsError("all importance weights underflowed to zero"))
                   for i in np.flatnonzero(~(total[:, 0] > 0)).tolist())
        ok = np.flatnonzero(total[:, 0] > 0)
        keep, values, w, total = [keep[i] for i in ok.tolist()], values[:, ok], w[ok], total[ok]
    failed.update((live[i], exc) for i, exc in bad.items())
    w /= total
    return _Draws([live[i] for i in keep], values, w, [acceptance[i] for i in keep], failed)


def posterior_draws(
    s: ReciprocalSample,
    priors: GammaPriors,
    count: int,
    seed,
) -> PosteriorDraws:
    """Steps 1-3 of the sampler: alphas from g2, lams from g1, weights from h.

    Each lam is drawn with the g1 rate that :func:`sample_g2` computed for its
    alpha; a lam beyond the float64 range raises :class:`NumericError`.  The
    draws come from ``seed`` where it is a ``numpy.random.Generator``, and
    else from the first child of ``SeedSequence(seed)``, so they are
    reproducible for a given (seed, count), also when one ``SeedSequence`` is
    passed to several calls.  For complete samples the weights are exactly
    uniform.
    """
    if s.r < 1:
        raise InsufficientDataError("posterior sampling needs at least one failure")
    count = _integer("count", count, 2)
    with _SmallBuffers():
        out = _draw_rows([s], [priors], [_rng(seed, child=True)], count, _fresh)
    if out.failed:
        raise out.failed[0]
    return PosteriorDraws(out.values[0, 0], out.values[1, 0], out.weights[0],
                          acceptance_ratio=out.acceptance[0])


def _sorted_cum(v: np.ndarray, w: np.ndarray):
    """``v`` in ascending order and the cumulative weights in that order over
    their total, both as a stable sort gives them (:func:`_sorted_rows`).
    Raises :class:`DomainError` unless the weights are nonnegative and as
    many as the values (at least one)."""
    if v.size == 0 or v.shape != w.shape:
        raise DomainError("values and weights must be nonempty and equally long")
    if (w < 0).any():
        raise DomainError("weights must be nonnegative")
    vs, cum = _sorted_rows(v[None], w[None])
    return vs[0], cum[0]


def _sorted_rows(v: np.ndarray, w: np.ndarray, work=_fresh):
    """Each row of ``v`` (K, M) in ascending order and the cumulative
    weights of the same row of ``w`` in that order over their total, both
    as a stable sort gives them.

    Where every value is positive and finite, sorts one float64 key a
    value: its bits with the low ``b = bit_length(M - 1)`` replaced by its
    index, so that the keys are distinct and tied values stay in input
    order.  numpy sorts floats about three times faster than it argsorts
    them.  A row whose values do not come out nondecreasing (two values
    that differ only in their low b bits, out of order) is sorted again
    stably.  Otherwise the rows are argsorted with numpy's default (SIMD)
    sort, several times faster than the stable one at 10,000 values, and a
    row whose sorted values do not increase strictly (a tie, signed zeros
    or a NaN) is sorted again stably, so that tied values gather weight in
    their input order.  Weights that sum to zero in a row raise
    :class:`DegenerateWeightsError`.  The keys and both results are arrays
    of ``work``.
    """
    total = np.add.reduce(w, axis=-1, keepdims=True)
    if not np.minimum.reduce(total, axis=None, initial=math.inf) > 0.0:
        raise DegenerateWeightsError("weights sum to zero")
    m = v.shape[-1]
    keyed = np.minimum.reduce(v, axis=None) > 0.0 and np.maximum.reduce(v, axis=None) < math.inf
    if keyed:
        low = (m - 1).bit_length()
        keys = np.bitwise_and(v.view(np.uint64), np.uint64(2 ** 64 - (1 << low)),
                              out=work("keys", v.shape, np.uint64))
        keys |= np.arange(m, dtype=np.uint64)
        keys.view(np.float64).sort(axis=-1)
        keys &= np.uint64((1 << low) - 1)
        order = keys.view(np.intp)
    else:
        order = v.argsort(axis=-1)
    if len(v) > 1:
        order += np.arange(0, v.size, m)[:, None]
    vs = v.take(order, out=work("sorted", v.shape), mode="clip")
    # for the keys, equal values are in order; for argsort, only distinct ones
    ordered = vs[:, 1:] >= vs[:, :-1] if keyed else vs[:, 1:] > vs[:, :-1]
    ties = [] if np.logical_and.reduce(ordered, axis=None) else np.flatnonzero(
        ~ordered.all(axis=-1))
    if len(ties):
        order[ties] = np.argsort(v[ties], axis=-1, kind="stable") + ties[:, None] * v.shape[-1]
        vs[ties] = np.take(v, order[ties])
    cum = w.take(order, out=work("cum", v.shape), mode="clip")
    np.add.accumulate(cum, axis=-1, out=cum)
    cum /= total
    return vs, cum


def weighted_quantile(values, weights, beta: float) -> float:
    """Step-function quantile: the first ordered value whose cumulative weight
    reaches ``beta``.  ``beta = 0`` returns the smallest value; ties in the
    values accumulate weight in stable sorted order."""
    if not 0.0 <= _real("beta", beta) <= 1.0:
        raise DomainError(f"beta must be in [0, 1], got {beta}")
    v = _floats("values", values)
    vs, cum = _sorted_cum(v, _floats("weights", weights))
    idx = int(np.searchsorted(cum, beta, side="left"))
    return float(vs[min(idx, v.size - 1)])


@lru_cache(maxsize=16)
def _hpd_thresholds(m: int, level: float) -> np.ndarray:
    """The cumulative weights j/m at which the candidate windows of
    :func:`hpd_interval` start, then the (j + k)/m at which they end, for
    j = 1, ..., m - k and k = floor(level*m).  Read-only: calls share it."""
    k = int(np.floor(level * m))
    js = np.arange(1, m - k + 1)
    out = np.concatenate((js / m, (js + k) / m))
    out.flags.writeable = False
    return out


def _check_count(m: int, level: float) -> None:
    if m * level < 2:
        raise DomainError(f"need M*level >= 2, got M={m}, level={level}")


def _hpd_rows(vs: np.ndarray, cum: np.ndarray, level: float) -> tuple:
    """The lower and upper ends of the shortest candidate window of each
    row of the sorted values ``vs`` under the cumulative weights ``cum`` of
    :func:`_sorted_rows`, one search of the thresholds a row."""
    m = vs.shape[-1]
    thresholds = _hpd_thresholds(m, level)
    ends = np.empty((len(vs), thresholds.size), dtype=np.intp)
    for i, row in enumerate(cum):
        ends[i] = row.searchsorted(thresholds, side="left")
    np.minimum(ends, m - 1, out=ends)
    half = thresholds.size // 2
    if len(vs) > 1:
        ends += np.arange(0, vs.size, m)[:, None]
    bounds = vs.take(ends)
    # a window with both ends at one infinity has length inf - inf = NaN,
    # which argmin picks and the callers reject as degenerate (callers
    # ignore numpy's invalid warning)
    j = (bounds[:, half:] - bounds[:, :half]).argmin(axis=-1)
    rows = np.arange(len(vs))
    return bounds[rows, j], bounds[rows, half + j]


def hpd_interval(values, weights, level: float) -> ConfidenceInterval:
    """Shortest credible interval among the candidate quantile windows
    (q(j/M), q((j + floor(level*M))/M)) for j = 1, ..., M - floor(level*M)."""
    _level(level)
    v = _floats("values", values)
    w = _floats("weights", weights)
    _check_count(v.size, level)
    vs, cum = _sorted_cum(v, w)
    with np.errstate(invalid="ignore"):
        lower, upper = _hpd_rows(vs[None], cum[None], level)
    return ConfidenceInterval(float(lower[0]), float(upper[0]), level)


def _summary_rows(values: np.ndarray, weights: np.ndarray, level: float, work=_fresh) -> tuple:
    """The weighted mean, variance and highest-density interval of each row
    of ``values`` (K, M) under the same row of normalized ``weights``, as
    the four arrays (mean, variance, lower, upper), and the
    :class:`NumericError` of each row whose moments overflow or whose
    interval is degenerate (its message gives the row's largest weight and
    ESS), keyed by row.  Callers check ``level`` and
    ignore numpy's overflow and invalid warnings around it; the temporary
    arrays are those of ``work``."""
    product = np.multiply(values, weights, out=work("product", values.shape))
    mean = np.add.reduce(product, axis=-1)
    np.subtract(values, mean[:, None], out=product)
    np.square(product, out=product)
    product *= weights
    var = np.add.reduce(product, axis=-1)
    finite = np.isfinite(mean) & np.isfinite(var)
    failed = {} if np.logical_and.reduce(finite) else {
        i: NumericError(f"the weighted mean or variance overflows float64 "
                        f"(mean={mean[i]:.4g}, variance={var[i]:.4g})")
        for i in (~finite).nonzero()[0].tolist()}
    _check_count(values.shape[-1], level)
    lower, upper = _hpd_rows(*_sorted_rows(values, weights, work), level)
    wide = lower < upper
    if not np.logical_and.reduce(wide):
        for i in (~wide).nonzero()[0].tolist():
            w = weights[i]
            failed.setdefault(i, NumericError(
                f"degenerate interval ({float(lower[i])}, {float(upper[i])}): the largest "
                f"weight is {w.max():.4g}, the ESS {1.0 / (w ** 2).sum():.4g} of {w.size} draws"))
    return (mean, var, lower, upper), failed


def _summary(values: np.ndarray, weights: np.ndarray, level: float) -> BayesEstimate:
    """:func:`_summary_rows` of one row, as a :class:`BayesEstimate`; its
    error raised.  Callers ignore numpy's overflow and invalid warnings."""
    _level(level)
    with _SmallBuffers():
        (mean, var, lower, upper), failed = _summary_rows(values[None], weights[None], level)
    if failed:
        raise failed[0]
    return BayesEstimate(float(mean[0]), float(var[0]),
                         hpd=ConfidenceInterval(float(lower[0]), float(upper[0]), level))


def bayes_is(
    s: ReciprocalSample,
    priors: GammaPriors,
    count: int,
    seed,
    level: float = 0.95,
) -> IsResult:
    """Full importance-sampling pipeline: draws, then means, variances and
    highest-density intervals for alpha and lam, and for theta =
    lam**(-1/alpha) when :attr:`IsResult.theta` is first read.  ``seed`` is
    read as :func:`posterior_draws` reads it."""
    draws = posterior_draws(s, priors, count, seed)
    # the moments overflow to inf, which _summary_rows reports
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _summary(draws.alphas, draws.weights, level)
        lam = _summary(draws.lams, draws.weights, level)
    return IsResult(alpha=alpha, lam=lam, draws=draws, level=level)


def _is_rows(records, count: int, level: float) -> tuple:
    """The importance-sampling records of :func:`bayes_is`, a ``(sample,
    priors, generator)`` each from the iterable ``records``, with ``count``
    draws at ``level``, run together as arrays: a (6, K) array of the alpha
    and lam means, the lower ends of their intervals and the upper ends, and
    a (K,) mask of the records that did not fail.  Each record has the bits
    of :func:`bayes_is` on its generator, and a record that fails (a typed
    error of that call) fails only its column.

    The records run in groups of at most ``_GROUP_VALUES`` proposals in the
    first round (or table points), one group at a time, a record of more
    than 5,461 first proposals alone.  ``records`` is read a group at a
    time, so that memory stays bounded however many records a call has.
    """
    size = count + count // 16 + 4
    group = 1 if 3 * size > 4 * _ALPHA_BLOCK else max(1, _GROUP_VALUES // max(size, _TANGENTS))
    _level(level)
    records, values, ok = iter(records), [np.empty((6, 0))], [np.empty(0, dtype=bool)]
    work = _Work()
    with _SmallBuffers():
        while part := list(islice(records, group)):
            work.regroup()
            values.append(np.full((6, len(part)), np.nan))
            ok.append(np.zeros(len(part), dtype=bool))
            out = _draw_rows(*zip(*part), count, work)
            if not out.rows:
                continue
            # the moments overflow to inf, which _summary_rows reports
            with np.errstate(over="ignore", invalid="ignore"):
                (mean, _, lower, upper), failed = _summary_rows(
                    out.values.reshape(-1, count), np.concatenate((out.weights, out.weights)),
                    level, work)
            # alpha and then lam, a row each, of the mean and the two ends
            summary = np.array((mean, lower, upper)).reshape(6, -1)
            good = [i for i in range(len(out.rows)) if i not in failed
                    and i + len(out.rows) not in failed]
            columns = [out.rows[i] for i in good]
            values[-1][:, columns] = summary[:, good]
            ok[-1][columns] = True
    return np.concatenate(values, axis=1), np.concatenate(ok)
