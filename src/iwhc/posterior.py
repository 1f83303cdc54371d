"""Exact posterior machinery for hybrid censored inverse Weibull data.

Under independent gamma priors the joint posterior of (alpha, lam) factors as

    pi(alpha, lam | data)  propto  g1(lam | alpha) * g2(alpha) * h(alpha, lam)

where g1 is Gamma(r + c, rate d + sum(x_i**alpha)), g2 is a proper log-concave
density on alpha, and h = (1 - exp(-lam * u**-alpha))**(n-r) carries the
censoring information.  Posterior summaries are computed by importance
sampling: draw alpha from g2 (adaptive rejection sampling exploits the
log-concavity), lam from g1 given alpha, and weight each pair by h.  Weighted
step-function quantiles give credible bounds, and the highest-density interval
is the shortest of the candidate quantile windows.  g2, its derivatives and
the g1 rate read ``log(d + sum x**alpha)`` and the ratios ``sum x**alpha *
(log x)**k / (d + sum x**alpha)`` from log-sum-exp sums over the sample's
cached ``log x - max log x``, and each lam is drawn with the g1 rate of the
round that accepted its alpha; h takes ``q`` from the likelihood kernel's
censoring helper.  The mode search, at one alpha per Newton step, and the
hull over a few tangents do their scalar arithmetic in Python floats over
numpy's sums and logarithms, in the operations and order of the array
arithmetic.

A round's ``sum x**alpha`` over more than 5,461 proposals runs in blocks of
at most 4,096 alphas, so M draws need r x 4,096 values plus O(M), not r x M.
Every block has at least 2 columns and smaller arrays (every round at 1,000
draws) take one call, which keeps the bits of the one array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .censoring import ReciprocalSample
from .errors import (DegenerateWeightsError, DomainError, InsufficientDataError, NumericError,
                     _floats, _integer, _positive, _real)
from .lindley import GammaPriors
from .mle import ConfidenceInterval, _censor_q, _in_floats

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


# the order-0 sums of more than 4/3 of this many alphas (5,461) run through one
# buffer of r times at most this many exponentials, a block of alphas at a time
_ALPHA_BLOCK = 4096


def _blocked_exp_sums(lxs: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``sum exp(alpha * lxs)`` over ``lxs`` at every element of ``alpha``,
    the bits of ``np.add.reduce(np.exp(np.multiply.outer(lxs, alpha)), axis=0)``
    in the fewest blocks of at most ``_ALPHA_BLOCK`` alphas, of equal width
    to one alpha, through one buffer of r x block values.

    The axis-0 reduce adds the rows of a block in order, column by column,
    so a block's sums are those of the whole array, provided the block has
    at least two columns: a one-column block is summed pairwise along r.
    The caller passes more than 5,461 alphas, so every block is at least
    2,731 (8,192 / 3) wide, below which numpy's broadcast multiply runs
    about four times slower per element.
    """
    flat = alpha.reshape(-1)
    total = np.empty(flat.size)
    blocks = -(-flat.size // _ALPHA_BLOCK)
    buf = np.empty(lxs.size * -(-flat.size // blocks))
    edges = [flat.size * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(edges, edges[1:]):
        e = buf[:lxs.size * (stop - start)].reshape(lxs.size, stop - start)
        np.multiply.outer(lxs, flat[start:stop], out=e)
        np.exp(e, out=e)
        np.add.reduce(e, axis=0, out=total[start:stop])
    return total.reshape(alpha.shape)


def _log_rate_sums(alpha, s: ReciprocalSample, d: float, order: int) -> list:
    """``log(d + S_0)`` and, for k = 1..order, ``S_k / (d + S_0)`` at every
    element of ``alpha`` (> 0), where ``S_k = sum x**alpha * (log x)**k``.

    Sums ``exp(alpha * (log x - max log x))``, whose largest term is 1, and
    adds the shift back in logs, so nothing under- or overflows at any finite
    alpha.  ``d + S_0`` is the rate of g1.  Order 0 on more than 5,461
    alphas sums in blocks (:func:`_blocked_exp_sums`); otherwise, and for a
    higher order, whose products need them, the exponentials are one array.
    """
    top = s.log_x_max
    if order or 3 * alpha.size <= 4 * _ALPHA_BLOCK:
        e = np.multiply.outer(s.log_x_shifted, alpha)
        np.exp(e, out=e)
        total = np.add.reduce(e, axis=0)
    else:
        total = _blocked_exp_sums(s.log_x_shifted, alpha)
    log_sum = alpha * top + np.log(total)
    out = [log_sum if d == 0 else np.logaddexp(np.log(d), log_sum)]
    if order:
        with np.errstate(over="ignore"):
            denom = total if d == 0 else total + d * np.exp(-alpha * top)
        out += [(s.log_x_powers[k] @ e) / denom for k in range(1, order + 1)]
    return out


def _g2_terms(alpha, s: ReciprocalSample, priors: GammaPriors, order: int) -> list:
    """``[log(d + S_0), log g2]`` at every element of ``alpha`` (> 0), and
    for ``order`` 1 also ``(log g2)' = -(r+c) S_1/(d + S_0) + (a+r-1)/alpha
    - b + sum log x``."""
    log_rate, *ratio = _log_rate_sums(alpha, s, priors.d, order)
    shape, k, slx = s.r + priors.c, priors.a + s.r - 1.0, s.sum_log_x
    out = [log_rate, -shape * log_rate + k * np.log(alpha) - priors.b * alpha
           + (alpha + 1.0) * slx]
    if order:
        out.append(-shape * ratio[0] + k / alpha - priors.b + slx)
    return out


def _g2_slope_curve(alpha: float, s: ReciprocalSample, priors: GammaPriors) -> tuple:
    """``(log g2)'`` and ``(log g2)'' = -(r+c) (S_2/(d + S_0) - (S_1/(d +
    S_0))**2) - (a+r-1)/alpha**2`` at one alpha (> 0), as Python floats.

    numpy takes the exponentials over x, their sum and the two dot products,
    and the rest runs on floats in the order of the elementwise array
    arithmetic.  No division can be by zero (the sum is at least 1 and
    alpha > 0), and ``r1 ** 2`` is a power, as on a numpy scalar, not a
    product, which rounds differently.
    """
    e = s.log_x_shifted * alpha
    np.exp(e, out=e)
    denom = float(np.add.reduce(e))
    if priors.d != 0:
        tilt = -alpha * s.log_x_max
        if tilt < 709.0:
            denom += priors.d * float(np.exp(tilt))
        else:
            with np.errstate(over="ignore"):
                denom += priors.d * float(np.exp(tilt))
    powers = s.log_x_powers
    r1 = float(powers[1] @ e) / denom
    r2 = float(powers[2] @ e) / denom
    shape, k = s.r + priors.c, priors.a + s.r - 1.0
    return (-shape * r1 + k / alpha - priors.b + s.sum_log_x,
            -shape * (r2 - r1 ** 2) - k / alpha ** 2)


def g2_log_density(alpha, s: ReciprocalSample, priors: GammaPriors):
    """Unnormalized log density of the alpha-marginal proposal g2.

    log g2 = -(r+c)*log(d + sum x**alpha) + (a+r-1)*log(alpha) - b*alpha
             + (alpha+1)*sum(log x), up to an additive constant.  Concave in
    alpha because log(d + sum x**alpha) is convex.
    """
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    arr = _positive("alpha", alpha)
    out = _g2_terms(arr, s, priors, 0)[1]
    return float(out) if arr.ndim == 0 else out


def _draw_lams(log_rate, shape: float, rng: np.random.Generator):
    """One Gamma(shape, rate exp(log_rate)) draw per element of ``log_rate``."""
    with np.errstate(over="ignore", divide="ignore"):
        lams = np.exp(np.log(rng.gamma(shape, 1.0, size=np.shape(log_rate))) - log_rate)
    bad = np.count_nonzero(~((lams > 0) & np.isfinite(lams)))
    if bad:
        raise NumericError(
            f"{bad} of {np.size(lams)} lam draws from g1 overflow or underflow float64: "
            f"the log rate log(d + sum x**alpha) reaches {np.min(log_rate):.4g} "
            f"to {np.max(log_rate):.4g} at these alphas")
    return lams


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
    out = _draw_lams(_log_rate_sums(arr, s, priors.d, 0)[0], shape, np.random.default_rng(seed))
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# adaptive rejection sampling from the log-concave g2
# ---------------------------------------------------------------------------


_REFINE_PER_ROUND = 8      # rejected points added to the hull after a round
_MAX_HULL_POINTS = 60
_MODE_STEP = 2.0           # longest Newton step of the mode search, in log alpha
_LOG_ALPHA_LIMIT = 80.0    # the mode search stays in exp(-80) < alpha < exp(80)
_IMPROPER = "the alpha posterior is improper for these data and priors"
_SLOPE_ROUNDING = 8.0 * math.ulp(1.0)   # relative rounding of (log g2)'


class _Hull:
    """Piecewise-linear upper hull of a concave function on (0, inf).

    Tangents at the support points bound the function from above; the
    exponential of the hull is a piecewise-exponential envelope that can be
    sampled by inverse cdf segment by segment.
    """

    def __init__(self, xs, hs, ds):
        self.x = np.asarray(xs, dtype=float)
        self.h = np.asarray(hs, dtype=float)
        self.d = np.asarray(ds, dtype=float)
        self._refresh()

    def _refresh(self):
        # Python floats over the few tangents; numpy takes expm1 and log
        x, h, d = self.x.tolist(), self.h.tolist(), self.d.tolist()
        n = len(x)
        z = [0.0]
        for i in range(n - 1):
            gap = d[i] - d[i + 1]
            # numerically parallel tangents meet halfway between their points
            z.append(0.5 * (x[i] + x[i + 1]) if gap <= 1e-14
                     else (h[i + 1] - h[i] + x[i] * d[i] - x[i + 1] * d[i + 1]) / gap)
        z.append(math.inf)
        # segment j carries exp(a_j + d_j t) on [z_j, z_j+1]; its mass is
        # factored out at the end where the envelope is highest, so that
        # nothing overflows
        span = [hi - lo for lo, hi in zip(z, z[1:])]
        width = [max(v, 0.0) for v in span]
        top = [hi if dj > 0 else lo for dj, lo, hi in zip(d, z, z[1:])]
        flat = [abs(dj) < 1e-12 and math.isfinite(hi) for dj, hi in zip(d, z[1:])]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # expm1(-|d| width) for the masses, and over the unclamped span
            # for the proposals
            em = np.expm1([-abs(dj) * wj for dj, wj in zip(d + d, width + span)]).tolist()
            logs = np.log([wj if fj else -ej for wj, fj, ej in zip(width, flat, em)]
                          + [abs(dj) for dj in d]).tolist()
        logmass = np.array([
            h[j] - x[j] * d[j] + d[j] * z[j] + logs[j] if flat[j] else
            h[j] - x[j] * d[j] + d[j] * top[j] + logs[j] - logs[n + j]
            for j in range(n)])
        w = np.exp(logmass - logmass.max())
        self.z, self.flat, self.any_flat = np.array(z), np.array(flat), any(flat)
        self.cum = w.cumsum()
        # what a proposal in segment j reads, the same for every proposal
        self.top, self.span, self.fall = np.array([top, span, em[n:]])

    def propose(self, size: int, rng: np.random.Generator):
        """``size`` independent envelope draws and the segment of each."""
        j = np.minimum(self.cum.searchsorted(rng.random(size) * self.cum[-1], side="right"),
                       self.x.size - 1)
        xi = rng.random(size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = self.top[j] + np.log1p(xi * self.fall[j]) / self.d[j]
            if self.any_flat:
                t = np.where(self.flat[j], self.z[j] + xi * self.span[j], t)
        return t, j

    def insert(self, ts, hs, ds) -> None:
        x = np.concatenate((self.x, ts))
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        self.h = np.concatenate((self.h, hs))[order]
        self.d = np.concatenate((self.d, ds))[order]
        self._refresh()


def _find_mode(dlnf, guess: float) -> float:
    """Stationary point of a concave lnf on (0, inf); ``dlnf(alpha)`` returns
    the first and second derivatives of lnf as floats.

    Newton's method for the root of the first derivative in eta = log(alpha),
    from ``guess``.  Each step is clamped to ``_MODE_STEP``, and a step that
    leaves the bracket of the sign changes seen so far bisects it instead.
    """
    eta = min(max(float(np.log(guess)), -_LOG_ALPHA_LIMIT), _LOG_ALPHA_LIMIT)
    lo, hi = -math.inf, math.inf
    for _ in range(200):
        alpha = float(np.exp(eta))
        slope, curve = dlnf(alpha)
        if slope > 0:
            lo = eta
        elif slope < 0:
            hi = eta
        else:
            return alpha
        # a zero curvature gives a signed inf, as on numpy scalars
        step = _in_floats(operator.truediv, -slope, alpha * curve)
        if not step * slope > 0:        # curvature lost to rounding
            step = slope
        step = min(max(step, -_MODE_STEP), _MODE_STEP)
        if abs(step) < 1e-10 or hi - lo < 1e-10:
            return float(np.exp(eta + step))
        new = eta + step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if new > _LOG_ALPHA_LIMIT:
            raise InsufficientDataError(f"{_IMPROPER}: log g2 is still rising at alpha={alpha:.3g}")
        if new < -_LOG_ALPHA_LIMIT:
            return alpha      # decreasing everywhere that matters: mode at the left edge
        eta = new
    return float(np.exp(eta))


def _draw_buffers(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty arrays for ``count`` draws and their log rates; a count that
    cannot be allocated is a :class:`DomainError` naming it."""
    try:
        return np.empty(count), np.empty(count)
    except (ValueError, MemoryError):
        raise DomainError(f"{count} draws need {16 * count} bytes, which cannot be "
                          "allocated") from None


def sample_g2(
    count: int,
    s: ReciprocalSample,
    priors: GammaPriors,
    seed,
) -> tuple[np.ndarray, dict]:
    """Exact draws from the normalized g2 via adaptive rejection sampling.

    Finds the mode of log g2 by Newton's method and builds a tangent hull at
    ``mode * exp(k * sigma)``, k = -2..2, where ``sigma`` is the spread in
    log alpha that the curvature at the mode implies.  Then draws in rounds:
    each round proposes ``need + need // 16 + 4`` points from the current
    envelope, evaluates log g2 on them at once and accepts with one
    comparison, then adds up to eight of the rejected points to the hull.
    Every proposal is judged against the envelope it was drawn from, so each
    accepted draw is exact.  Deterministic for a given seed.  Returns the
    draws and a dict carrying the acceptance ratio (accepted over evaluated
    proposals, including accepted surplus the last round discards), the
    number of hull points and of rounds, the mode, and ``log_rate``: log(d +
    sum x**alpha), the log g1 rate, at each draw.
    """
    count = _integer("count", count, 1)
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    rng = np.random.default_rng(seed)

    def dlnf(a):
        return _g2_slope_curve(a, s, priors)

    # the regression start of the MLE is near the mode of g2
    mode = _find_mode(dlnf, s.regression_start[0])
    curve = mode * mode * dlnf(mode)[1]
    sigma = min(1.0, 1.0 / math.sqrt(-curve)) if curve < 0 else 1.0
    xs = (mode * np.exp(sigma * np.arange(-2.0, 3.0))).tolist()
    _, hs, ds = _g2_terms(np.array(xs), s, priors, 1)
    offset = float(hs[2])
    hs, ds = (hs - offset).tolist(), ds.tolist()
    while ds[-1] >= 0.0:
        xs.append(xs[-1] * 2.0)
        _, h, d = _g2_terms(np.array(xs[-1:]), s, priors, 1)
        hs += (h - offset).tolist()
        ds += d.tolist()
        if xs[-1] > 1e12:
            raise InsufficientDataError(f"{_IMPROPER}: the upper tail of g2 never turns over")
    # a rising (a+r-1)/alpha lost to the rounding of the slope's other terms
    # fakes a mode of an improper g2, and a tail that seems to turn over
    k = priors.a + s.r - 1.0
    if k > 0 and k / mode <= _SLOPE_ROUNDING * (
            abs((s.r + priors.c) * s.log_x_max) + abs(s.sum_log_x) + priors.b):
        raise InsufficientDataError(f"{_IMPROPER}: the slope of log g2 vanishes only to "
                                    f"rounding at alpha={mode:.3g}")
    hull = _Hull(xs, hs, ds)
    draws, log_rate = _draw_buffers(count)
    filled = proposals = accepted = rounds = 0
    while filled < count:
        # an envelope without finite mass (NaN hull masses far out, as on a
        # faked mode) could never accept a draw
        if not 0.0 < hull.cum[-1] < math.inf:
            raise InsufficientDataError(f"{_IMPROPER}: the envelope of g2 has no finite mass")
        need = count - filled
        t, j = hull.propose(need + need // 16 + 4, rng)
        u = rng.random(t.size)
        ok = (t > 0.0) & np.isfinite(t)
        if np.count_nonzero(ok) < t.size:
            t, j, u = t[ok], j[ok], u[ok]
        lr, hval = _g2_terms(t, s, priors, 0)
        hval -= offset
        hit = np.log(u) <= hval - hull.h[j] - hull.d[j] * (t - hull.x[j])
        got = np.flatnonzero(hit)[:need]
        draws[filled:filled + got.size] = t[got]
        log_rate[filled:filled + got.size] = lr[got]
        filled += got.size
        hits = np.count_nonzero(hit)
        proposals += t.size
        accepted += hits
        rounds += 1
        room = min(_REFINE_PER_ROUND, _MAX_HULL_POINTS - hull.x.size)
        if filled < count and room > 0 and hits < t.size:
            miss = ~hit
            ts = t[miss][:room]
            hull.insert(ts, hval[miss][:room], _g2_terms(ts, s, priors, 1)[2])
    return draws, {"acceptance_ratio": accepted / proposals,
                   "hull_points": int(hull.x.size), "rounds": rounds, "mode": mode,
                   "log_rate": log_rate}


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
        # theta and its moments overflow to inf, which _mean_var reports
        with np.errstate(over="ignore", invalid="ignore"):
            return _summary(self.draws.thetas, self.draws.weights, self.level)


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
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # the child that root.spawn(1) would give first, made without advancing root
        rng = np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (0,), pool_size=root.pool_size))
    alphas, info = sample_g2(count, s, priors, rng)
    lams = _draw_lams(info["log_rate"], s.r + priors.c, rng)
    if s.n == s.r:
        weights = np.full(count, 1.0 / count)
    else:
        lw = (s.n - s.r) * _censor_q(alphas, lams, s.log_u)[1]
        w = np.exp(lw - np.maximum.reduce(lw))
        total = np.add.reduce(w)
        if not total > 0:
            raise DegenerateWeightsError("all importance weights underflowed to zero")
        weights = w / total
    return PosteriorDraws(alphas, lams, weights, acceptance_ratio=info["acceptance_ratio"])


def _mean_var(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Weighted mean and variance; callers ignore numpy's overflow and
    invalid warnings around it, since a value that overflows raises here."""
    mean = float(np.add.reduce(values * weights))
    var = float(np.add.reduce(((values - mean) ** 2) * weights))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise NumericError(f"the weighted mean or variance overflows float64 "
                           f"(mean={mean:.4g}, variance={var:.4g})")
    return mean, var


def _sorted_cum(v: np.ndarray, w: np.ndarray):
    """``v`` in ascending order and the cumulative weights in that order over
    their total, both as a stable sort gives them.

    Sorts with numpy's default (SIMD) argsort, which is several times faster
    than the stable one at 10,000 values.  Where the sorted values increase
    strictly the order is unique, so it is the stable one; otherwise (a tie,
    signed zeros or a NaN) the values are sorted again stably, so that tied
    values gather weight in their input order.  Raises :class:`DomainError`
    unless the weights are nonnegative and as many as the values (at least one).
    """
    if v.size == 0 or v.shape != w.shape:
        raise DomainError("values and weights must be nonempty and equally long")
    if (w < 0).any():
        raise DomainError("weights must be nonnegative")
    total = np.add.reduce(w, axis=None)
    if not total > 0:
        raise DegenerateWeightsError("weights sum to zero")
    order = v.argsort()
    vs = v[order]
    if not (vs[1:] > vs[:-1]).all():
        order = np.argsort(v, kind="stable")
        vs = v[order]
    return vs, w[order].cumsum() / total


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


def hpd_interval(values, weights, level: float) -> ConfidenceInterval:
    """Shortest credible interval among the candidate quantile windows
    (q(j/M), q((j + floor(level*M))/M)) for j = 1, ..., M - floor(level*M)."""
    if not 0.0 < _real("level", level) < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    v = _floats("values", values)
    w = _floats("weights", weights)
    m = v.size
    if m * level < 2:
        raise DomainError(f"need M*level >= 2, got M={m}, level={level}")
    vs, cum = _sorted_cum(v, w)
    ends = np.minimum(cum.searchsorted(_hpd_thresholds(m, level), side="left"), m - 1)
    lo_idx, hi_idx = ends[:ends.size // 2], ends[ends.size // 2:]
    # a window with both ends at one infinity has length inf - inf = NaN,
    # which argmin picks and ConfidenceInterval rejects as degenerate
    with np.errstate(invalid="ignore"):
        lengths = vs[hi_idx] - vs[lo_idx]
    j = int(lengths.argmin())
    return ConfidenceInterval(float(vs[lo_idx[j]]), float(vs[hi_idx[j]]), level)


def _summary(values: np.ndarray, weights: np.ndarray, level: float) -> BayesEstimate:
    """Weighted mean, variance and highest-density interval; callers ignore
    numpy's overflow and invalid warnings around it, as for :func:`_mean_var`."""
    return BayesEstimate(*_mean_var(values, weights), hpd=hpd_interval(values, weights, level))


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
    # the moments overflow to inf, which _mean_var reports
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _summary(draws.alphas, draws.weights, level)
        lam = _summary(draws.lams, draws.weights, level)
    return IsResult(alpha=alpha, lam=lam, draws=draws, level=level)
