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

A round's ``sum x**alpha`` over more than 5,461 proposals runs in blocks of
at most 4,096 alphas, so M draws need r x 4,096 values plus O(M), not r x M.
Every block has at least 2 columns and smaller arrays (every round at 1,000
draws) take one block, which keeps the bits of the one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .censoring import ReciprocalSample
from .errors import (DegenerateWeightsError, DomainError, InsufficientDataError, NumericError,
                     _floats, _integer, _positive, _real, _rng)
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
    Up to 5,461 alphas (4/3 of ``_ALPHA_BLOCK``) take one block, the whole
    array, so a single alpha is summed as its one array is.  More are cut
    into blocks at least 2,731 (8,192 / 3) wide, below which numpy's
    broadcast multiply runs about four times slower per element.
    """
    flat = alpha.reshape(-1)
    total = np.empty(flat.size)
    blocks = -(-flat.size // _ALPHA_BLOCK) if 3 * flat.size > 4 * _ALPHA_BLOCK else 1
    buf = np.empty(lxs.size * -(-flat.size // blocks))
    edges = [flat.size * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(edges, edges[1:]):
        e = buf[:lxs.size * (stop - start)].reshape(lxs.size, stop - start)
        np.multiply.outer(lxs, flat[start:stop], out=e)
        np.exp(e, out=e)
        np.add.reduce(e, axis=0, out=total[start:stop])
    return total.reshape(alpha.shape)


def _log_rate_sums(alpha, s: ReciprocalSample, d: float, order: int) -> list:
    """``log(d + S_0)`` and, for ``order`` 1, ``S_1 / (d + S_0)`` at every
    element of ``alpha`` (> 0), where ``S_k = sum x**alpha * (log x)**k``.

    Sums ``exp(alpha * (log x - max log x))``, whose largest term is 1, and
    adds the shift back in logs, so nothing under- or overflows at any finite
    alpha.  ``d + S_0`` is the rate of g1.  Order 0 sums through
    :func:`_blocked_exp_sums`, in one block up to 5,461 alphas; order 1,
    whose product needs them, keeps the exponentials as one array.
    """
    top = s.log_x_max
    if order:
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
        out.append((s.log_x_powers[1] @ e) / denom)
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
    out = _draw_lams(_log_rate_sums(arr, s, priors.d, 0)[0], shape, _rng(seed))
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# rejection sampling from the log-concave g2 under one table of tangents
# ---------------------------------------------------------------------------


_TANGENTS = 64     # points of the tangent table, evenly spaced in log alpha
_DROP = 40.0       # the table spans where log g2 is within this of its top
_IMPROPER = "the alpha posterior is improper for these data and priors"
_SLOPE_ROUNDING = 8.0 * math.ulp(1.0)   # relative rounding of (log g2)'


def _tangent_table(s: ReciprocalSample, priors: GammaPriors) -> tuple:
    """``(alpha, log g2, (log g2)')`` at ``_TANGENTS`` points evenly spaced in
    log alpha over where log g2 is within ``_DROP`` of its top.

    The table starts at log alpha0 - 3 to log alpha0 + 3 about the
    regression start.  An end where log g2 is within ``_DROP`` of the
    table's highest value, or an upper end where it still rises, moves out
    by the table's width, within -80 <= log alpha <= 80; the lower end stops
    at -80 where g2 does not vanish at 0.  Once both ends lie below, a table
    with fewer than three quarters of its points within shrinks once, to
    those points and one more on each side.  An improper g2 is an
    :class:`InsufficientDataError`: a slope that turns negative where
    (a+r-1)/alpha is below the rounding of its other terms, a false turn of
    a rising log g2, or an upper end at e^80 that still rises or has not
    fallen ``_DROP``.
    """
    k = priors.a + s.r - 1.0
    rounding = _SLOPE_ROUNDING * (abs((s.r + priors.c) * s.log_x_max) + abs(s.sum_log_x)
                                  + priors.b)
    lo = math.log(s.regression_start[0]) - 3.0
    hi = lo + 6.0
    while True:
        eta = np.linspace(lo, hi, _TANGENTS)
        alpha = np.exp(eta)
        _, h, d = _g2_terms(alpha, s, priors, 1)
        turn = np.flatnonzero(d <= 0.0)
        if turn.size and k > 0 and k / alpha[turn[0]] <= rounding:
            raise InsufficientDataError(f"{_IMPROPER}: the slope of log g2 vanishes only to "
                                        f"rounding at alpha={alpha[turn[0]]:.3g}")
        inside = np.flatnonzero(h >= h.max() - _DROP)
        i, j = inside[0], inside[-1]
        low = i == 0 and lo > -80.0
        high = j == _TANGENTS - 1 or not d[-1] < 0.0
        if not (low or high):
            break
        if high and hi >= 80.0:
            raise InsufficientDataError(
                f"{_IMPROPER}: the upper tail of g2 never turns over" if d[-1] < 0.0 else
                f"{_IMPROPER}: log g2 is still rising at alpha={alpha[-1]:.3g}")
        width = hi - lo
        if low:
            lo = max(lo - width, -80.0)
        if high:
            hi = min(hi + width, 80.0)
    if 4 * (j - i) < 3 * _TANGENTS:
        alpha = np.exp(np.linspace(eta[max(i - 1, 0)], eta[j + 1], _TANGENTS))
        _, h, d = _g2_terms(alpha, s, priors, 1)
    return alpha, h, d


def _envelope(x: np.ndarray, h: np.ndarray, d: np.ndarray) -> dict:
    """The inverse-cdf columns of the piecewise-exponential envelope under
    the tangents ``h + d * (t - x)`` of a concave log density at increasing
    points ``x``.

    Segment j runs from ``z[j]`` to ``z[j + 1]``, where its tangent meets
    its neighbours' (0 and inf at the ends, and halfway between the points
    where two slopes differ by at most 1e-14).  Its envelope is highest at
    ``start``, where its log is ``peak``, and a proposal at the uniform xi
    lies below it by ``log1p(xi * fall)``, ``fall = expm1(-|d| * width)``.
    A segment over which the tangent changes by less than 1e-12 is flat: it
    proposes uniformly under the constant ``exp(peak)``, and its ``fall`` is
    0.  ``cum`` holds the cumulative masses over their largest term; where
    they are not finite and positive, an :class:`InsufficientDataError`.
    """
    gap = d[:-1] - d[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cross = (h[1:] - h[:-1] + x[:-1] * d[:-1] - x[1:] * d[1:]) / gap
        z = np.concatenate(([0.0], np.where(gap <= 1e-14, 0.5 * (x[:-1] + x[1:]), cross),
                            [math.inf]))
        width = np.maximum(z[1:] - z[:-1], 0.0)
        start = np.where(d > 0.0, z[1:], z[:-1])
        peak = h + d * (start - x)
        flat = np.abs(d) * width < 1e-12
        fall = np.expm1(-np.abs(d) * width)
        logmass = peak + np.log(np.where(flat, width, -fall / np.abs(d)))
        cum = np.exp(logmass - logmass.max()).cumsum()
    if not 0.0 < cum[-1] < math.inf:
        raise InsufficientDataError(f"{_IMPROPER}: the envelope of g2 has no finite mass")
    fall[flat] = 0.0
    return {"cum": cum, "z": z, "width": width, "start": start, "peak": peak, "fall": fall,
            "d": d, "flat": flat if flat.any() else None}


def _propose(env: dict, size: int, rng: np.random.Generator) -> tuple:
    """``size`` independent draws from the envelope ``env`` of
    :func:`_envelope`, and the log of the envelope at each."""
    j = env["cum"].searchsorted(rng.random(size) * env["cum"][-1], side="right")
    np.minimum(j, env["cum"].size - 1, out=j)
    xi = rng.random(size)
    drop = np.multiply(xi, env["fall"][j])
    np.log1p(drop, out=drop)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = drop / env["d"][j]
    t += env["start"][j]
    if env["flat"] is not None:
        flat = env["flat"][j]
        t[flat] = env["z"][j[flat]] + xi[flat] * env["width"][j[flat]]
    drop += env["peak"][j]
    return t, drop


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
    """Exact draws from the normalized g2 by rejection from one fixed envelope.

    Builds the table of ``_TANGENTS`` tangents of log g2 over where it is
    within ``_DROP`` of its top (:func:`_tangent_table`) and the
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
    rng = _rng(seed)
    env = _envelope(*_tangent_table(s, priors))
    draws, log_rate = _draw_buffers(count)
    filled = proposals = accepted = rounds = 0
    while filled < count:
        need = count - filled
        t, log_env = _propose(env, need + need // 16 + 4, rng)
        ok = (t > 0.0) & (t < math.inf)
        if np.count_nonzero(ok) < t.size:
            t, log_env = t[ok], log_env[ok]
        lr, hval = _g2_terms(t, s, priors, 0)
        # accept where log(uniform) + log envelope <= log g2
        level = rng.random(t.size)
        np.log(level, out=level)
        level += log_env
        hit = level <= hval
        got = np.flatnonzero(hit)[:need]
        draws[filled:filled + got.size] = t[got]
        log_rate[filled:filled + got.size] = lr[got]
        filled += got.size
        proposals += t.size
        accepted += np.count_nonzero(hit)
        rounds += 1
    return draws, {"acceptance_ratio": accepted / proposals, "rounds": rounds,
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
    rng = _rng(seed, child=True)
    alphas, info = sample_g2(count, s, priors, rng)
    lams = _draw_lams(info["log_rate"], s.r + priors.c, rng)
    # a complete sample (n = r) has log weights 0 * finite, so weights 1/count
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
