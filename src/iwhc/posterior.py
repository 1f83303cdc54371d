"""Exact posterior machinery for hybrid censored inverse Weibull data.

Under independent gamma priors the joint posterior of (alpha, lam) factors as

    pi(alpha, lam | data)  propto  g1(lam | alpha) * g2(alpha) * h(alpha, lam)

where g1 is Gamma(r + c, rate d + sum(x_i**alpha)), g2 is a proper log-concave
density on alpha, and h = (1 - exp(-lam * u**-alpha))**(n-r) carries the
censoring information.  Posterior summaries are computed by importance
sampling: draw alpha from g2 (adaptive rejection sampling exploits the
log-concavity), lam from g1 given alpha, and weight each pair by h.  Weighted
step-function quantiles give credible bounds, and the highest-density interval
is the shortest of the candidate quantile windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .censoring import ReciprocalSample
from .errors import DegenerateWeightsError, DomainError, InsufficientDataError, NumericError
from .lindley import GammaPriors
from .mle import ConfidenceInterval

__all__ = [
    "PosteriorDraws",
    "BayesEstimate",
    "IsResult",
    "g2_log_density",
    "g2_log_density_grad",
    "sample_g2",
    "sample_g1",
    "posterior_draws",
    "importance_estimate",
    "weighted_quantile",
    "hpd_interval",
    "bayes_is",
]


# ---------------------------------------------------------------------------
# conditional and marginal posterior factors
# ---------------------------------------------------------------------------


def g2_log_density(alpha, s: ReciprocalSample, priors: GammaPriors):
    """Unnormalized log density of the alpha-marginal proposal g2.

    log g2 = -(r+c)*log(d + sum x**alpha) + (a+r-1)*log(alpha) - b*alpha
             + (alpha+1)*sum(log x), up to an additive constant.  Concave in
    alpha because log(d + sum x**alpha) is convex.
    """
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("alpha must be strictly positive and finite")
    slx = np.log(s.x).sum()
    if arr.ndim == 0:
        S = priors.d + (s.x ** float(arr)).sum()
        out = (-(s.r + priors.c) * np.log(S)
               + (priors.a + s.r - 1.0) * np.log(arr) - priors.b * arr
               + (arr + 1.0) * slx)
        return float(out)
    S = priors.d + np.power.outer(s.x, arr).sum(axis=0)
    return (-(s.r + priors.c) * np.log(S)
            + (priors.a + s.r - 1.0) * np.log(arr) - priors.b * arr
            + (arr + 1.0) * slx)


def g2_log_density_grad(alpha, s: ReciprocalSample, priors: GammaPriors):
    """d/d-alpha of :func:`g2_log_density`; scalar or array ``alpha``."""
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("alpha must be strictly positive")
    lx = np.log(s.x)
    xa = np.power.outer(s.x, arr)
    S = priors.d + xa.sum(axis=0)
    out = (-(s.r + priors.c) * (lx @ xa) / S
           + (priors.a + s.r - 1.0) / arr - priors.b + lx.sum())
    return float(out) if arr.ndim == 0 else out


def sample_g1(alpha, s: ReciprocalSample, priors: GammaPriors, seed):
    """Draw lam ~ g1(. | alpha): Gamma(r + c, rate d + sum x**alpha).

    The "scale" of the conditional gamma is a rate: the joint density carries
    exp(-lam * (d + sum x**alpha)).  ``alpha`` may be a scalar or an array of
    conditioning values (one draw each); ``seed`` may also be a Generator.
    """
    shape = s.r + priors.c
    if shape <= 0:
        raise DomainError(f"gamma shape r + c must be positive, got {shape}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("alpha must be strictly positive")
    if arr.ndim == 0:
        rate = priors.d + (s.x ** float(arr)).sum()
        return float(rng.gamma(shape, 1.0 / rate))
    rate = priors.d + np.power.outer(s.x, arr).sum(axis=0)
    return rng.gamma(shape, 1.0, size=arr.size) / rate


# ---------------------------------------------------------------------------
# adaptive rejection sampling from the log-concave g2
# ---------------------------------------------------------------------------


_FIRST_ROUND = 16          # proposals in the first round; each later round doubles
_REFINE_PER_ROUND = 8      # rejected points added to the hull after a round
_MAX_HULL_POINTS = 60


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
        x, h, d = self.x, self.h, self.d
        gap = d[:-1] - d[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (h[1:] - h[:-1] + x[:-1] * d[:-1] - x[1:] * d[1:]) / gap
        # numerically parallel tangents meet halfway between their points
        cross = np.where(gap <= 1e-14, 0.5 * (x[:-1] + x[1:]), cross)
        self.z = np.concatenate(([0.0], cross, [np.inf]))
        # segment j carries exp(a_j + d_j t) on [z_j, z_j+1]; its mass is
        # factored out at the end where the envelope is highest, so that
        # nothing overflows
        a = h - x * d
        width = np.maximum(self.z[1:] - self.z[:-1], 0.0)
        top = np.where(d > 0, self.z[1:], self.z[:-1])
        self.flat = (np.abs(d) < 1e-12) & np.isfinite(self.z[1:])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logmass = np.where(
                self.flat,
                a + d * self.z[:-1] + np.log(width),
                a + d * top + np.log(-np.expm1(-np.abs(d) * width)) - np.log(np.abs(d)))
        w = np.exp(logmass - logmass.max())
        self.cum = np.cumsum(w)

    def propose(self, size: int, rng: np.random.Generator):
        """``size`` independent envelope draws and the segment of each."""
        j = np.minimum(np.searchsorted(self.cum, rng.random(size) * self.cum[-1], side="right"),
                       self.x.size - 1)
        k = self.d[j]
        lo, hi = self.z[j], self.z[j + 1]
        xi = rng.random(size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            width = hi - lo
            steep = np.where(k > 0, hi, lo) + np.log1p(xi * np.expm1(-np.abs(k) * width)) / k
            t = np.where(self.flat[j], lo + xi * width, steep)
        return t, j

    def insert(self, ts, hs, ds) -> None:
        x = np.concatenate((self.x, ts))
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        self.h = np.concatenate((self.h, hs))[order]
        self.d = np.concatenate((self.d, ds))[order]
        self._refresh()


def _find_mode(lnf, dlnf, guess: float = 1.0) -> float:
    """Safeguarded search for the stationary point of a concave lnf on (0, inf)."""
    lo = hi = guess
    for _ in range(80):
        if dlnf(lo) > 0:
            break
        lo /= 4.0
    else:
        return lo      # decreasing everywhere that matters: mode at the left edge
    for _ in range(80):
        if dlnf(hi) < 0:
            break
        hi *= 4.0
    else:
        raise NumericError("mode search failed: log density still rising at huge alpha")
    if lo >= hi:
        return lo
    return float(optimize.brentq(dlnf, lo, hi, xtol=1e-12 * max(1.0, hi)))


def sample_g2(
    count: int,
    s: ReciprocalSample,
    priors: GammaPriors,
    seed,
    return_info: bool = False,
):
    """Exact draws from the normalized g2 via adaptive rejection sampling.

    Builds a tangent hull around the mode of log g2 and draws in rounds: each
    round proposes a batch from the current envelope, evaluates log g2 on it
    at once and accepts with one comparison, then adds a few of the rejected
    points to the hull.  Rounds start small and double, so the hull is refined
    before the bulk of the draws.  Every proposal is judged against the
    envelope it was drawn from, so each accepted draw is exact.  Deterministic
    for a given seed.  With ``return_info=True`` also returns a dict carrying
    the acceptance ratio (accepted over evaluated proposals, including
    accepted surplus the last round discards) and the number of hull points.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def lnf(a):
        return g2_log_density(a, s, priors)

    def dlnf(a):
        return g2_log_density_grad(a, s, priors)

    mode = _find_mode(lnf, dlnf)
    offset = lnf(mode)
    pts = sorted({mode * 0.5, mode, mode * 2.0})
    xs = [float(t) for t in pts]
    hs = [lnf(t) - offset for t in xs]
    ds = [dlnf(t) for t in xs]
    while ds[-1] >= 0.0:
        xs.append(xs[-1] * 2.0)
        hs.append(lnf(xs[-1]) - offset)
        ds.append(dlnf(xs[-1]))
        if xs[-1] > 1e12:
            raise NumericError("upper tail of g2 never turns over; density improper?")
    hull = _Hull(xs, hs, ds)
    draws = np.empty(count)
    filled = proposals = accepted = 0
    size = _FIRST_ROUND
    while filled < count:
        need = count - filled
        t, j = hull.propose(min(size, need + need // 8 + 4), rng)
        u = rng.random(t.size)
        ok = (t > 0.0) & np.isfinite(t)
        t, j, u = t[ok], j[ok], u[ok]
        hval = lnf(t) - offset
        hit = np.log(u) <= hval - hull.h[j] - hull.d[j] * (t - hull.x[j])
        got = t[hit]
        take = min(got.size, need)
        draws[filled:filled + take] = got[:take]
        filled += take
        proposals += t.size
        accepted += got.size
        miss = ~hit
        room = min(_REFINE_PER_ROUND, _MAX_HULL_POINTS - hull.x.size)
        if filled < count and room > 0 and miss.any():
            ts = t[miss][:room]
            hull.insert(ts, hval[miss][:room], dlnf(ts))
        size *= 2
    if return_info:
        return draws, {"acceptance_ratio": accepted / proposals,
                       "hull_points": int(hull.x.size), "mode": mode}
    return draws


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
    alpha: BayesEstimate
    lam: BayesEstimate
    theta: BayesEstimate
    draws: PosteriorDraws


def _log_weights(alphas: np.ndarray, lams: np.ndarray, s: ReciprocalSample) -> np.ndarray:
    if s.n == s.r:
        return np.zeros(alphas.size)
    with np.errstate(over="ignore"):
        q = np.exp(np.minimum(np.log(lams) - alphas * np.log(s.u), 709.0))
    return (s.n - s.r) * np.log(-np.expm1(-np.maximum(q, np.finfo(float).tiny)))


def posterior_draws(
    s: ReciprocalSample,
    priors: GammaPriors,
    count: int,
    seed,
    chunks: int = 1,
) -> PosteriorDraws:
    """Steps 1-3 of the sampler: alphas from g2, lams from g1, weights from h.

    ``chunks`` splits the draw budget into independently seeded streams
    (children of ``SeedSequence(seed)``) concatenated in chunk order, so the
    result is reproducible for a given (seed, count, chunks) regardless of
    how the chunks are executed.  For complete samples the weights are exactly
    uniform.
    """
    if s.r < 1:
        raise InsufficientDataError("posterior sampling needs at least one failure")
    if count < 2:
        raise DomainError(f"count must be >= 2, got {count}")
    if chunks < 1 or chunks > count:
        raise DomainError(f"chunks must be in [1, count], got {chunks}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    sizes = [count // chunks + (1 if i < count % chunks else 0) for i in range(chunks)]
    alphas = np.empty(count)
    lams = np.empty(count)
    acc = 0.0
    pos = 0
    for child, size in zip(root.spawn(chunks), sizes):
        rng = np.random.default_rng(child)
        a, info = sample_g2(size, s, priors, rng, return_info=True)
        l = sample_g1(a, s, priors, rng)
        alphas[pos:pos + size] = a
        lams[pos:pos + size] = l
        acc += info["acceptance_ratio"] * size
        pos += size
    if s.n == s.r:
        weights = np.full(count, 1.0 / count)
    else:
        lw = _log_weights(alphas, lams, s)
        w = np.exp(lw - lw.max())
        total = w.sum()
        if not total > 0:
            raise DegenerateWeightsError("all importance weights underflowed to zero")
        weights = w / total
    return PosteriorDraws(alphas, lams, weights, acceptance_ratio=acc / count)


def importance_estimate(draws: PosteriorDraws, statistic) -> BayesEstimate:
    """Weighted posterior mean and variance of ``statistic(alphas, lams)``."""
    if draws.size < 2:
        raise DomainError("need at least two draws")
    if not np.any(draws.weights > 0):
        raise DegenerateWeightsError("no positive importance weight")
    values = np.asarray(statistic(draws.alphas, draws.lams), dtype=float)
    mean = float((values * draws.weights).sum())
    var = float((((values - mean) ** 2) * draws.weights).sum())
    return BayesEstimate(mean=mean, variance=var)


def weighted_quantile(values, weights, beta: float) -> float:
    """Step-function quantile: the first ordered value whose cumulative weight
    reaches ``beta``.  ``beta = 0`` returns the smallest value; ties in the
    values accumulate weight in stable sorted order."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must be in [0, 1], got {beta}")
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0 or v.shape != w.shape:
        raise DomainError("values and weights must be nonempty and equally long")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    total = w.sum()
    if not total > 0:
        raise DegenerateWeightsError("weights sum to zero")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / total
    idx = int(np.searchsorted(cum, beta, side="left"))
    return float(v[order][min(idx, v.size - 1)])


def hpd_interval(values, weights, level: float) -> ConfidenceInterval:
    """Shortest credible interval among the candidate quantile windows
    (q(j/M), q((j + floor(level*M))/M)) for j = 1, ..., M - floor(level*M)."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = v.size
    if m * level < 2:
        raise DomainError(f"need M*level >= 2, got M={m}, level={level}")
    total = w.sum()
    if not total > 0:
        raise DegenerateWeightsError("weights sum to zero")
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cum = np.cumsum(w[order]) / total
    k = int(np.floor(level * m))
    js = np.arange(1, m - k + 1)
    lo_idx = np.minimum(np.searchsorted(cum, js / m, side="left"), m - 1)
    hi_idx = np.minimum(np.searchsorted(cum, (js + k) / m, side="left"), m - 1)
    lengths = vs[hi_idx] - vs[lo_idx]
    j = int(np.argmin(lengths))
    return ConfidenceInterval(float(vs[lo_idx[j]]), float(vs[hi_idx[j]]), level)


def bayes_is(
    s: ReciprocalSample,
    priors: GammaPriors,
    count: int,
    seed,
    level: float = 0.95,
    chunks: int = 1,
) -> IsResult:
    """Full importance-sampling pipeline: draws, then means, variances and
    highest-density intervals for alpha, lam and theta = lam**(-1/alpha)."""
    draws = posterior_draws(s, priors, count, seed, chunks=chunks)

    def summarize(values: np.ndarray) -> BayesEstimate:
        mean = float((values * draws.weights).sum())
        var = float((((values - mean) ** 2) * draws.weights).sum())
        hpd = hpd_interval(values, draws.weights, level)
        return BayesEstimate(mean=mean, variance=var, hpd=hpd)

    return IsResult(
        alpha=summarize(draws.alphas),
        lam=summarize(draws.lams),
        theta=summarize(draws.thetas),
        draws=draws,
    )
