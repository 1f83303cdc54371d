"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's analytic derivative and
sampling code paths: the reference formulas compute each derivative on its
own, finite differences use the log-likelihood alone, and posterior moments
come from nested adaptive quadrature of the joint posterior density.  Where
the library has moved a loop from numpy to Python floats, a copy of the numpy
version pins its bits, and where it has split a loop into parts, a copy of the
loop does.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

from iwhc import (ConvergenceError, CovarianceMatrix, DegenerateWeightsError, GammaPriors,
                  HybridScheme, InsufficientDataError, IwParams, MleFit, NumericError,
                  ReciprocalSample, apply_scheme, asymptotic_ci, bayes_is,
                  fit_mle, lindley_estimates, log_likelihood, reciprocals, sample)


# ---------------------------------------------------------------------------
# term-by-term formulas of the log-likelihood and its derivatives
# ---------------------------------------------------------------------------
#
# Each function below computes its own power sums and censoring terms, in the
# same arithmetic as the library's shared derivative kernel, so the kernel
# must match them exactly.


def _censor_terms(alpha, lam, s):
    """(L, q, p) with L=log u, q=lam*u**-alpha, p=q/expm1(q) (0 where expm1
    overflows); None if r==n or if q underflows (see :func:`_log_q_tail`)."""
    if s.n == s.r or _log_q_tail(alpha, lam, s) is not None:
        return None
    L = np.log(s.u)
    q = np.exp(min(np.log(lam) - alpha * L, 709.0))
    q = max(q, np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        e = np.expm1(q)
    p = 0.0 if np.isinf(e) else q / e
    return L, q, p


def _censor_coefficients(q, p):
    """(c2, c3) of the censoring term's partials: with f(q) = log(1 - e**-q),
    p = q f'(q), c2 = q p'(q) and c3 = q c2'(q), each product with q formed
    as (p*q)*q."""
    pq, pp = p * q, p * p
    return p - pq - pp, p - 3.0 * pq - 3.0 * pp + pq * q + 3.0 * pq * p + 2.0 * pp * p


def _log_q_tail(alpha, lam, s):
    """(m, L, log q) when q = lam*u**-alpha < tiny, else None.  There the
    censoring term m*log(1 - e**-q) is m*log q = m*(log lam - alpha*L) to
    float precision, and its partials are -m*L, m/lam, -m/lam**2, 2m/lam**3."""
    if s.n == s.r:
        return None
    L = np.log(s.u)
    log_q = np.log(lam) - alpha * L
    return (s.n - s.r, L, log_q) if log_q < np.log(np.finfo(float).tiny) else None


def log_likelihood_ref(alpha, lam, s):
    x = s.x
    out = s.r * np.log(alpha * lam) - lam * (x ** alpha).sum() + (alpha + 1.0) * np.log(x).sum()
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        _, q, _ = blocks
        out += (s.n - s.r) * np.log(-np.expm1(-q))
    tail = _log_q_tail(alpha, lam, s)
    if tail is not None:
        m, _, log_q = tail
        out += m * log_q
    return float(out)


def score_ref(alpha, lam, s):
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    d_a = s.r / alpha - lam * (xa * lx).sum() + lx.sum()
    d_l = s.r / lam - xa.sum()
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        L, q, p = blocks
        m = s.n - s.r
        d_a -= m * L * p
        d_l += m * p / lam
    tail = _log_q_tail(alpha, lam, s)
    if tail is not None:
        m, L, _ = tail
        d_a -= m * L
        d_l += m / lam
    return float(d_a), float(d_l)


def observed_fisher_ref(alpha, lam, s):
    """(d2_aa, d2_al, d2_ll)."""
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    d2_aa = -s.r / alpha ** 2 - lam * (xa * lx ** 2).sum()
    d2_al = -(xa * lx).sum()
    d2_ll = -s.r / lam ** 2
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        L, q, p = blocks
        m = s.n - s.r
        c2, _ = _censor_coefficients(q, p)
        d2_aa += m * L ** 2 * c2
        d2_al -= m * L * c2 / lam
        d2_ll -= m * (p * q + p * p) / lam ** 2
    tail = _log_q_tail(alpha, lam, s)
    if tail is not None:
        d2_ll -= tail[0] / lam ** 2
    return float(d2_aa), float(d2_al), float(d2_ll)


def third_derivatives_ref(alpha, lam, s):
    """(l30, l03, l21, l12)."""
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    l30 = 2.0 * s.r / alpha ** 3 - lam * (xa * (lx ** 2 * lx)).sum()
    l03 = 2.0 * s.r / lam ** 3
    l21 = -(xa * lx ** 2).sum()
    l12 = 0.0
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        L, q, p = blocks
        m = s.n - s.r
        c2, c3 = _censor_coefficients(q, p)
        pq = p * q
        l30 -= m * L ** 3 * c3
        l03 += m * (pq * q + 3.0 * pq * p + 2.0 * (p * p) * p) / lam ** 3
        l21 += m * L ** 2 * c3 / lam
        l12 -= m * L * (c3 - c2) / lam ** 2
    tail = _log_q_tail(alpha, lam, s)
    if tail is not None:
        l03 += 2.0 * tail[0] / lam ** 3
    return float(l30), float(l03), float(l21), float(l12)


# ---------------------------------------------------------------------------
# the Newton MLE over the term-by-term formulas
# ---------------------------------------------------------------------------
#
# A copy of the damped Newton loop on numpy scalars, with its step either by
# Gaussian elimination, as the library takes it in Python floats (the library
# must match this loop in every field and every error), or by LAPACK, as the
# library took it before (the library must agree with that loop to rounding).


def _initial_guess_ref(s):
    i = np.arange(1, s.r + 1)
    y = np.log(-np.log((i - 0.5) / s.n))
    lx = np.log(s.x)
    cx = lx - lx.mean()
    denom = (cx ** 2).sum()
    alpha0 = float((cx * (y - y.mean())).sum() / denom) if denom > 0 else 1.0
    total = float(np.power(s.x, alpha0).sum())
    if not (np.isfinite(alpha0) and alpha0 > 0.05 and 0.0 < total < np.inf):
        alpha0, total = 1.0, float(s.x.sum())
    return alpha0, s.r / total


def _derivatives_ref(alpha, lam, s):
    alpha, lam = np.float64(alpha), np.float64(lam)
    return (log_likelihood_ref(alpha, lam, s), score_ref(alpha, lam, s),
            observed_fisher_ref(alpha, lam, s))


def elimination_solve(h_eta, g_eta):
    """The solution of ``h_eta @ step = -g_eta`` by Gaussian elimination with
    partial pivoting on numpy scalars; raises ``LinAlgError`` at an exactly
    zero pivot, as LAPACK does."""
    (h11, h12), (_, h22) = h_eta
    rows = [[h11, h12, -g_eta[0]], [h12, h22, -g_eta[1]]]
    if np.abs(h12) > np.abs(h11):
        rows.reverse()
    (p0, p1, pb), (o0, o1, ob) = rows
    if p0 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    f = o0 / p0
    u = o1 - f * p1
    if u == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    s2 = (ob - f * pb) / u
    return np.array([(pb - p1 * s2) / p0, s2])


def lapack_solve(h_eta, g_eta):
    return np.linalg.solve(h_eta, -g_eta)


def fit_mle_ref(s, start=None, max_iter=200, solve=elimination_solve):
    """fit_mle as a numpy-scalar Newton loop, from ``start``, else from its own
    regression start, stopping at a score sup-norm below 1e-8 or after
    ``max_iter`` steps."""
    if s.r < 2:
        raise InsufficientDataError(
            f"a two-parameter fit needs at least 2 observed failures, got r={s.r}"
        )
    if np.all(s.x == s.x[0]) and (s.r == s.n or s.u * s.x[0] <= 1.0 + 1e-12):
        raise InsufficientDataError(
            f"all {s.r} observed failures are tied at t={1.0 / s.x[0]:g} and no unit "
            "is censored later, so the likelihood has no maximum"
        )
    with np.errstate(all="ignore"):
        alpha, lam = _initial_guess_ref(s) if start is None else start
        ll, g, fisher = _derivatives_ref(alpha, lam, s)
        iterations = 0
        for iterations in range(1, max(max_iter, 1) + 1):
            if np.abs(g).max() < 1e-8:
                iterations -= 1
                break
            jac = np.array([alpha, lam])
            g_eta = jac * g
            h_eta = (np.array([[fisher[0], fisher[1]], [fisher[1], fisher[2]]])
                     * np.outer(jac, jac) + np.diag(g_eta))
            try:
                step = solve(h_eta, g_eta)
            except np.linalg.LinAlgError:
                step = g_eta
            if not g_eta @ step > 0.0:
                step = g_eta / max(1.0, np.abs(g_eta).max())
            scale = 1.0
            improved = False
            for _ in range(60):
                cand_a = alpha * np.exp(scale * step[0])
                cand_l = lam * np.exp(scale * step[1])
                if 0.0 < cand_a < np.inf and 0.0 < cand_l < np.inf:
                    cand = _derivatives_ref(cand_a, cand_l, s)
                    if np.isfinite(cand[0]) and cand[0] >= ll - 1e-13:
                        improved = True
                        break
                scale *= 0.5
            if not improved:
                break
            alpha, lam, (ll, g, fisher) = cand_a, cand_l, cand
    grad_norm = float(np.abs(g).max())
    if grad_norm >= 1e-8:
        raise ConvergenceError(
            f"Newton solver stopped at grad sup-norm {grad_norm:.3e} "
            f"after {iterations} iterations",
            last_iterate=(float(alpha), float(lam)),
        )
    d2_aa, d2_al, d2_ll = fisher
    det = d2_aa * d2_ll - np.float64(d2_al) ** 2
    if det <= 0 or d2_aa >= 0:
        raise NumericError("observed information is not positive definite at the optimum")
    cov = CovarianceMatrix(v11=float(-d2_ll / det), v12=float(d2_al / det),
                           v22=float(-d2_aa / det))
    return MleFit(alpha_hat=float(alpha), lam_hat=float(lam),
                  theta_hat=float(np.exp(-np.log(lam) / alpha)), loglik=float(ll), cov=cov,
                  iterations=iterations, converged=True, grad_norm=grad_norm)


# ---------------------------------------------------------------------------
# finite differences of the log-likelihood
# ---------------------------------------------------------------------------


def fd_gradient(alpha, lam, s, rel_step=1e-6):
    out = []
    for i, center in enumerate((alpha, lam)):
        h = rel_step * max(1.0, abs(center))
        args = [alpha, lam]
        args[i] = center + h
        hi = log_likelihood(args[0], args[1], s)
        args[i] = center - h
        lo = log_likelihood(args[0], args[1], s)
        out.append((hi - lo) / (2 * h))
    return np.array(out)


def fd_hessian(alpha, lam, s, rel_step=5e-5):
    ha = rel_step * max(1.0, abs(alpha))
    hl = rel_step * max(1.0, abs(lam))

    def f(a, l):
        return log_likelihood(a, l, s)

    d2_aa = (f(alpha + ha, lam) - 2 * f(alpha, lam) + f(alpha - ha, lam)) / ha ** 2
    d2_ll = (f(alpha, lam + hl) - 2 * f(alpha, lam) + f(alpha, lam - hl)) / hl ** 2
    d2_al = (f(alpha + ha, lam + hl) - f(alpha + ha, lam - hl)
             - f(alpha - ha, lam + hl) + f(alpha - ha, lam - hl)) / (4 * ha * hl)
    return np.array([[d2_aa, d2_al], [d2_al, d2_ll]])


def _fd_thirds_once(alpha, lam, s, rel_step):
    ha = rel_step * abs(alpha)
    hl = rel_step * abs(lam)

    def f(a, l):
        return log_likelihood(a, l, s)

    def third_1d(center, g):
        h = rel_step * abs(center)
        return (g(center + 2 * h) - 2 * g(center + h)
                + 2 * g(center - h) - g(center - 2 * h)) / (2 * h ** 3)

    l30 = third_1d(alpha, lambda a: f(a, lam))
    l03 = third_1d(lam, lambda l: f(alpha, l))

    def d2a(l):
        return (f(alpha + ha, l) - 2 * f(alpha, l) + f(alpha - ha, l)) / ha ** 2

    def d2l(a):
        return (f(a, lam + hl) - 2 * f(a, lam) + f(a, lam - hl)) / hl ** 2

    l21 = (d2a(lam + hl) - d2a(lam - hl)) / (2 * hl)
    l12 = (d2l(alpha + ha) - d2l(alpha - ha)) / (2 * ha)
    return np.array([l30, l03, l21, l12])


def fd_third_derivatives(alpha, lam, s, rel_step=2e-3):
    """(l30, l03, l21, l12) by pure log-likelihood stencils.

    Steps are relative to each parameter (the lam-derivatives scale like
    1/lam**3, so absolute steps ruin the stencil for small lam) and a
    Richardson pass removes the O(h**2) truncation so moderately large,
    roundoff-safe steps can be used.
    """
    coarse = _fd_thirds_once(alpha, lam, s, 2 * rel_step)
    fine = _fd_thirds_once(alpha, lam, s, rel_step)
    return tuple((4 * fine - coarse) / 3)


# ---------------------------------------------------------------------------
# nested quadrature over the exact joint posterior
# ---------------------------------------------------------------------------


def _inner_lam_integral(alpha, s, priors, lam_power=0.0, m=None):
    """log of integral over lam of lam**(r+c-1+lam_power) e**(-lam S) h(alpha,lam)."""
    S = priors.d + (s.x ** alpha).sum()
    shape = s.r + priors.c + lam_power
    if shape <= 0:
        return -np.inf
    m = s.n - s.r if m is None else m
    base = special.gammaln(shape) - shape * np.log(S)
    if m == 0:
        return base
    v = s.u ** (-alpha)
    g = stats.gamma(shape, scale=1.0 / S)
    lo, hi = g.ppf(1e-13), g.ppf(1 - 1e-13)

    def integrand(lam):
        with np.errstate(divide="ignore"):
            return g.pdf(lam) * np.exp(m * np.log1p(-np.exp(-lam * v)))

    expectation, _ = integrate.quad(integrand, lo, hi, limit=300)
    if expectation <= 0:
        return -np.inf
    return base + np.log(expectation)


def posterior_quadrature_means(s: ReciprocalSample, priors: GammaPriors):
    """Posterior means of (alpha, lam) by nested adaptive quadrature."""
    slx = np.log(s.x).sum()

    def log_marginal(alpha, lam_power=0.0):
        return ((priors.a + s.r - 1.0) * np.log(alpha) - priors.b * alpha
                + (alpha + 1.0) * slx
                + _inner_lam_integral(alpha, s, priors, lam_power))

    def objective(a):
        value = log_marginal(a)
        return -value if np.isfinite(value) else 1e300

    mode = optimize.minimize_scalar(objective, bounds=(1e-2, 50.0), method="bounded").x
    offset = log_marginal(mode)
    lo, hi = 1e-4, 80.0

    def density(alpha, lam_power=0.0, factor=lambda a: 1.0):
        return np.exp(log_marginal(alpha, lam_power) - offset) * factor(alpha)

    norm = integrate.quad(density, lo, hi, limit=400)[0]
    mean_alpha = integrate.quad(lambda a: density(a, factor=lambda a: a),
                                lo, hi, limit=400)[0] / norm
    mean_lam = integrate.quad(lambda a: density(a, lam_power=1.0),
                              lo, hi, limit=400)[0] / norm
    return mean_alpha, mean_lam


def g2_quadrature_cdf(s, priors, grid):
    """Normalized cdf of g2 on a grid, by trapezoid integration of exp(log g2)."""
    from iwhc import g2_log_density

    logd = g2_log_density(grid, s, priors)
    dens = np.exp(logd - logd.max())
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    return cdf / cdf[-1]


# ---------------------------------------------------------------------------
# streamed null distribution of the distance statistic
# ---------------------------------------------------------------------------


def null_sf_streaming(d, n, sims, seed):
    """P(D >= d) by re-simulating the null in blocks and counting exceedances.

    Keeps no table: every call redraws and re-sorts all ``sims`` uniform
    samples of size ``n`` from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1) / n
    exceed = 0
    left = sims
    while left > 0:
        block = min(left, 50_000)
        u = np.sort(rng.random((block, n)), axis=1)
        stat = np.abs(ranks - u).max(axis=1)
        exceed += int((stat >= d - 1e-12).sum())
        left -= block
    return exceed / sims


# ---------------------------------------------------------------------------
# weighted quantiles and HPD windows over a stable sort
# ---------------------------------------------------------------------------


def stable_sorted_cum(values, weights):
    """Values in stable ascending order and their cumulative weights over the
    total."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    return v[order], np.cumsum(w[order]) / w.sum()


def weighted_quantile_ref(values, weights, beta):
    """The first value, in stable sorted order, whose cumulative weight
    reaches ``beta``."""
    vs, cum = stable_sorted_cum(values, weights)
    idx = int(np.searchsorted(cum, beta, side="left"))
    return float(vs[min(idx, vs.size - 1)])


def hpd_interval_ref(values, weights, level):
    """(lower, upper) of the shortest window (q(j/M), q((j + k)/M)), k =
    floor(level*M), with the quantiles of :func:`weighted_quantile_ref`."""
    vs, cum = stable_sorted_cum(values, weights)
    m = vs.size
    k = int(np.floor(level * m))
    js = np.arange(1, m - k + 1)
    lo_idx = np.minimum(np.searchsorted(cum, js / m, side="left"), m - 1)
    hi_idx = np.minimum(np.searchsorted(cum, (js + k) / m, side="left"), m - 1)
    with np.errstate(invalid="ignore"):     # inf - inf where both ends are one infinity
        j = int(np.argmin(vs[hi_idx] - vs[lo_idx]))
    return float(vs[lo_idx[j]]), float(vs[hi_idx[j]])


# ---------------------------------------------------------------------------
# Lindley corrections and the g1 rate, term by term
# ---------------------------------------------------------------------------


def lindley_estimates_ref(fit, priors, s):
    """(alpha_L, lambda_L) at a converged fit, in Python-float arithmetic over
    the term-by-term third derivatives and the prior gradient
    p1 = (a-1)/alpha_hat - b, p2 = (c-1)/lam_hat - d."""
    l30, l03, l21, l12 = third_derivatives_ref(fit.alpha_hat, fit.lam_hat, s)
    p1 = (priors.a - 1.0) / fit.alpha_hat - priors.b
    p2 = (priors.c - 1.0) / fit.lam_hat - priors.d
    t11, t12, t22 = fit.cov.v11, fit.cov.v12, fit.cov.v22
    t21 = t12
    corr_a = 0.5 * (l30 * t11 ** 2 + l03 * t21 * t22 + 3.0 * l21 * t11 * t12
                    + l12 * (t22 * t11 + 2.0 * t21 ** 2))
    corr_l = 0.5 * (l30 * t12 * t11 + l03 * t22 ** 2 + l21 * (t11 * t22 + 2.0 * t12 ** 2)
                    + 3.0 * l12 * t22 * t21)
    return (fit.alpha_hat + corr_a + p1 * t11 + p2 * t12,
            fit.lam_hat + corr_l + p1 * t21 + p2 * t22)


def g1_rate_ref(s, priors, alphas):
    """The g1 rate d + sum x**alpha at each alpha, by direct powers."""
    return priors.d + (s.x[:, None] ** np.asarray(alphas)).sum(0)


# ---------------------------------------------------------------------------
# the g2 sampler's setup and the importance-sampling summaries on numpy
# ---------------------------------------------------------------------------
#
# A plain copy of the sampler (one tangent table, one envelope, rounds drawn
# from it) and of the summaries as they ran on numpy scalars and small
# arrays; the library must match them in every bit and every error.


def _log_rate_sums_ref(alpha, lx, d, order):
    top = lx.max()
    e = np.multiply.outer(lx - top, alpha)
    np.exp(e, out=e)
    total = e.sum(axis=0)
    log_sum = alpha * top + np.log(total)
    out = [log_sum if d == 0 else np.logaddexp(np.log(d), log_sum)]
    if order:
        with np.errstate(over="ignore"):
            denom = total if d == 0 else total + d * np.exp(-alpha * top)
        out += [(lx ** k @ e) / denom for k in range(1, order + 1)]
    return out


def g2_terms_ref(alpha, s, priors, order):
    """``[log(d + S_0), log g2]``, and ``(log g2)'`` where ``order`` is 1."""
    log_rate, *ratio = _log_rate_sums_ref(alpha, np.log(s.x), priors.d, order)
    shape, k, slx = s.r + priors.c, priors.a + s.r - 1.0, float(np.log(s.x).sum())
    out = [log_rate, -shape * log_rate + k * np.log(alpha) - priors.b * alpha
           + (alpha + 1.0) * slx]
    if order:
        out.append(-shape * ratio[0] + k / alpha - priors.b + slx)
    return out


_IMPROPER_REF = "the alpha posterior is improper for these data and priors"


def tangent_table_ref(s, priors):
    """``(alpha, log g2, slope)`` at the 64 tangent points of the sampler:
    evenly spaced in log alpha from log alpha0 -+ 3, each end that is within
    40 of the top (or the upper end while it rises) moved out by the width,
    within log alpha = +-80; then, where fewer than 48 points lie within 40,
    once more over those points and one beyond each side."""
    k = priors.a + s.r - 1.0
    lx = np.log(s.x)
    rounding = 8.0 * np.finfo(float).eps * (abs((s.r + priors.c) * float(lx.max()))
                                            + abs(float(lx.sum())) + priors.b)
    with np.errstate(over="ignore"):
        lo = math.log(_initial_guess_ref(s)[0]) - 3.0
    hi = lo + 6.0
    while True:
        eta = np.linspace(lo, hi, 64)
        alpha = np.exp(eta)
        _, h, d = g2_terms_ref(alpha, s, priors, 1)
        falling = alpha[d <= 0.0]
        if k > 0 and falling.size and k / falling[0] <= rounding:
            raise InsufficientDataError(f"{_IMPROPER_REF}: the slope of log g2 vanishes only "
                                        f"to rounding at alpha={falling[0]:.3g}")
        within = np.nonzero(h >= h.max() - 40.0)[0]
        i, j = within.min(), within.max()
        grow_lo = i == 0 and lo > -80.0
        grow_hi = j == 63 or d[-1] >= 0.0 or np.isnan(d[-1])
        if not grow_lo and not grow_hi:
            break
        if grow_hi and hi >= 80.0:
            if d[-1] < 0.0:
                raise NumericError("g2 turns over but has not fallen 40 below its top by "
                                   "alpha=e^80, the end of the sampler's range, so its mass "
                                   "lies beyond the draws it can make")
            raise InsufficientDataError(
                f"{_IMPROPER_REF}: log g2 is still rising at alpha={alpha[-1]:.3g}")
        width = hi - lo
        if grow_lo:
            lo = max(lo - width, -80.0)
        if grow_hi:
            hi = min(hi + width, 80.0)
    if j - i < 48:
        alpha = np.exp(np.linspace(eta[max(i - 1, 0)], eta[j + 1], 64))
        _, h, d = g2_terms_ref(alpha, s, priors, 1)
    return alpha, h, d


def envelope_ref(x, h, d):
    """``(cum, z, width, start, peak, fall, flat)`` of the envelope under the
    tangents at x: segment j runs between the crossings z[j] and z[j + 1]
    of its tangent with its neighbours' and has its highest log value peak
    at start; a flat one (|d| * width < 1e-12) has fall 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = d[:-1] - d[1:]
        cross = (h[1:] - h[:-1] + x[:-1] * d[:-1] - x[1:] * d[1:]) / gap
        cross[gap <= 1e-14] = (0.5 * (x[:-1] + x[1:]))[gap <= 1e-14]
        z = np.concatenate(([0.0], cross, [np.inf]))
        width = np.clip(z[1:] - z[:-1], 0.0, None)
        start = np.where(d > 0.0, z[1:], z[:-1])
        peak = h + d * (start - x)
        flat = np.abs(d) * width < 1e-12
        fall = np.expm1(-np.abs(d) * width)
        mass = np.where(flat, width, -fall / np.abs(d))
        logmass = peak + np.log(mass)
        cum = np.cumsum(np.exp(logmass - logmass.max()))
    if not (cum[-1] > 0.0 and np.isfinite(cum[-1])):
        raise InsufficientDataError(f"{_IMPROPER_REF}: the envelope of g2 has no finite mass")
    return cum, z, width, start, peak, np.where(flat, 0.0, fall), flat


def propose_ref(columns, d, size, rng):
    """``size`` draws from the envelope of :func:`envelope_ref` with slopes
    d, and the log of the envelope at each: a segment by the cumulative
    masses, then its inverse cdf at a second uniform xi."""
    cum, z, width, start, peak, fall, flat = columns
    j = np.minimum(np.searchsorted(cum, rng.random(size) * cum[-1], side="right"), cum.size - 1)
    xi = rng.random(size)
    drop = np.log1p(xi * fall[j])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = start[j] + drop / d[j]
    return np.where(flat[j], z[j] + xi * width[j], t), peak[j] + drop


def sample_g2_ref(count, s, priors, rng):
    """``(draws, info)`` of the sampler over the copies above."""
    if s.r < 1:
        raise InsufficientDataError("g2 requires at least one observed failure")
    x, h, d = tangent_table_ref(s, priors)
    columns = envelope_ref(x, h, d)
    draws = np.empty(count)
    log_rate = np.empty(count)
    filled = proposals = accepted = rounds = 0
    while filled < count:
        need = count - filled
        t, log_env = propose_ref(columns, d, need + need // 16 + 4, rng)
        ok = (t > 0.0) & np.isfinite(t)
        t, log_env = t[ok], log_env[ok]
        lr, hval = g2_terms_ref(t, s, priors, 0)
        hit = np.log(rng.random(t.size)) + log_env <= hval
        got = np.nonzero(hit)[0][:need]
        draws[filled:filled + got.size] = t[got]
        log_rate[filled:filled + got.size] = lr[got]
        filled += got.size
        proposals += t.size
        accepted += int(hit.sum())
        rounds += 1
    return draws, {"acceptance_ratio": accepted / proposals, "rounds": rounds,
                   "log_rate": log_rate}


def draw_lams_ref(log_rate, shape, rng):
    """One Gamma(shape, rate exp(log_rate)) draw per element of
    ``log_rate``: a Gamma(shape, scale 1) draw over the rate, taken in
    logs; a draw beyond the float64 range raises ``NumericError``."""
    gammas = rng.gamma(shape, 1.0, size=np.shape(log_rate))
    with np.errstate(over="ignore", divide="ignore"):
        lams = np.exp(np.log(gammas) - log_rate)
    bad = int(np.count_nonzero(~((lams > 0) & np.isfinite(lams))))
    if bad:
        raise NumericError(
            f"{bad} of {lams.size} lam draws from g1 overflow or underflow float64: "
            f"the log rate log(d + sum x**alpha) reaches {np.min(log_rate):.4g} "
            f"to {np.max(log_rate):.4g} at these alphas")
    return lams


def hpd_interval_numpy_ref(values, weights, level):
    """(lower, upper) as the library computed them on numpy, window ends by
    two searches."""
    from iwhc.posterior import _sorted_cum

    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = v.size
    vs, cum = _sorted_cum(v, w)
    k = int(np.floor(level * m))
    js = np.arange(1, m - k + 1)
    lo_idx = np.minimum(np.searchsorted(cum, js / m, side="left"), m - 1)
    hi_idx = np.minimum(np.searchsorted(cum, (js + k) / m, side="left"), m - 1)
    with np.errstate(invalid="ignore"):
        lengths = vs[hi_idx] - vs[lo_idx]
    j = int(np.argmin(lengths))
    return float(vs[lo_idx[j]]), float(vs[hi_idx[j]])


def bayes_is_ref(s, priors, count, seed, level=0.95, theta=True):
    """Every field of ``bayes_is`` as a tuple: (draws, weights, acceptance
    ratio, then mean, variance, HPD lower and upper of alpha, lam and, where
    ``theta``, theta).  Raises what the library raised: the typed errors,
    and ``NumericError`` for a degenerate interval."""
    if s.r < 1:
        raise InsufficientDataError("posterior sampling needs at least one failure")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    alphas, info = sample_g2_ref(count, s, priors, rng)
    lams = draw_lams_ref(info["log_rate"], s.r + priors.c, rng)
    if s.n == s.r:
        weights = np.full(count, 1.0 / count)
    else:
        # log(1 - e**-q), read as log q where q underflows
        tiny = np.finfo(float).tiny
        log_q = np.log(lams) - alphas * s.log_u
        with np.errstate(over="ignore"):
            q = np.maximum(np.exp(np.minimum(log_q, 709.0)), tiny)
        lw = (s.n - s.r) * np.where(log_q < np.log(tiny), log_q, np.log(-np.expm1(-q)))
        w = np.exp(lw - lw.max())
        total = w.sum()
        if not total > 0:
            raise DegenerateWeightsError("all importance weights underflowed to zero")
        weights = w / total
    out = [alphas, lams, weights, info["acceptance_ratio"]]
    with np.errstate(over="ignore"):
        thetas = np.exp(-np.log(lams) / alphas)
    for values in (alphas, lams, thetas)[:3 if theta else 2]:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float((values * weights).sum())
            var = float((((values - mean) ** 2) * weights).sum())
        if not (np.isfinite(mean) and np.isfinite(var)):
            raise NumericError(f"the weighted mean or variance overflows float64 "
                               f"(mean={mean:.4g}, variance={var:.4g})")
        lo, hi = hpd_interval_numpy_ref(values, weights, level)
        if not lo < hi:
            raise NumericError(f"degenerate interval ({lo}, {hi}): the largest weight is "
                               f"{weights.max():.4g}, the ESS {1.0 / (weights ** 2).sum():.4g} "
                               f"of {weights.size} draws")
        out += [mean, var, lo, hi]
    return tuple(out)


# ---------------------------------------------------------------------------
# the study harness as one loop
# ---------------------------------------------------------------------------


def run_study_ref(config):
    """``run_study`` as one loop over cells and replicates that records and
    counts failures in three dicts per cell, as the harness did before it was
    split into per-replicate records and a merge.  Each cell's replicates
    draw their data in order from one generator on the cell's stream, with
    no jump."""
    from iwhc.harness import _FIT_ERRORS, CellMetric, SimulationSummary

    def se(values):
        """numpy's standard error of the mean, NaN for fewer than two values."""
        if values.size < 2:
            return float("nan")
        return float(values.std(ddof=1) / np.sqrt(values.size))

    truth = {"alpha": config.true_alpha, "lambda": config.true_lambda}
    params = IwParams.from_rate(config.true_alpha, config.true_lambda)
    want_mle = "mle" in config.methods
    want_lin = "lindley" in config.methods
    want_is = "is" in config.methods
    rows = []
    estimates = {}
    lengths = {}

    for cell_idx, (n, T, R) in enumerate(config.cells):
        scheme = HybridScheme(n=int(n), R=int(R), T=float(T))
        est = {}
        lens = {}
        fails = {}

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

        # the cell's data stream, read in replicate order
        data_rng = np.random.default_rng(
            np.random.SeedSequence((config.base_seed, cell_idx), spawn_key=(0,)))
        for rep in range(config.replicates):
            entropy = (config.base_seed, cell_idx, rep)
            data = sample(scheme.n, params, data_rng)
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
                    se_average=se(vals),
                    se_mse=se(errors2),
                    se_interval_length=se(lvals) if lvals.size else None,
                    replicates_used=int(vals.size),
                    failures=n_fail,
                ))
                estimates[(cell_idx, method, pi, parameter)] = vals
                if lvals.size:
                    lengths[(cell_idx, method, pi, parameter)] = lvals
    return SimulationSummary(config=config, rows=rows, estimates=estimates, lengths=lengths)
