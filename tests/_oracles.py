"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's analytic derivative and
sampling code paths: the reference formulas compute each derivative on its
own, finite differences use the log-likelihood alone, and posterior moments
come from nested adaptive quadrature of the joint posterior density.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, special, stats

from iwhc import GammaPriors, ReciprocalSample, log_likelihood


# ---------------------------------------------------------------------------
# term-by-term formulas of the log-likelihood and its derivatives
# ---------------------------------------------------------------------------
#
# Each function below computes its own power sums and censoring terms, in the
# same arithmetic as the library's shared derivative kernel, so the kernel
# must match them exactly.


def _censor_terms(alpha, lam, s):
    """(L, q, wD) with L=log u, q=lam*u**-alpha, wD=1/expm1(q); None if r==n."""
    if s.n == s.r:
        return None
    L = np.log(s.u)
    q = np.exp(min(np.log(lam) - alpha * L, 709.0))
    q = max(q, np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        e = np.expm1(q)
    wD = 0.0 if np.isinf(e) else 1.0 / e
    return L, q, wD


def log_likelihood_ref(alpha, lam, s):
    x = s.x
    out = s.r * np.log(alpha * lam) - lam * (x ** alpha).sum() + (alpha + 1.0) * np.log(x).sum()
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        _, q, _ = blocks
        out += (s.n - s.r) * np.log(-np.expm1(-q))
    return float(out)


def score_ref(alpha, lam, s):
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    d_a = s.r / alpha - lam * (xa * lx).sum() + lx.sum()
    d_l = s.r / lam - xa.sum()
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        L, q, wD = blocks
        m = s.n - s.r
        d_a -= m * L * q * wD
        d_l += m * (q / lam) * wD
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
        L, q, wD = blocks
        m = s.n - s.r
        wD2 = wD * wD
        d2_aa += m * L ** 2 * q * (1.0 - q) * wD - m * L ** 2 * q ** 2 * wD2
        d2_al += -m * L * (q / lam) * (1.0 - q) * wD + m * L * (q ** 2 / lam) * wD2
        d2_ll += -m * (q / lam) ** 2 * (wD + wD2)
    return float(d2_aa), float(d2_al), float(d2_ll)


def third_derivatives_ref(alpha, lam, s):
    """(l30, l03, l21, l12)."""
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    l30 = 2.0 * s.r / alpha ** 3 - lam * (xa * lx ** 3).sum()
    l03 = 2.0 * s.r / lam ** 3
    l21 = -(xa * lx ** 2).sum()
    l12 = 0.0
    blocks = _censor_terms(alpha, lam, s)
    if blocks is not None:
        L, q, wD = blocks
        m = s.n - s.r
        wD2 = wD * wD
        wD3 = wD2 * wD
        poly = 1.0 - 3.0 * q + q * q
        l30 += m * L ** 3 * (-q * poly * wD + 3.0 * q ** 2 * (1.0 - q) * wD2
                             - 2.0 * q ** 3 * wD3)
        l03 += m * (q / lam) ** 3 * (wD + 3.0 * wD2 + 2.0 * wD3)
        l21 += m * L ** 2 * ((q / lam) * poly * wD
                             - 3.0 * (q ** 2 / lam) * (1.0 - q) * wD2
                             + 2.0 * (q ** 3 / lam) * wD3)
        l12 += m * L * ((q / lam) ** 2 * (2.0 - q) * wD
                        + (q / lam) ** 2 * (2.0 - 3.0 * q) * wD2
                        - 2.0 * (q ** 3 / lam ** 2) * wD3)
    return float(l30), float(l03), float(l21), float(l12)


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
# Lindley corrections and the g1 rate, term by term
# ---------------------------------------------------------------------------


def lindley_estimates_ref(ws, fit):
    """(alpha_L, lambda_L) from a workspace, in Python-float arithmetic."""
    t11, t12, t22 = ws.tau.v11, ws.tau.v12, ws.tau.v22
    t21 = t12
    corr_a = 0.5 * (ws.l30 * t11 ** 2 + ws.l03 * t21 * t22
                    + 3.0 * ws.l21 * t11 * t12
                    + ws.l12 * (t22 * t11 + 2.0 * t21 ** 2))
    corr_l = 0.5 * (ws.l30 * t12 * t11 + ws.l03 * t22 ** 2
                    + ws.l21 * (t11 * t22 + 2.0 * t12 ** 2)
                    + 3.0 * ws.l12 * t22 * t21)
    return (fit.alpha_hat + corr_a + ws.p1 * t11 + ws.p2 * t12,
            fit.lam_hat + corr_l + ws.p1 * t21 + ws.p2 * t22)


def g1_rate_ref(s, priors, alphas):
    """The g1 rate d + sum x**alpha at each alpha, by direct powers."""
    return priors.d + (s.x[:, None] ** np.asarray(alphas)).sum(0)
