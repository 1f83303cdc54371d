"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's analytic derivative and
sampling code paths: derivatives come from finite differences of the
log-likelihood alone, and posterior moments come from nested adaptive
quadrature of the joint posterior density.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, special, stats

from iwhc import GammaPriors, ReciprocalSample, log_likelihood


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
