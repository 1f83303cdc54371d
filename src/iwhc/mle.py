"""Likelihood, score, observed information and Newton MLE for hybrid censored
inverse Weibull data, in the (alpha, lam) rate parametrization.

With reciprocal data ``x_i = 1/t_(i)`` the log-likelihood is

    l(alpha, lam) = r*log(alpha*lam) - lam*sum(x_i**alpha)
                    + (alpha+1)*sum(log x_i)
                    + (n-r)*log(1 - exp(-lam * u**-alpha))

and the censoring term vanishes for complete samples (r == n).  The value and
every partial up to third order come from one kernel, ``_derivatives``, built
on the power sums ``S_k = sum x**alpha * (log x)**k`` and on ``q = lam *
u**-alpha`` and ``1/expm1(q) = e^-q/(1-e^-q)``, which stays finite for
extreme parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .censoring import ReciprocalSample
from .errors import ConvergenceError, DomainError, InsufficientDataError, NumericError

__all__ = [
    "FisherMatrix",
    "CovarianceMatrix",
    "MleFit",
    "ConfidenceInterval",
    "SolverConfig",
    "log_likelihood",
    "score",
    "observed_fisher",
    "fit_mle",
    "asymptotic_ci",
]


@dataclass(frozen=True)
class FisherMatrix:
    """Second partials of the log-likelihood at a point (symmetric 2x2)."""

    d2_aa: float
    d2_al: float
    d2_ll: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.d2_aa, self.d2_al], [self.d2_al, self.d2_ll]])


@dataclass(frozen=True)
class CovarianceMatrix:
    """Inverse of the negated observed information at the MLE."""

    v11: float
    v12: float
    v22: float

    def __post_init__(self):
        if not (self.v11 > 0 and self.v22 > 0 and self.v11 * self.v22 - self.v12 * self.v12 > 0):
            raise NumericError(
                "covariance matrix is not positive definite: "
                f"v11={self.v11}, v12={self.v12}, v22={self.v22}"
            )

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.v11, self.v12], [self.v12, self.v22]])


@dataclass(frozen=True)
class MleFit:
    alpha_hat: float
    lam_hat: float
    theta_hat: float
    loglik: float
    cov: CovarianceMatrix
    iterations: int
    converged: bool
    grad_norm: float


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise NumericError(f"degenerate interval ({self.lower}, {self.upper})")

    @property
    def length(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8          # sup-norm of the score at the solution
    max_iter: int = 200
    alpha0: float | None = None
    lam0: float | None = None


_TINY = np.finfo(float).tiny


def _censor_q(alpha, lam, log_u):
    """q = lam * u**-alpha, elementwise, clamped to [tiny, e**709] so that
    ``expm1(q)`` overflows cleanly and ``log(-expm1(-q))`` stays finite."""
    with np.errstate(over="ignore"):
        q = np.exp(np.minimum(np.log(lam) - alpha * log_u, 709.0))
    return np.maximum(q, _TINY)


def _derivatives(alpha: float, lam: float, s: ReciprocalSample, order: int) -> list:
    """The log-likelihood and its partials up to ``order`` (0 to 3) at one point.

    Entry k of the result holds the order-k terms: the value, then
    (d_a, d_l), then a :class:`FisherMatrix`, then (l30, l03, l21, l12).
    """
    if s.r < 1:
        raise InsufficientDataError(f"need at least 1 observed failures, got r={s.r}")
    if not (alpha > 0 and lam > 0 and np.isfinite(alpha) and np.isfinite(lam)):
        raise DomainError(f"alpha and lam must be positive, got ({alpha}, {lam})")
    # numpy scalars overflow to inf where Python floats would raise
    alpha, lam = np.float64(alpha), np.float64(lam)
    xa = s.x ** alpha
    lx = np.log(s.x)
    S = [xa.sum()] + [(xa * lx ** k).sum() for k in range(1, order + 1)]
    slx = lx.sum()
    r, m = s.r, s.n - s.r
    ll = r * np.log(alpha * lam) - lam * S[0] + (alpha + 1.0) * slx
    if m:
        L = np.log(s.u)
        q = _censor_q(alpha, lam, L)
        ll += m * np.log(-np.expm1(-q))
        with np.errstate(over="ignore"):
            wD = 1.0 / np.expm1(q)
    out = [float(ll)]
    if order >= 1:
        d_a = r / alpha - lam * S[1] + slx
        d_l = r / lam - S[0]
        if m:
            d_a -= m * L * q * wD
            d_l += m * (q / lam) * wD
        out.append((float(d_a), float(d_l)))
    if order >= 2:
        d2_aa = -r / alpha ** 2 - lam * S[2]
        d2_al = -S[1]
        d2_ll = -r / lam ** 2
        if m:
            wD2 = wD * wD
            d2_aa += m * L ** 2 * q * (1.0 - q) * wD - m * L ** 2 * q ** 2 * wD2
            d2_al += -m * L * (q / lam) * (1.0 - q) * wD + m * L * (q ** 2 / lam) * wD2
            d2_ll += -m * (q / lam) ** 2 * (wD + wD2)
        out.append(FisherMatrix(float(d2_aa), float(d2_al), float(d2_ll)))
    if order >= 3:
        l30 = 2.0 * r / alpha ** 3 - lam * S[3]
        l03 = 2.0 * r / lam ** 3
        l21 = -S[2]
        l12 = 0.0
        if m:
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
        out.append((float(l30), float(l03), float(l21), float(l12)))
    return out


def log_likelihood(alpha: float, lam: float, s: ReciprocalSample) -> float:
    return _derivatives(alpha, lam, s, 0)[0]


def score(alpha: float, lam: float, s: ReciprocalSample) -> tuple[float, float]:
    """Gradient of :func:`log_likelihood` in (alpha, lam)."""
    return _derivatives(alpha, lam, s, 1)[1]


def observed_fisher(alpha: float, lam: float, s: ReciprocalSample) -> FisherMatrix:
    """Second partials of the log-likelihood; negate to get observed information."""
    return _derivatives(alpha, lam, s, 2)[2]


def _initial_guess(s: ReciprocalSample) -> tuple[float, float]:
    """Regression start: log(-log F_hat) on log x over the observed portion.

    Plotting positions (i - 0.5)/n estimate F at t_(i); under the model
    log(-log F) = log(lam) + alpha*log(x), so the slope estimates alpha.
    """
    i = np.arange(1, s.r + 1)
    y = np.log(-np.log((i - 0.5) / s.n))
    lx = np.log(s.x)
    cx = lx - lx.mean()
    denom = (cx ** 2).sum()
    alpha0 = float((cx * (y - y.mean())).sum() / denom) if denom > 0 else 1.0
    total = float(np.power(s.x, alpha0).sum())
    # alpha = 1 when the slope is useless or x**alpha0 under- or overflows
    if not (np.isfinite(alpha0) and alpha0 > 0.05 and 0.0 < total < np.inf):
        alpha0, total = 1.0, float(s.x.sum())
    return alpha0, s.r / total


def fit_mle(s: ReciprocalSample, config: SolverConfig = SolverConfig()) -> MleFit:
    """Damped Newton ascent on (log alpha, log lam).

    The log parametrization keeps both parameters positive without constraints;
    steps are halved until the log-likelihood does not decrease, and a scaled
    gradient step replaces any Newton direction that fails to ascend.
    """
    if s.r < 2:
        raise InsufficientDataError(
            f"a two-parameter fit needs at least 2 observed failures, got r={s.r}"
        )
    # With every failure at one time t and no unit censored later than t, the
    # profile log-likelihood is r*log(alpha) + const: it has no maximiser.
    if np.all(s.x == s.x[0]) and (s.r == s.n or s.u * s.x[0] <= 1.0 + 1e-12):
        raise InsufficientDataError(
            f"all {s.r} observed failures are tied at t={1.0 / s.x[0]:g} and no unit "
            "is censored later, so the likelihood has no maximum"
        )
    # extreme iterates overflow in the Newton step and the line search; the
    # gradient step replaces a step that is not finite, and a candidate that
    # leaves (0, inf) or whose log-likelihood is not finite is a failed halving
    with np.errstate(all="ignore"):
        if config.alpha0 is not None and config.lam0 is not None:
            alpha, lam = config.alpha0, config.lam0
        else:
            alpha, lam = _initial_guess(s)
        ll, g, fisher = _derivatives(alpha, lam, s, 2)
        iterations = 0
        for iterations in range(1, max(config.max_iter, 1) + 1):
            if np.abs(g).max() < config.tol:
                iterations -= 1
                break
            # chain rule to eta = (log alpha, log lam)
            jac = np.array([alpha, lam])
            g_eta = jac * g
            h_eta = fisher.as_matrix() * np.outer(jac, jac) + np.diag(g_eta)
            try:
                step = np.linalg.solve(h_eta, -g_eta)
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
                    cand = _derivatives(cand_a, cand_l, s, 2)
                    if np.isfinite(cand[0]) and cand[0] >= ll - 1e-13:
                        improved = True
                        break
                scale *= 0.5
            if not improved:
                break
            alpha, lam, (ll, g, fisher) = cand_a, cand_l, cand
    grad_norm = float(np.abs(g).max())
    if grad_norm >= config.tol:
        raise ConvergenceError(
            f"Newton solver stopped at grad sup-norm {grad_norm:.3e} "
            f"after {iterations} iterations",
            last_iterate=(float(alpha), float(lam)),
        )
    # a numpy scalar squares to inf where a Python float would raise
    det = fisher.d2_aa * fisher.d2_ll - np.float64(fisher.d2_al) ** 2
    if det <= 0 or fisher.d2_aa >= 0:
        raise NumericError("observed information is not positive definite at the optimum")
    cov = CovarianceMatrix(
        v11=float(-fisher.d2_ll / det),
        v12=float(fisher.d2_al / det),
        v22=float(-fisher.d2_aa / det),
    )
    theta = float(np.exp(-np.log(lam) / alpha))
    return MleFit(
        alpha_hat=float(alpha),
        lam_hat=float(lam),
        theta_hat=theta,
        loglik=float(ll),
        cov=cov,
        iterations=iterations,
        converged=True,
        grad_norm=grad_norm,
    )


def asymptotic_ci(
    fit: MleFit, level: float = 0.95
) -> tuple[ConfidenceInterval, ConfidenceInterval, ConfidenceInterval]:
    """Normal-theory intervals for (alpha, lam, theta) at the given level.

    alpha and lam use the pivots (hat - true)/sqrt(V_ii); theta uses the delta
    method on theta = lam**(-1/alpha) with gradient
    (theta*log(lam)/alpha**2, -theta/(alpha*lam)) and the full covariance.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    if not fit.converged:
        raise DomainError("confidence intervals require a converged fit")
    z = float(ndtri(0.5 + level / 2.0))
    half_a = z * np.sqrt(fit.cov.v11)
    half_l = z * np.sqrt(fit.cov.v22)
    grad = np.array([
        fit.theta_hat * np.log(fit.lam_hat) / fit.alpha_hat ** 2,
        -fit.theta_hat / (fit.alpha_hat * fit.lam_hat),
    ])
    var_theta = float(grad @ fit.cov.as_matrix() @ grad)
    half_t = z * np.sqrt(var_theta)
    return (
        ConfidenceInterval(fit.alpha_hat - half_a, fit.alpha_hat + half_a, level),
        ConfidenceInterval(fit.lam_hat - half_l, fit.lam_hat + half_l, level),
        ConfidenceInterval(fit.theta_hat - half_t, fit.theta_hat + half_t, level),
    )
