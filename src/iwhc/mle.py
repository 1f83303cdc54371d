"""Likelihood, score, observed information and Newton MLE for hybrid censored
inverse Weibull data, in the (alpha, lam) rate parametrization.

With reciprocal data ``x_i = 1/t_(i)`` the log-likelihood is

    l(alpha, lam) = r*log(alpha*lam) - lam*sum(x_i**alpha)
                    + (alpha+1)*sum(log x_i)
                    + (n-r)*log(1 - exp(-lam * u**-alpha))

and the censoring term vanishes for complete samples (r == n).  Every
censoring contribution below is expressed through ``q = lam * u**-alpha`` and
``1/expm1(q) = e^-q/(1-e^-q)``, which stays finite for extreme parameters.
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
        if not (self.v11 > 0 and self.v22 > 0 and self.v11 * self.v22 - self.v12 ** 2 > 0):
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


def _check(alpha: float, lam: float, s: ReciprocalSample, min_r: int = 1) -> None:
    if s.r < min_r:
        raise InsufficientDataError(f"need at least {min_r} observed failures, got r={s.r}")
    if not (alpha > 0 and lam > 0 and np.isfinite(alpha) and np.isfinite(lam)):
        raise DomainError(f"alpha and lam must be positive, got ({alpha}, {lam})")


def _censor_blocks(alpha: float, lam: float, s: ReciprocalSample):
    """(L, q, wD) with L=log u, q=lam*u**-alpha, wD=1/expm1(q); None if r==n."""
    if s.n == s.r:
        return None
    L = np.log(s.u)
    q = np.exp(min(np.log(lam) - alpha * L, 709.0))
    q = max(q, _TINY)
    with np.errstate(over="ignore"):
        e = np.expm1(q)
    wD = 0.0 if np.isinf(e) else 1.0 / e
    return L, q, wD


def log_likelihood(alpha: float, lam: float, s: ReciprocalSample) -> float:
    _check(alpha, lam, s)
    x = s.x
    out = s.r * np.log(alpha * lam) - lam * (x ** alpha).sum() + (alpha + 1.0) * np.log(x).sum()
    blocks = _censor_blocks(alpha, lam, s)
    if blocks is not None:
        _, q, _ = blocks
        out += (s.n - s.r) * np.log(-np.expm1(-q))
    return float(out)


def score(alpha: float, lam: float, s: ReciprocalSample) -> tuple[float, float]:
    """Gradient of :func:`log_likelihood` in (alpha, lam)."""
    _check(alpha, lam, s)
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    d_a = s.r / alpha - lam * (xa * lx).sum() + lx.sum()
    d_l = s.r / lam - xa.sum()
    blocks = _censor_blocks(alpha, lam, s)
    if blocks is not None:
        L, q, wD = blocks
        m = s.n - s.r
        d_a -= m * L * q * wD
        d_l += m * (q / lam) * wD
    return float(d_a), float(d_l)


def observed_fisher(alpha: float, lam: float, s: ReciprocalSample) -> FisherMatrix:
    """Second partials of the log-likelihood; negate to get observed information."""
    _check(alpha, lam, s)
    x = s.x
    lx = np.log(x)
    xa = x ** alpha
    d2_aa = -s.r / alpha ** 2 - lam * (xa * lx ** 2).sum()
    d2_al = -(xa * lx).sum()
    d2_ll = -s.r / lam ** 2
    blocks = _censor_blocks(alpha, lam, s)
    if blocks is not None:
        L, q, wD = blocks
        m = s.n - s.r
        wD2 = wD * wD
        d2_aa += m * L ** 2 * q * (1.0 - q) * wD - m * L ** 2 * q ** 2 * wD2
        d2_al += -m * L * (q / lam) * (1.0 - q) * wD + m * L * (q ** 2 / lam) * wD2
        d2_ll += -m * (q / lam) ** 2 * (wD + wD2)
    return FisherMatrix(float(d2_aa), float(d2_al), float(d2_ll))


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
    if not np.isfinite(alpha0) or alpha0 <= 0.05:
        alpha0 = 1.0
    lam0 = s.r / float((s.x ** alpha0).sum())
    return alpha0, lam0


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
    if config.alpha0 is not None and config.lam0 is not None:
        alpha, lam = config.alpha0, config.lam0
    else:
        alpha, lam = _initial_guess(s)
    ll = log_likelihood(alpha, lam, s)
    iterations = 0
    for iterations in range(1, max(config.max_iter, 1) + 1):
        g = np.array(score(alpha, lam, s))
        if np.abs(g).max() < config.tol:
            iterations -= 1
            break
        fisher = observed_fisher(alpha, lam, s)
        # chain rule to eta = (log alpha, log lam)
        jac = np.array([alpha, lam])
        g_eta = jac * g
        h_eta = fisher.as_matrix() * np.outer(jac, jac) + np.diag(jac * g)
        try:
            step = np.linalg.solve(h_eta, -g_eta)
        except np.linalg.LinAlgError:
            step = g_eta
        if g_eta @ step <= 0.0:
            step = g_eta / max(1.0, np.abs(g_eta).max())
        scale = 1.0
        improved = False
        for _ in range(60):
            cand_a = alpha * np.exp(scale * step[0])
            cand_l = lam * np.exp(scale * step[1])
            with np.errstate(all="ignore"):
                cand_ll = log_likelihood(cand_a, cand_l, s)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-13:
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        alpha, lam, ll = cand_a, cand_l, cand_ll
    g = np.array(score(alpha, lam, s))
    grad_norm = float(np.abs(g).max())
    if grad_norm >= config.tol:
        raise ConvergenceError(
            f"Newton solver stopped at grad sup-norm {grad_norm:.3e} "
            f"after {iterations} iterations",
            last_iterate=(float(alpha), float(lam)),
        )
    fisher = observed_fisher(alpha, lam, s)
    det = fisher.d2_aa * fisher.d2_ll - fisher.d2_al ** 2
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
