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
extreme parameters.  Where q underflows float64, the censoring term is read in
logs as ``(n-r)*log q``.  The logs of the data come from the sample's cache,
and the scalar arithmetic runs in Python floats, falling back to numpy
scalars (same bits, inf instead of an exception) where a float would raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

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


_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))


def _censor_q(alpha, lam, log_u):
    """``(log q, q)`` for q = lam * u**-alpha, elementwise.  q is clamped to
    [tiny, e**709] so that ``expm1(q)`` overflows cleanly.  Where log q is
    below ``_LOG_TINY``, the censoring factor log(1 - e**-q) is log q to float
    precision, and callers read log q for it."""
    log_q = np.log(lam) - alpha * log_u
    with np.errstate(over="ignore"):
        q = np.exp(np.minimum(log_q, 709.0))
    return log_q, np.maximum(q, _TINY)


def _inv_expm1(q: float) -> float:
    """``1/expm1(q)`` for q > 0; 0 where expm1 overflows (q above about 709.78)."""
    if q < 709.0:
        return 1.0 / float(np.expm1(q))
    with np.errstate(over="ignore"):
        return 1.0 / float(np.expm1(q))


def _derivatives(alpha: float, lam: float, s: ReciprocalSample, order: int) -> list:
    """The log-likelihood and its partials up to ``order`` (0 to 3) at one point.

    Entry k of the result holds the order-k terms as floats: the value, then
    (d_a, d_l), then (d2_aa, d2_al, d2_ll), then (l30, l03, l21, l12).
    """
    if s.r < 1:
        raise InsufficientDataError(f"need at least 1 observed failures, got r={s.r}")
    if not (0.0 < alpha < np.inf and 0.0 < lam < np.inf):
        raise DomainError(f"alpha and lam must be positive, got ({alpha}, {lam})")
    alpha, lam = float(alpha), float(lam)
    S = (s.x ** alpha * s.log_x_powers[:order + 1]).sum(axis=1).tolist()
    m = s.n - s.r
    L = q = wD = ll_censor = 0.0
    # below q = tiny the censoring term is m*log q = m*(log lam - alpha*L),
    # whose only nonzero partials are -m*L, m/lam, -m/lam**2 and 2m/lam**3
    full = tail = False
    if m:
        L = s.log_u
        log_q = float(np.log(lam)) - alpha * L
        tail = log_q < _LOG_TINY
        full = not tail
        if tail:
            ll_censor = m * log_q
        else:
            q = max(float(np.exp(min(log_q, 709.0))), _TINY)     # _censor_q on floats
            ll_censor = m * float(np.log(-np.expm1(-q)))
            wD = _inv_expm1(q) if order else 0.0
    return _in_floats(_derivative_terms, order, full, tail, s.r, m, float(np.log(alpha * lam)),
                      alpha, lam, s.sum_log_x, L, q, wD, ll_censor, *S)


def _in_floats(fn, *args):
    """``fn(*args)`` in Python floats.  Where a Python float raises (``**``
    overflows or a divisor is 0) a numpy scalar gives inf or NaN; there the
    same arithmetic runs again with every float argument a numpy scalar."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        with np.errstate(all="ignore"):
            return fn(*(np.float64(a) if isinstance(a, float) else a for a in args))


def _derivative_terms(order, full, tail, r, m, log_al, alpha, lam, slx, L, q, wD, ll_censor,
                      *S) -> list:
    """The arithmetic of :func:`_derivatives` from its power sums ``S`` and
    censoring factors, for Python floats or numpy scalars alike."""
    out = [float(r * log_al - lam * S[0] + (alpha + 1.0) * slx + ll_censor)]
    if order >= 1:
        d_a = r / alpha - lam * S[1] + slx
        d_l = r / lam - S[0]
        if full:
            d_a -= m * L * q * wD
            d_l += m * (q / lam) * wD
        elif tail:
            d_a -= m * L
            d_l += m / lam
        out.append((float(d_a), float(d_l)))
    if order >= 2:
        d2_aa = -r / alpha ** 2 - lam * S[2]
        d2_al = -S[1]
        d2_ll = -r / lam ** 2
        if full:
            wD2 = wD * wD
            d2_aa += m * L ** 2 * q * (1.0 - q) * wD - m * L ** 2 * q ** 2 * wD2
            d2_al += -m * L * (q / lam) * (1.0 - q) * wD + m * L * (q ** 2 / lam) * wD2
            d2_ll += -m * (q / lam) ** 2 * (wD + wD2)
        elif tail:
            d2_ll -= m / lam ** 2
        out.append((float(d2_aa), float(d2_al), float(d2_ll)))
    if order >= 3:
        l30 = 2.0 * r / alpha ** 3 - lam * S[3]
        l03 = 2.0 * r / lam ** 3
        l21 = -S[2]
        l12 = 0.0
        if full:
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
        elif tail:
            l03 += 2.0 * m / lam ** 3
        out.append((float(l30), float(l03), float(l21), float(l12)))
    return out


def log_likelihood(alpha: float, lam: float, s: ReciprocalSample) -> float:
    return _derivatives(alpha, lam, s, 0)[0]


def score(alpha: float, lam: float, s: ReciprocalSample) -> tuple[float, float]:
    """Gradient of :func:`log_likelihood` in (alpha, lam)."""
    return _derivatives(alpha, lam, s, 1)[1]


def observed_fisher(alpha: float, lam: float, s: ReciprocalSample) -> FisherMatrix:
    """Second partials of the log-likelihood; negate to get observed information."""
    return FisherMatrix(*_derivatives(alpha, lam, s, 2)[2])


def _sup_norm(a: float, b: float) -> float:
    """``max(|a|, |b|)``, NaN if either is NaN (as numpy's max)."""
    a, b = abs(a), abs(b)
    return a if a >= b or a != a else b


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
    # leaves (0, inf) or whose log-likelihood is not finite is a failed halving.
    # The scalar work is in Python floats, in the rounding order of the matrix
    # form: h_eta = H * outer(jac, jac) + diag(g_eta) with jac = (alpha, lam).
    with np.errstate(all="ignore"):
        if config.alpha0 is not None and config.lam0 is not None:
            alpha, lam = config.alpha0, config.lam0
        else:
            alpha, lam = s.regression_start
        ll, g, h = _derivatives(alpha, lam, s, 2)
        alpha, lam = float(alpha), float(lam)
        iterations = 0
        for iterations in range(1, max(config.max_iter, 1) + 1):
            if _sup_norm(*g) < config.tol:
                iterations -= 1
                break
            # chain rule to eta = (log alpha, log lam)
            ge_a, ge_l = alpha * g[0], lam * g[1]
            off = h[1] * (alpha * lam) + 0.0
            h_eta = np.array([[h[0] * (alpha * alpha) + ge_a, off],
                              [off, h[2] * (lam * lam) + ge_l]])
            rhs = np.array([-ge_a, -ge_l])
            try:
                step = np.linalg.solve(h_eta, rhs)
            except np.linalg.LinAlgError:
                step = -rhs
            # rhs @ step is exactly -(g_eta @ step): negating one factor
            # negates every rounded product and sum of the dot product
            if not rhs @ step < 0.0:
                step = -rhs / max(1.0, _sup_norm(ge_a, ge_l))
            step_a, step_l = step.tolist()
            scale = 1.0
            improved = False
            for _ in range(60):
                cand_a = alpha * float(np.exp(scale * step_a))
                cand_l = lam * float(np.exp(scale * step_l))
                if 0.0 < cand_a < math.inf and 0.0 < cand_l < math.inf:
                    cand = _derivatives(cand_a, cand_l, s, 2)
                    if math.isfinite(cand[0]) and cand[0] >= ll - 1e-13:
                        improved = True
                        break
                scale *= 0.5
            if not improved:
                break
            alpha, lam, (ll, g, h) = cand_a, cand_l, cand
    grad_norm = _sup_norm(*g)
    if grad_norm >= config.tol:
        raise ConvergenceError(
            f"Newton solver stopped at grad sup-norm {grad_norm:.3e} "
            f"after {iterations} iterations",
            last_iterate=(alpha, lam),
        )
    d2_aa, d2_al, d2_ll = h
    # a numpy scalar squares to inf where a Python float would raise
    with np.errstate(over="ignore", invalid="ignore"):
        det = d2_aa * d2_ll - np.float64(d2_al) ** 2
    if det <= 0 or d2_aa >= 0:
        raise NumericError("observed information is not positive definite at the optimum")
    cov = CovarianceMatrix(v11=float(-d2_ll / det), v12=float(d2_al / det),
                           v22=float(-d2_aa / det))
    theta = float(np.exp(-np.log(lam) / alpha))
    return MleFit(
        alpha_hat=alpha,
        lam_hat=lam,
        theta_hat=theta,
        loglik=ll,
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
    p = 0.5 + level / 2.0
    # inv_cdf rejects p == 1.0, where a level within an ulp of 1 rounds
    z = NormalDist().inv_cdf(p) if p < 1.0 else math.inf
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
