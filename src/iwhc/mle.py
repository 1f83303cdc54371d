"""Likelihood, score, observed information and Newton MLE for hybrid censored
inverse Weibull data, in the (alpha, lam) rate parametrization.

With reciprocal data ``x_i = 1/t_(i)`` the log-likelihood is

    l(alpha, lam) = r*log(alpha*lam) - lam*sum(x_i**alpha)
                    + (alpha+1)*sum(log x_i)
                    + (n-r)*log(1 - exp(-lam * u**-alpha))

and the censoring term vanishes for complete samples (r == n).  The value and
every partial up to third order come from one kernel, ``_derivatives``, built
on the power sums ``S_k = sum x**alpha * (log x)**k`` and on ``q = lam *
u**-alpha`` and ``p = q/expm1(q)``, which tends to 1 as q falls to 0 and to 0
as q grows, so that the censoring coefficients stay finite for extreme
parameters (after Maechler, *Accurately computing log(1 - exp(-|a|))*, 2012).
Where q underflows float64, the censoring term is read in logs as
``(n-r)*log q``.  Its partials need no branch of their own: q is clamped at
``tiny`` there, where p = 1 and the coefficients c2 and c3 of the second and
third partials are exactly 0 in float64, so the general formulas give the
partials of ``(n-r)*log q`` but in two cases: l21 reads +0.0, not -0.0,
where the power sum S_2 underflows, and l12 reads NaN, not 0, where lam**2
underflows (beside d2_ll = -inf and l03 = inf).  The logs of the data come
from the sample's cache, and the scalar arithmetic runs in Python floats,
falling back to numpy scalars (same bits, inf instead of an exception) where
a float would raise.  ``fit_mle`` solves its 2x2 Newton systems in Python
floats too.

For the study harness, ``_derivative_rows``, ``_fit_rows`` and ``_ci_rows``
run the same arithmetic on arrays over many samples at once, one sample a
row of a ``ReciprocalRows``, and give each row the bits and the outcome that
the one-sample functions give its sample.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .censoring import ReciprocalRows, ReciprocalSample
from .errors import ConvergenceError, DomainError, InsufficientDataError, NumericError, _real

__all__ = [
    "FisherMatrix",
    "CovarianceMatrix",
    "MleFit",
    "ConfidenceInterval",
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
    """The maximiser, its log-likelihood and covariance, and the solver's
    diagnostics: Newton iterations taken, and ``grad_norm``, the sup-norm
    ``max(|dl/dalpha|, |dl/dlam|)`` of the raw score in (alpha, lam) at the
    maximiser, which ``_TOL`` bounds."""

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


# the Newton stopping rule of fit_mle and _fit_rows, read at each call: stop
# where the sup-norm of the score is below _TOL, or after _MAX_ITER steps
_TOL = 1e-8
_MAX_ITER = 200

_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))


def _censor_q(alpha, lam, log_u):
    """``(q, f)`` for q = lam * u**-alpha and the censoring factor f =
    log(1 - e**-q), elementwise.  q is clamped to [tiny, e**709] so that
    ``expm1(q)`` overflows cleanly.  Where log q is below ``_LOG_TINY``, q
    underflows and f is log q, which equals it to float precision there."""
    log_q = np.log(lam) - alpha * log_u
    q = np.maximum(np.exp(np.minimum(log_q, 709.0)), _TINY)
    return q, np.where(log_q < _LOG_TINY, log_q, np.log(-np.expm1(-q)))


def _derivatives(alpha: float, lam: float, s: ReciprocalSample, order: int) -> list:
    """The log-likelihood and its partials up to ``order`` (0 to 3) at one point.

    Entry k of the result holds the order-k terms as floats: the value, then
    (d_a, d_l), then (d2_aa, d2_al, d2_ll), then (l30, l03, l21, l12).
    ``p = q/expm1(q)`` is 0 where expm1 overflows (q above about 709.78), so
    callers hold ``np.errstate(over="ignore")``.
    """
    if s.r < 1:
        raise InsufficientDataError(f"need at least 1 observed failures, got r={s.r}")
    if not (0.0 < alpha < np.inf and 0.0 < lam < np.inf):
        raise DomainError(f"alpha and lam must be positive, got ({alpha}, {lam})")
    alpha, lam = float(alpha), float(lam)
    S = (s.x ** alpha * s.log_x_powers[:order + 1]).sum(axis=1).tolist()
    m = s.n - s.r
    L = q = p = ll_censor = 0.0
    if m:
        L = s.log_u
        log_q = float(np.log(lam)) - alpha * L
        q = max(float(np.exp(min(log_q, 709.0))), _TINY)     # _censor_q on floats
        ll_censor = m * (log_q if log_q < _LOG_TINY else float(np.log(-np.expm1(-q))))
        p = q / float(np.expm1(q)) if order else 0.0
    return _in_floats(_derivative_terms, operator.pow, order, m > 0, s.r, m,
                      float(np.log(alpha * lam)), alpha, lam, s.sum_log_x, L, q, p, ll_censor, *S)


def _derivative_rows(alpha: np.ndarray, lam: np.ndarray, rows: ReciprocalRows,
                     idx: np.ndarray, order: int) -> np.ndarray:
    """:func:`_derivatives` at ``(alpha[j], lam[j])`` on row ``idx[j]`` of
    ``rows``, for every j at once and with the same bits.

    ``idx`` is an increasing index array, and every point must be in (0,
    inf)**2.  Returns one row per term: the value, d_a, d_l, then d2_aa,
    d2_al, d2_ll, then l30, l03, l21, l12, as far as ``order``.  The
    arithmetic runs once over the complete rows and once over the censored
    ones, where some row of each kind is present.
    """
    # the terms of S_k for k <= order in one buffer, each formed in place
    # where its rows are gathered: x**alpha with the exponent broadcast along
    # each row, as over one sample's x, then its products with the logs.
    # The padding gives terms that no sum reads.
    terms = np.empty((order + 1, idx.size, rows.x.shape[1]))
    power = np.take(rows.x, idx, axis=0, out=terms[0], mode="clip")
    np.power(power, alpha[:, None], out=power)
    np.take(rows.log_x_powers[:order], idx, axis=1, out=terms[1:], mode="clip")
    terms[1:] *= power
    S = rows.row_sums(terms.transpose(1, 0, 2), idx).T
    # the counts as floats: Python converts an int that meets a float the same way
    r = rows.r[idx].astype(float)
    m = rows.n[idx] - r
    log_al = np.log(alpha * lam)
    slx = rows.sum_log_x[idx]
    cens = m > 0
    branches = [(False, ~cens, 0.0, 0.0, 0.0, 0.0)]
    if cens.any():
        L = rows.log_u[idx]
        q, factor = _censor_q(alpha, lam, L)
        with np.errstate(over="ignore"):
            p = q / np.expm1(q)
        branches.append((True, cens, L, q, p, m * factor))
    out = np.empty(((1, 3, 6, 10)[order], alpha.size))
    for full, mask, *censor in branches:
        if not mask.any():
            continue
        j = slice(None) if mask.all() else np.flatnonzero(mask)
        L, q, p, ll_censor = (v[j] if isinstance(v, np.ndarray) else v for v in censor)
        terms = _derivative_terms(np.float_power, order, full, r[j], m[j], log_al[j],
                                  alpha[j], lam[j], slx[j], L, q, p, ll_censor, *S[:, j])
        for k, term in enumerate([terms[0], *(t for group in terms[1:] for t in group)]):
            out[k, j] = term
    return out


def _in_floats(fn, *args):
    """``fn(*args)`` in Python floats.  Where a Python float raises (``**``
    overflows or a divisor is 0) a numpy scalar gives inf or NaN; there the
    same arithmetic runs again with every float argument a numpy scalar, and
    the numbers it returns, in lists and tuples too, come back as floats."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        with np.errstate(all="ignore"):
            return _as_floats(fn(*(np.float64(a) if isinstance(a, float) else a for a in args)))


def _as_floats(value):
    if isinstance(value, (list, tuple)):
        return type(value)(map(_as_floats, value))
    return float(value)


def _derivative_terms(pw, order, full, r, m, log_al, alpha, lam, slx, L, q, p, ll_censor,
                      *S) -> list:
    """The arithmetic of :func:`_derivatives` from its power sums ``S`` and
    censoring factors, for Python floats, numpy scalars or arrays alike.

    ``pw`` raises to a power: ``operator.pow`` on floats, ``np.float_power``
    on arrays, where ``**`` would square or cube with other last bits than
    the C ``pow`` that Python floats and numpy scalars call.

    With f(q) = log(1 - e**-q), the censoring term's partials are sums of
    ``p = q f'(q)``, ``c2 = q (q f')' = p - pq - p**2`` and ``c3 = q c2'``,
    times powers of L = log u and 1/lam.  Every product with q is formed as
    ``(p*q)*q``, so a zero p never meets an overflowing q**2.

    ``full`` is False for a complete sample, which has no censoring term.
    Where q underflows, the caller clamps it at ``tiny``: then p = 1, pq =
    tiny and pp = 1, so c2 = (1 - tiny) - 1 and c3 both round to exactly 0,
    and the partials are the tail's -m*L, m/lam, -m/lam**2 and 2m/lam**3 in
    the same bits, with two exceptions: l21 = -S_2 + 0.0 reads +0.0 where
    S_2 underflows to 0, and l12 = 0.0 - (m*L*0)/lam**2 reads NaN where
    lam**2 underflows to 0 (there d2_ll is -inf and l03 is inf).
    """
    out = [r * log_al - lam * S[0] + (alpha + 1.0) * slx + ll_censor]
    pq, pp = p * q, p * p
    if order >= 1:
        d_a = r / alpha - lam * S[1] + slx
        d_l = r / lam - S[0]
        if full:
            d_a -= m * L * p
            d_l += m * p / lam
        out.append((d_a, d_l))
    if order >= 2:
        lam2, L2 = pw(lam, 2), pw(L, 2)
        d2_aa = -r / pw(alpha, 2) - lam * S[2]
        d2_al = -S[1]
        d2_ll = -r / lam2
        if full:
            c2 = p - pq - pp
            d2_aa += m * L2 * c2
            d2_al -= m * L * c2 / lam
            d2_ll -= m * (pq + pp) / lam2
        out.append((d2_aa, d2_al, d2_ll))
    if order >= 3:
        lam3 = pw(lam, 3)
        l30 = 2.0 * r / pw(alpha, 3) - lam * S[3]
        l03 = 2.0 * r / lam3
        l21 = -S[2]
        l12 = 0.0
        if full:
            c3 = p - 3.0 * pq - 3.0 * pp + pq * q + 3.0 * pq * p + 2.0 * pp * p
            l30 -= m * pw(L, 3) * c3
            l03 += m * (pq * q + 3.0 * pq * p + 2.0 * pp * p) / lam3
            l21 += m * L2 * c3 / lam
            l12 -= m * L * (c3 - c2) / lam2
        out.append((l30, l03, l21, l12))
    return out


def _checked_derivatives(alpha, lam, s: ReciprocalSample, order: int) -> list:
    """:func:`_derivatives` for the public functions: DomainError unless
    alpha and lam are real numbers (:func:`errors._real`).  fit_mle calls
    the kernel without this check."""
    _real("alpha", alpha)
    _real("lam", lam)
    with np.errstate(over="ignore"):
        return _derivatives(alpha, lam, s, order)


def log_likelihood(alpha: float, lam: float, s: ReciprocalSample) -> float:
    return _checked_derivatives(alpha, lam, s, 0)[0]


def score(alpha: float, lam: float, s: ReciprocalSample) -> tuple[float, float]:
    """Gradient of :func:`log_likelihood` in (alpha, lam)."""
    return _checked_derivatives(alpha, lam, s, 1)[1]


def observed_fisher(alpha: float, lam: float, s: ReciprocalSample) -> FisherMatrix:
    """Second partials of the log-likelihood; negate to get observed information."""
    return FisherMatrix(*_checked_derivatives(alpha, lam, s, 2)[2])


def _sup_norm(a: float, b: float) -> float:
    """``max(|a|, |b|)``, NaN if either is NaN (as numpy's max)."""
    a, b = abs(a), abs(b)
    return a if a >= b or a != a else b


def _newton_step(h11: float, h12: float, h22: float, g1: float, g2: float) -> tuple:
    """The ascent step of :func:`fit_mle` from the Hessian ``[[h11, h12],
    [h12, h22]]`` and the gradient ``(g1, g2)``, in Python floats.

    Solves ``H s = -g`` by Gaussian elimination with partial pivoting: the
    first pivot is the larger of |h11| and |h12| (h11 on a tie).  An exactly
    zero pivot (H singular) gives the gradient step ``g``.  A step that does
    not ascend, ``g . s > 0`` failing also where it is not finite, gives ``g``
    scaled to a sup-norm of at most 1.  No division is by zero.
    """
    s1, s2 = g1, g2
    if abs(h12) > abs(h11):      # eliminate with the second row
        p0, p1, pb, o0, o1, ob = h12, h22, -g2, h11, h12, -g1
    else:
        p0, p1, pb, o0, o1, ob = h11, h12, -g1, h12, h22, -g2
    if p0 != 0.0:
        f = o0 / p0
        u = o1 - f * p1
        if u != 0.0:
            s2 = (ob - f * pb) / u
            s1 = (pb - p1 * s2) / p0
    if not g1 * s1 + g2 * s2 > 0.0:
        scale = max(1.0, _sup_norm(g1, g2))
        s1, s2 = g1 / scale, g2 / scale
    return s1, s2


def _newton_steps(h11, h12, h22, g1, g2) -> tuple:
    """:func:`_newton_step` on arrays, with the same bits."""
    swap = np.abs(h12) > np.abs(h11)
    p0, p1, pb = np.where(swap, h12, h11), np.where(swap, h22, h12), np.where(swap, -g2, -g1)
    o0, o1, ob = np.where(swap, h11, h12), np.where(swap, h12, h22), np.where(swap, -g1, -g2)
    with np.errstate(all="ignore"):
        f = o0 / p0
        u = o1 - f * p1
        s2 = (ob - f * pb) / u
        s1 = (pb - p1 * s2) / p0
        solved = (p0 != 0.0) & (u != 0.0)
        s1, s2 = np.where(solved, s1, g1), np.where(solved, s2, g2)
        scale = np.maximum(np.abs(g1), np.abs(g2))
        scale = np.where(scale > 1.0, scale, 1.0)       # max(1.0, scale), NaN to 1.0
        ascent = g1 * s1 + g2 * s2 > 0.0
        return np.where(ascent, s1, g1 / scale), np.where(ascent, s2, g2 / scale)


def fit_mle(s: ReciprocalSample) -> MleFit:
    """Damped Newton ascent on (log alpha, log lam) from the sample's
    regression start.

    The log parametrization keeps both parameters positive without constraints;
    steps are halved until the log-likelihood does not decrease, and a scaled
    gradient step replaces any Newton direction that fails to ascend.  A
    regression start that float64 cannot hold in (0, inf)**2 raises NumericError.
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
    alpha, lam = s.regression_start
    if not (0.0 < alpha < math.inf and 0.0 < lam < math.inf):
        raise NumericError(f"the regression start (alpha, lam) = ({alpha}, {lam}) "
                           "is not in (0, inf)**2 in float64")
    # extreme iterates overflow in the Newton step and the line search; the
    # gradient step replaces a step that is not finite, and a candidate that
    # leaves (0, inf) or whose log-likelihood is not finite is a failed halving.
    with np.errstate(all="ignore"):
        ll, g, h = _derivatives(alpha, lam, s, 2)
        alpha, lam = float(alpha), float(lam)
        iterations = 0
        for iterations in range(1, _MAX_ITER + 1):
            if _sup_norm(*g) < _TOL:
                iterations -= 1
                break
            # chain rule to eta = (log alpha, log lam): h_eta = H * outer(jac,
            # jac) + diag(g_eta) with jac = (alpha, lam)
            ge_a, ge_l = alpha * g[0], lam * g[1]
            step_a, step_l = _newton_step(h[0] * (alpha * alpha) + ge_a, h[1] * (alpha * lam),
                                          h[2] * (lam * lam) + ge_l, ge_a, ge_l)
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
    if grad_norm >= _TOL:
        raise ConvergenceError(
            f"Newton solver stopped at grad sup-norm {grad_norm:.3e} "
            f"after {iterations} iterations",
            last_iterate=(alpha, lam),
        )
    d2_aa, d2_al, d2_ll = h
    # a numpy scalar squares to inf where a Python float would raise, and a
    # tiny det divides to inf, which CovarianceMatrix rejects
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


@dataclass(frozen=True)
class _RowFits:
    """:func:`fit_mle` on each row of a :class:`ReciprocalRows`, as arrays
    of the :class:`MleFit` fields.  ``error`` holds the error class that
    fit_mle raises on the row, or None where ``ok``."""

    alpha: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    loglik: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray
    ok: np.ndarray
    error: np.ndarray


def _fit_rows(rows: ReciprocalRows) -> _RowFits:
    """:func:`fit_mle` on every row of ``rows`` at once, with the same bits and the same outcome on each row.

    The rows still iterating take their Newton steps together, and the rows
    still searching halve their steps together, so each row follows the path
    fit_mle takes on it alone.  A row whose regression start is not in (0,
    inf)**2 is not fitted, and its error is NumericError, as fit_mle's.
    """
    k = rows.r.size
    first = rows.x[:, :1]
    tied = ((rows.x == first) | ~rows.held).all(axis=1) & (
        (rows.r == rows.n) | (rows.u * first[:, 0] <= 1.0 + 1e-12))
    fitted = (rows.r >= 2) & ~tied
    alpha, lam = (v.copy() for v in rows.regression_start)
    started = fitted & (0.0 < alpha) & (alpha < np.inf) & (0.0 < lam) & (lam < np.inf)
    live = np.flatnonzero(started)
    terms = np.full((6, k), np.nan)       # ll, d_a, d_l, d2_aa, d2_al, d2_ll per row
    iterations = np.zeros(k, dtype=int)
    with np.errstate(all="ignore"):
        terms[:, live] = _derivative_rows(alpha[live], lam[live], rows, live, 2)
        active = live
        for it in range(1, _MAX_ITER + 1):
            g_a, g_l = terms[1, active], terms[2, active]
            done = np.maximum(np.abs(g_a), np.abs(g_l)) < _TOL
            iterations[active[done]] = it - 1
            active, g_a, g_l = active[~done], g_a[~done], g_l[~done]
            if not active.size:
                break
            a, l, h = alpha[active], lam[active], terms[3:, active]
            ge_a, ge_l = a * g_a, l * g_l
            step_a, step_l = _newton_steps(h[0] * (a * a) + ge_a, h[1] * (a * l),
                                           h[2] * (l * l) + ge_l, ge_a, ge_l)
            pending = np.arange(active.size)
            scale = 1.0
            for _ in range(60):
                cand_a = a[pending] * np.exp(scale * step_a[pending])
                cand_l = l[pending] * np.exp(scale * step_l[pending])
                valid = np.flatnonzero((0.0 < cand_a) & (cand_a < np.inf)
                                       & (0.0 < cand_l) & (cand_l < np.inf))
                at = active[pending[valid]]
                cand = _derivative_rows(cand_a[valid], cand_l[valid], rows, at, 2)
                up = np.isfinite(cand[0]) & (cand[0] >= terms[0, at] - 1e-13)
                alpha[at[up]], lam[at[up]] = cand_a[valid[up]], cand_l[valid[up]]
                terms[:, at[up]] = cand[:, up]
                pending = np.delete(pending, valid[up])
                if not pending.size:
                    break
                scale *= 0.5
            iterations[active[pending]] = it        # no ascent: the fit stops here
            active = np.delete(active, pending)
        iterations[active] = _MAX_ITER
        grad_norm = np.maximum(np.abs(terms[1]), np.abs(terms[2]))
        converged = started & ~(grad_norm >= _TOL)
        h11, h12, h22 = terms[3:]
        det = h11 * h22 - np.float_power(h12, 2)
        v11, v12, v22 = -h22 / det, h12 / det, -h11 / det
        ok = (converged & ~((det <= 0) | (h11 >= 0))
              & (v11 > 0) & (v22 > 0) & (v11 * v22 - v12 * v12 > 0))
        theta = np.exp(-np.log(lam) / alpha)
    error = np.full(k, None, dtype=object)
    error[~ok] = NumericError
    error[started & ~converged] = ConvergenceError
    error[~fitted] = InsufficientDataError
    return _RowFits(alpha, lam, theta, terms[0], v11, v12, v22, iterations, grad_norm, ok, error)


def _z(level: float) -> float:
    """The standard normal quantile of ``0.5 + level/2``."""
    p = 0.5 + level / 2.0
    # inv_cdf rejects p == 1.0, where a level within an ulp of 1 rounds
    return NormalDist().inv_cdf(p) if p < 1.0 else math.inf


def asymptotic_ci(
    fit: MleFit, level: float = 0.95
) -> tuple[ConfidenceInterval, ConfidenceInterval, ConfidenceInterval]:
    """Normal-theory intervals for (alpha, lam, theta) at the given level.

    alpha and lam use the pivots (hat - true)/sqrt(V_ii); theta uses the delta
    method on theta = lam**(-1/alpha) with gradient
    (theta*log(lam)/alpha**2, -theta/(alpha*lam)) and the full covariance;
    NumericError where alpha**2 overflows or alpha*lam underflows to 0.
    """
    if not 0.0 < _real("level", level) < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    if not fit.converged:
        raise DomainError("confidence intervals require a converged fit")
    z = _z(level)
    half_a = z * np.sqrt(fit.cov.v11)
    half_l = z * np.sqrt(fit.cov.v22)
    try:
        grad = np.array([
            fit.theta_hat * np.log(fit.lam_hat) / fit.alpha_hat ** 2,
            -fit.theta_hat / (fit.alpha_hat * fit.lam_hat),
        ])
    except (OverflowError, ZeroDivisionError):
        raise NumericError(f"the delta-method gradient of theta at ({fit.alpha_hat}, "
                           f"{fit.lam_hat}) is outside the float64 range") from None
    var_theta = float(grad @ fit.cov.as_matrix() @ grad)
    half_t = z * np.sqrt(var_theta)
    return (
        ConfidenceInterval(fit.alpha_hat - half_a, fit.alpha_hat + half_a, level),
        ConfidenceInterval(fit.lam_hat - half_l, fit.lam_hat + half_l, level),
        ConfidenceInterval(fit.theta_hat - half_t, fit.theta_hat + half_t, level),
    )


def _ci_rows(fits: _RowFits, level: float) -> tuple:
    """``((alpha lower, alpha upper), (lam lower, lam upper), ok)``:
    :func:`asymptotic_ci` on every ok row of ``fits``, with the same bits.
    ``ok`` is False on the rows that failed to fit and where asymptotic_ci
    raises NumericError."""
    z = _z(level)
    alpha, lam, theta = fits.alpha, fits.lam, fits.theta
    with np.errstate(all="ignore"):
        alpha2, alpha_lam = np.float_power(alpha, 2), alpha * lam
        grad = np.stack([theta * np.log(lam) / alpha2, -theta / alpha_lam], axis=1)
        cov = np.stack([fits.v11, fits.v12, fits.v12, fits.v22], axis=1).reshape(-1, 2, 2)
        var_theta = (grad[:, None, :] @ cov @ grad[:, :, None])[:, 0, 0]
        ok = fits.ok & (alpha2 < np.inf) & (alpha_lam != 0.0)
        bounds = []
        for centre, half in ((alpha, z * np.sqrt(fits.v11)), (lam, z * np.sqrt(fits.v22)),
                             (theta, z * np.sqrt(var_theta))):
            lower, upper = centre - half, centre + half
            ok &= lower < upper
            bounds.append((lower, upper))
    return bounds[0], bounds[1], ok
