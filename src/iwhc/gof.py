"""Kolmogorov-Smirnov style goodness of fit for complete samples.

The distance is the largest absolute gap between the empirical cdf evaluated
at the order statistics (value i/n at the i-th point, ties indexed through)
and the fitted cdf:

    D = max_i | i/n - F(t_(i)) |

Because ranks of a continuous sample are distribution-free, the null
distribution of D depends only on n; the p-value is estimated by seeded Monte
Carlo over uniform order statistics, making reports reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import IwParams, cdf
from .errors import DomainError

__all__ = ["KsResult", "ks_statistic", "ks_test"]

_DEFAULT_SIMS = 100_000
_DEFAULT_SEED = 186283
_BLOCK = 50_000


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n: int


def ks_statistic(data, p: IwParams) -> float:
    """The fitted-cdf distance D = max_i |i/n - F(t_(i))|."""
    arr = np.sort(np.asarray(data, dtype=float))
    if arr.size == 0:
        raise DomainError("data must be nonempty")
    n = arr.size
    ranks = np.arange(1, n + 1) / n
    return float(np.abs(ranks - cdf(arr, p)).max())


def _null_sf(d: float, n: int, sims: int, seed: int) -> float:
    """P(D >= d) under the null, by simulation of uniform order statistics."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1) / n
    exceed = 0
    left = sims
    while left > 0:
        block = min(left, _BLOCK)
        u = np.sort(rng.random((block, n)), axis=1)
        stat = np.abs(ranks - u).max(axis=1)
        exceed += int((stat >= d - 1e-12).sum())
        left -= block
    return exceed / sims


def ks_test(
    data,
    p: IwParams,
    sims: int = _DEFAULT_SIMS,
    seed: int = _DEFAULT_SEED,
) -> KsResult:
    """Distance and Monte Carlo p-value for a complete sample against ``p``.

    The test treats ``p`` as fixed; fitting ``p`` from the same data makes the
    p-value approximate (no correction for estimation is applied).
    """
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DomainError("data must be nonempty")
    if sims < 1:
        raise DomainError(f"sims must be >= 1, got {sims}")
    d = ks_statistic(arr, p)
    return KsResult(statistic=d, p_value=_null_sf(d, arr.size, sims, seed), n=int(arr.size))
