"""Kolmogorov-Smirnov style goodness of fit for complete samples.

The distance is the largest absolute gap between the empirical cdf evaluated
at the order statistics (value i/n at the i-th point, ties indexed through)
and the fitted cdf:

    D = max_i | i/n - F(t_(i)) |

Because ranks of a continuous sample are distribution-free, the null
distribution of D depends only on n; the p-value is estimated by seeded Monte
Carlo over uniform order statistics, making reports reproducible.  The
simulated statistics depend only on ``(n, sims, seed)``, so each such key is
simulated once into a sorted table, kept in a small per-process cache, and
every p-value with that key is a binary search in it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distribution import IwParams, cdf
from .errors import DomainError, _integer

__all__ = ["KsResult", "ks_statistic", "ks_test"]

_DEFAULT_SIMS = 100_000
_DEFAULT_SEED = 186283
_BLOCK = 50_000
# null tables kept per process, 8 bytes per simulation each
_CACHED_TABLES = 8


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


@functools.lru_cache(maxsize=_CACHED_TABLES)
def _null_stats(n: int, sims: int, seed: int) -> np.ndarray:
    """The ``sims`` null statistics of D for sample size ``n``, sorted, read-only.

    Blocks of uniform samples are drawn into one reused buffer and reduced in
    place, in the same order and with the same arithmetic as a fresh
    ``np.sort(rng.random((block, n)), axis=1)`` per block.
    """
    try:
        stats = np.empty(sims)
        buffer = np.empty((min(sims, _BLOCK), n))
    except (ValueError, MemoryError):
        raise DomainError(
            f"sims={sims} needs a null table of {8 * sims} bytes, which cannot be allocated"
        ) from None
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1) / n
    for start in range(0, sims, _BLOCK):
        u = buffer[: min(_BLOCK, sims - start)]
        rng.random(out=u)
        u.sort(axis=1)
        u -= ranks
        np.abs(u, out=u)
        u.max(axis=1, out=stats[start : start + u.shape[0]])
    stats.sort()
    stats.flags.writeable = False
    return stats


def _null_sf(d: float, n: int, sims: int, seed: int) -> float:
    """P(D >= d) under the null: the share of simulated statistics >= d."""
    table = _null_stats(n, sims, seed)
    return (sims - int(np.searchsorted(table, d - 1e-12, "left"))) / sims


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
    sims = _integer("sims", sims, 1)
    seed = _integer("seed", seed, 0)
    d = ks_statistic(arr, p)
    return KsResult(statistic=d, p_value=_null_sf(d, arr.size, sims, seed), n=int(arr.size))
