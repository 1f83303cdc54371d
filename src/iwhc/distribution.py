"""Inverse Weibull density, distribution, quantile and sampling routines.

The distribution of ``1/W`` for Weibull ``W``, with cdf
``F(x) = exp(-(theta*x)**(-alpha))`` on ``x > 0``.  ``alpha`` is the shape and
``theta`` the scale; ``alpha = 1`` and ``alpha = 2`` give the inverse
exponential and inverse Rayleigh special cases.  All formulas are evaluated
through the rate ``lam = theta**(-alpha)``, which turns the cdf into
``exp(-lam * x**(-alpha))`` and keeps the fitting algebra linear in ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, _positive

__all__ = [
    "IwParams",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "rate_from_scale",
    "scale_from_rate",
]

# exp() saturation guards: beyond these the result under/overflows anyway
_EXP_MAX = 709.0

def rate_from_scale(alpha: float, theta: float) -> float:
    """Rate ``lam = theta**(-alpha)``, evaluated in log space."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not (theta > 0 and np.isfinite(theta)):
        raise DomainError(f"theta must be positive and finite, got {theta}")
    return float(np.exp(-alpha * np.log(theta)))


def scale_from_rate(alpha: float, lam: float) -> float:
    """Scale ``theta = lam**(-1/alpha)``, the inverse of :func:`rate_from_scale`."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not (lam > 0 and np.isfinite(lam)):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    return float(np.exp(-np.log(lam) / alpha))


@dataclass(frozen=True)
class IwParams:
    """Shape/scale parameter pair; the rate ``lam`` is derived on demand."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")

    @property
    def lam(self) -> float:
        """Rate parameter ``theta**(-alpha)``."""
        return rate_from_scale(self.alpha, self.theta)

    @classmethod
    def from_rate(cls, alpha: float, lam: float) -> "IwParams":
        """Build parameters from shape and rate instead of shape and scale."""
        return cls(alpha, scale_from_rate(alpha, lam))


def _validate_x(x):
    if np.size(x) == 0:
        raise DomainError("x must be nonempty")
    return _positive("x", x)


def _log_tail(x: np.ndarray, p: IwParams) -> np.ndarray:
    """log of (theta*x)**(-alpha) == log(lam) - alpha*log(x), clipped for exp()."""
    t = np.log(p.lam) - p.alpha * np.log(x)
    return np.minimum(t, _EXP_MAX)


def pdf(x, p: IwParams):
    """Density ``alpha*lam * x**-(alpha+1) * exp(-lam*x**-alpha)``.

    Evaluated in log space so that very small ``x`` (where the direct power
    ``x**-(alpha+1)`` overflows) underflows cleanly to 0 instead.
    """
    arr = _validate_x(x)
    e = np.exp(_log_tail(arr, p))
    log_f = np.log(p.alpha) + np.log(p.lam) - (p.alpha + 1.0) * np.log(arr) - e
    out = np.exp(log_f)
    return float(out) if np.ndim(x) == 0 else out


def cdf(x, p: IwParams):
    """Distribution function ``exp(-lam * x**-alpha)``."""
    arr = _validate_x(x)
    out = np.exp(-np.exp(_log_tail(arr, p)))
    return float(out) if np.ndim(x) == 0 else out


def quantile(prob, p: IwParams):
    """Inverse cdf: ``(lam / -log(prob))**(1/alpha)`` for ``prob`` in (0, 1)."""
    arr = np.asarray(prob, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("prob must lie strictly inside (0, 1)")
    out = _quantile(arr, p)
    return float(out) if np.ndim(prob) == 0 else out


def _quantile(prob: np.ndarray, p: IwParams) -> np.ndarray:
    return np.exp((np.log(p.lam) - np.log(-np.log(prob))) / p.alpha)


def sample(count: int, p: IwParams, seed) -> np.ndarray:
    """Inverse-transform draws, deterministic for a given seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including a
    ``SeedSequence``; distinct replicates should pass distinct, deterministically
    derived seeds (see ``harness`` for the derivation used in simulations).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    return _sample_rows(count, p, [seed])[0]


def _sample_rows(count: int, p: IwParams, seeds) -> np.ndarray:
    """:func:`sample` for each seed in ``seeds``, as the rows of one matrix:
    each row draws its uniforms from its own stream, and one
    inverse-transform call maps them all, the measure-zero draw u == 0 (the
    one outside (0, 1)) as 2**-53.

    ``seeds`` is a list of seeds, each drawn from by its own generator, or a
    uint32 matrix whose row i holds the entropy words of the seed
    ``SeedSequence(seeds[i], spawn_key=(0,))``.  A matrix builds no
    generator: one array pass gives its rows' PCG64 states
    (:func:`_child_states`), and another their uniforms
    (:func:`_pcg64_doubles`), a block of rows of at most ``_BLOCK`` values
    at a time."""
    try:
        u = np.empty((len(seeds), count))
    except (ValueError, MemoryError):
        raise DomainError(f"a sample of {len(seeds) * count} lifetimes needs "
                          f"{8 * len(seeds) * count} bytes, which cannot be allocated") from None
    if isinstance(seeds, np.ndarray):
        words = _child_states(seeds)
        step = max(_BLOCK // count, 1)
        for start in range(0, len(u), step):
            _pcg64_doubles(words[..., start:start + step], out=u[start:start + step])
    else:
        for row, seed in zip(u, seeds):
            np.random.default_rng(seed).random(out=row)
    u[u == 0.0] = 0.5 ** 53
    return _quantile(u, p)


# numpy's SeedSequence (NEP 19): a pool of four 32-bit words, filled and mixed
# by a multiply-xorshift hash whose constant is multiplied by a fixed factor
# at each use; then PCG64's 128-bit LCG multiplier, also as (hi, lo) words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_WORDS = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_LOW32, _HALF = np.uint64(_MASK32), np.uint64(32)
# a batch of at least this many rows, the size at which the harness also
# fits its rows as arrays, takes the array passes; their fixed cost (about
# 150-200 us on a 2-core Xeon) is that of numpy's own seeding and drawing of
# some 20 streams of 30 values.  The uniforms pass runs over blocks of rows
# of at most _BLOCK values, so that its dozens of temporaries stay in a
# core's cache: the draw of 400 rows of 50 took about 1.3 times as long in
# one block
_ARRAY_SEEDING = 8
_BLOCK = 8192
# the pool words that each pool word is mixed into (all but itself), and the
# cycle of pool words that generate_state hashes into eight output words
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]
_CYCLE = np.arange(2 * _POOL) % _POOL


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32 for k < count, as a uint32 column:
    the successive constants of a SeedSequence hash."""
    chain = [init]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


# the mix of an entropy of w assembled words hashes 4*w times; this covers
# w <= 8, a base seed below 2**160 in the study harness
_HASH_A = _hash_chain(_INIT_A, _MULT_A, 33)
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``value`` under the hash constant ``before``,
    which it advances to ``after``."""
    value = (value ^ before) * after
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> _XSHIFT


def _entropy_words(values) -> list:
    """The 32-bit words that ``SeedSequence`` splits the nonnegative ints
    ``values`` into, each int little end first: the same seed given as an
    array of these words is mixed without converting the ints again."""
    return [value >> shift & _MASK32 for value in values
            for shift in range(0, max(value.bit_length(), 1), 32)]


def _child_seeds(prefix: tuple, last: range, rows: int | None = None):
    """Seeds for :func:`_sample_rows`: child 0 of ``SeedSequence((*prefix,
    i))`` for each ``i`` in ``last``, whose draws go to a batch of ``rows``
    rows (``len(last)`` by default).  In a batch of at least
    ``_ARRAY_SEEDING`` rows, seeds all with ``i`` below 2**32 come as the
    matrix of their entropy words, each int split into little-endian 32-bit
    words as numpy splits it; any others as numpy's own ``SeedSequence``
    each."""
    if (len(last) if rows is None else rows) < _ARRAY_SEEDING or last[-1] > _MASK32:
        return [np.random.SeedSequence((*prefix, i), spawn_key=(0,)) for i in last]
    head = _entropy_words(prefix)
    words = np.empty((len(last), len(head) + 1), dtype=np.uint32)
    words[:, :-1] = head
    words[:, -1] = np.arange(last.start, last.stop)
    return words


def _child_states(entropy: np.ndarray) -> np.ndarray:
    """``(state, inc)``: the PCG64 state and increment of
    ``default_rng(SeedSequence(row, spawn_key=(0,)))`` for each row of the
    uint32 matrix ``entropy``, each a ``(hi, lo)`` pair of uint64 word
    rows, a word a row: an array of shape (2, 2, rows).

    This is numpy's own seeding, computed for all rows at once:
    SeedSequence's ``mix_entropy`` and ``generate_state(4, np.uint64)`` in
    uint32 arithmetic, vectorised over the rows and the pool words, then the
    two LCG steps of ``pcg64_set_seed`` in uint64 word arithmetic.
    """
    rows, width = entropy.shape
    # the assembled entropy, a column per row: the words zero-padded to the
    # pool size, then the spawn key (0,)
    words = np.zeros((max(width, _POOL) + 1, rows), dtype=np.uint32)
    words[:width] = entropy.T
    a = _HASH_A if 4 * len(words) < len(_HASH_A) else \
        _hash_chain(_INIT_A, _MULT_A, 4 * len(words) + 1)
    # mix_entropy: hash the first words into the pool, mix the hash of each
    # pool word into every other, then of each further word into every one
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1:_POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL - 1], a[k + 1:k + _POOL]))
        k += _POOL - 1
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
        k += _POOL
    # generate_state: eight hashed words, read in pairs as little-endian
    # uint64 words (lo | hi << 32); the first two seed the state (hi, lo),
    # the last two the increment
    out = _hashmix(pool[_CYCLE], _HASH_B[:-1], _HASH_B[1:]).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = out[0::2] | out[1::2] << _HALF
    # pcg64_set_seed: inc = 2 * inc + 1; from state 0, one step, add the
    # seed, one more step
    one = np.uint64(1)
    inc = (inc_hi << one | inc_lo >> np.uint64(63), inc_lo << one | one)
    state = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), _PCG_WORDS), inc)
    return np.array([state, inc])


def _add128(a: tuple, b: tuple) -> tuple:
    """``a + b`` modulo 2**128 for 128-bit ints given as ``(hi, lo)`` pairs
    of uint64 words that broadcast together."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _mul128(a: tuple, b: tuple) -> tuple:
    """``a * b`` modulo 2**128, as :func:`_add128` takes them: the full
    product of the low words, built from their 32-bit halves, plus the two
    cross products that reach the high word."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0 = a_lo >> _HALF, a_lo & _LOW32
    b1, b0 = b_lo >> _HALF, b_lo & _LOW32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _HALF) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF) + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


@lru_cache(maxsize=32)
def _jumps(count: int) -> np.ndarray:
    """``(mult, step)`` for k = 1..count, read-only: k steps of PCG64's LCG
    take a state s with increment inc to ``mult[k-1] * s + step[k-1] *
    inc`` modulo 2**128, where mult is M**k and step is 1 + M + ... +
    M**(k-1) for the multiplier M, each a ``(hi, lo)`` pair of uint64 word
    rows."""
    mult, step = [_PCG_MULT], [1]
    for _ in range(count - 1):
        mult.append(mult[-1] * _PCG_MULT & _MASK128)
        step.append((step[-1] * _PCG_MULT + 1) & _MASK128)
    words = np.array([[[v >> 64 for v in ints], [v & _MASK64 for v in ints]]
                      for ints in (mult, step)], dtype=np.uint64)
    words.flags.writeable = False
    return words


def _pcg64_doubles(words: np.ndarray, out: np.ndarray) -> None:
    """Into row i of ``out``, the ``random()`` draws of numpy's PCG64 from
    the state and increment ``words[..., i]`` (:func:`_child_states`), every
    draw of every row at once.

    numpy's PCG64 (O'Neill's XSL-RR 128/64) steps its LCG, then outputs the
    new state's two words xor-ed and rotated right by its top six bits, and
    a double is that output's top 53 bits times 2**-53.  Draw k reads the
    state k steps on, by :func:`_jumps`."""
    mult, step = _jumps(out.shape[1])
    state, inc = words[..., None]
    hi, lo = _add128(_mul128(state, mult), _mul128(inc, step))
    rot = hi >> np.uint64(58)
    hi ^= lo
    bits = hi >> rot | hi << ((np.uint64(64) - rot) & np.uint64(63))
    np.multiply(bits >> np.uint64(11), 0.5 ** 53, out=out)
