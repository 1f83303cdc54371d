"""The two numpy facts that give the array path of the study harness the bits
of the one-sample functions, pinned here so that a numpy release that breaks
either one fails in this module first.

- A segment led by 0.0 and summed by ``np.add.reduceat`` has the bits of
  ``ndarray.sum`` over the rest of the segment, in one dimension and along
  axis 1: both add numpy's pairwise sum of the values to 0.0.
  ``ReciprocalRows`` sums every row this way.
- ``np.power`` with an exponent array as long as the values gives the same
  bits wherever the values sit in their array.  The row kernel and the
  one-sample kernel both take ``x**alpha`` this way; a scalar or stride-0
  exponent of exactly 2.0 or 0.5 makes numpy square or take a root instead.
"""

import numpy as np
import pytest

# every length up to 300: the pairwise sum changes its blocking at 8 values
# and splits past 128, so 7, 8, 9, 128, 129, 256 and 257 are among them
_LENGTHS = np.arange(301)


def _segments(rng, lengths):
    """``(flat, starts, values)``: each array of ``values`` laid out as a
    segment of 0.0 and then the array, the segments end to end from a random
    offset of ``flat``'s buffer, in a random order."""
    values = [rng.standard_normal(k) * np.exp(rng.uniform(-30.0, 30.0, k)) for k in lengths]
    order = rng.permutation(len(values))
    values = [values[i] for i in order]
    offset = int(rng.integers(0, 16))
    buffer = np.full(offset + sum(len(v) + 1 for v in values), np.nan)
    flat = buffer[offset:]
    starts = np.cumsum([0] + [len(v) + 1 for v in values[:-1]])
    for start, v in zip(starts, values):
        flat[start] = 0.0
        flat[start + 1:start + 1 + len(v)] = v
    return flat, starts, values


@pytest.mark.parametrize("seed", range(4))
def test_zero_led_reduceat_equals_ndarray_sum(seed):
    rng = np.random.default_rng(seed)
    flat, starts, values = _segments(rng, _LENGTHS)
    got = np.add.reduceat(flat, starts)
    assert [float(g).hex() for g in got] == [float(v.sum()).hex() for v in values]


@pytest.mark.parametrize("seed", range(4))
def test_zero_led_reduceat_along_axis_1_equals_ndarray_sum(seed):
    """Three rows summed at once, as the row kernel sums its power sums."""
    rng = np.random.default_rng(seed)
    flat, starts, values = _segments(rng, _LENGTHS)
    scales = rng.uniform(0.1, 3.0, (3, 1))
    rows = flat * scales
    got = np.add.reduceat(rows, starts, axis=1)
    for j, v in enumerate(values):
        want = (v * scales).sum(axis=1)
        assert [float(g).hex() for g in got[:, j]] == [float(w).hex() for w in want]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 0.3141, 7.25])
def test_power_with_a_contiguous_exponent_is_the_same_anywhere(alpha):
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(-10.0, 10.0, 4099))
    whole = np.power(x, np.full(x.size, alpha))
    for _ in range(200):
        start = int(rng.integers(0, x.size))
        stop = int(rng.integers(start, x.size + 1))
        part = np.power(x[start:stop], np.full(stop - start, alpha))
        assert part.tobytes() == whole[start:stop].tobytes()
        # a copy of the values, at another address, and in a buffer of
        # several exponents as the row kernel builds it
        assert np.power(x[start:stop].copy(), np.full(stop - start, alpha)).tobytes() \
            == part.tobytes()
    sizes = rng.integers(0, 60, 40)
    alphas = np.where(rng.random(40) < 0.5, alpha, rng.uniform(0.1, 5.0, 40))
    flat = np.exp(rng.uniform(-10.0, 10.0, int(sizes.sum())))
    mixed = np.power(flat, np.repeat(alphas, sizes))
    for a, segment, got in zip(alphas, np.split(flat, np.cumsum(sizes)[:-1]),
                               np.split(mixed, np.cumsum(sizes)[:-1])):
        assert got.tobytes() == np.power(segment, np.full(segment.size, a)).tobytes()
