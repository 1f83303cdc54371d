import math
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

from iwhc import HybridScheme, IwParams, apply_scheme, reciprocals, sample
from iwhc.datasets import load_bundled


@pytest.fixture
def deadline():
    """``deadline(seconds)`` fails the test once it has run that many more
    seconds (whole seconds, by ``SIGALRM``), so a regression to a hang fails
    quickly instead of stalling the suite.  The alarm is cleared at teardown."""
    def expire(signum, frame):
        pytest.fail("the test ran past its deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)

    def arm(seconds: int):
        signal.alarm(seconds)

    yield arm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def flood():
    return load_bundled("flood")


@pytest.fixture(scope="session")
def guinea():
    return load_bundled("guinea")


@pytest.fixture(scope="session")
def flood_complete(flood):
    return reciprocals(apply_scheme(flood, HybridScheme(n=20, R=20, T=math.inf)))


@pytest.fixture(scope="session")
def flood_s1(flood):
    return reciprocals(apply_scheme(flood, HybridScheme(n=20, R=18, T=0.5)))


@pytest.fixture(scope="session")
def flood_s2(flood):
    return reciprocals(apply_scheme(flood, HybridScheme(n=20, R=14, T=0.45)))


@pytest.fixture(scope="session")
def guinea_complete(guinea):
    return reciprocals(apply_scheme(guinea, HybridScheme(n=72, R=72, T=math.inf)))


@pytest.fixture(scope="session")
def guinea_s1(guinea):
    return reciprocals(apply_scheme(guinea, HybridScheme(n=72, R=50, T=90.0)))


@pytest.fixture(scope="session")
def guinea_s2(guinea):
    return reciprocals(apply_scheme(guinea, HybridScheme(n=72, R=60, T=150.0)))


def random_censored_sample(rng, n_range=(8, 40), alpha_range=(0.4, 5.0),
                           theta_range=(0.3, 3.0)):
    """A random hybrid censored dataset with at least two observed failures."""
    while True:
        n = int(rng.integers(*n_range))
        alpha = float(rng.uniform(*alpha_range))
        theta = float(rng.uniform(*theta_range))
        params = IwParams(alpha, theta)
        data = sample(n, params, rng.integers(2 ** 32))
        R = int(rng.integers(max(2, n // 2), n + 1))
        T = float(np.quantile(data, rng.uniform(0.4, 1.0)))
        s = reciprocals(apply_scheme(data, HybridScheme(n=n, R=R, T=T)))
        if s.r >= 3:
            return s, params


@st.composite
def censored_samples(draw):
    """Random hybrid schemes over extreme (alpha, theta), often with ties."""
    n = draw(st.integers(2, 40))
    alpha = math.exp(draw(st.floats(math.log(0.1), math.log(40.0))))
    theta = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
    data = sample(n, IwParams(alpha, theta), draw(st.integers(0, 2 ** 32 - 1)))
    decimals = draw(st.none() | st.integers(0, 3))
    if decimals is not None:
        data = np.round(data, decimals)
    R = draw(st.integers(1, n))
    T = draw(st.none() | st.floats(0.0, 1.0))
    T = math.inf if T is None else float(np.quantile(data, T))
    return data, HybridScheme(n=n, R=R, T=T) if T > 0 else None
