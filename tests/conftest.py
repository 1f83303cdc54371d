import math

import numpy as np
import pytest

from iwhc import HybridScheme, apply_scheme, reciprocals
from iwhc.datasets import load_bundled


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
    from iwhc import IwParams, sample

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
