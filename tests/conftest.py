import functools

import numpy as np
import pytest

from ultraflow import Quadrature


@functools.lru_cache(maxsize=32)
def cached_quadrature(d: float, n: int):
    return Quadrature(d, n)


@pytest.fixture
def quad5():
    return cached_quadrature(5.0, 128)


@pytest.fixture
def quad4():
    return cached_quadrature(4.0, 128)


@pytest.fixture
def quad3():
    return cached_quadrature(3.0, 128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
