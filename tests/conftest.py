import functools
import os
from pathlib import Path

import numpy as np
import pytest

from ultraflow import Quadrature

# pytest puts src/ on sys.path (pyproject.toml); the tests that start a fresh
# interpreter need it on that interpreter's path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


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
