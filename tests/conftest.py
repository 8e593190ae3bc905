import functools
import math
import os
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ultraflow.constants import Params
from ultraflow.discretization import Quadrature

# pytest puts src/ on sys.path (pyproject.toml); the tests that start a fresh
# interpreter need it on that interpreter's path too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@functools.lru_cache(maxsize=32)
def cached_quadrature(d: float, n: int):
    return Quadrature(d, n)


def traced_peak(fn):
    """(fn(), the peak of the memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unchecked_params(d, p) -> Params:
    """Params(d, p) without its domain checks: for error paths above the
    critical exponent, and for symbolic d and p, which the checks cannot
    compare."""
    obj = object.__new__(Params)
    object.__setattr__(obj, "d", d)
    object.__setattr__(obj, "p", p)
    return obj


def normalization_constant(d: float) -> float:
    """Z_d = sqrt(pi) Gamma(d/2) / Gamma((d+1)/2), the mass of (1-z^2)^(d/2-1)."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


def moment_of(quad, values: np.ndarray, p: float):
    """int z |v|^p from nodal values; per column for an (n, s) stack."""
    return quad.z_weights @ np.abs(values) ** p


def holds(results) -> dict:
    """Every claim of an ``ultraflow.checks`` generator holds; returns
    claim -> measured."""
    results = list(results)
    assert [(claim, measured) for claim, passed, measured in results if not passed] == []
    return {claim: measured for claim, _, measured in results}


def mp_entropy(weights, rho, p: float) -> float:
    """E_p of nodal data in 50 digits, against the weights normalized to sum
    1: (mass^(2/p) - int rho^(2/p))/(p - 2), or (1/2) int rho log(rho/mass)
    at p = 2; a nodal zero adds nothing to either integral."""
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in weights]
        total = mpmath.fsum(w)
        w = [x / total for x in w]
        r = [mpmath.mpf(float(x)) for x in rho]
        mass = mpmath.fsum(a * b for a, b in zip(w, r))
        if p == 2.0:
            return float(mpmath.fsum(a * b * mpmath.log(b / mass)
                                     for a, b in zip(w, r) if b) / 2)
        q = mpmath.mpf(p)
        frac = mpmath.fsum(a * b ** (2 / q) for a, b in zip(w, r))
        return float((mass ** (2 / q) - frac) / (q - 2))


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
