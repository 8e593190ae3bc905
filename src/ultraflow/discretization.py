"""Weighted spectral discretization of the interval (-1, 1).

The measure is the probability measure ``nu_d(z) dz = Z_d^{-1} (1-z^2)^{d/2-1} dz``
(the z-marginal of the uniform measure on the d-sphere, d >= 1 real).  Grid
functions are stored both as nodal values at Gauss-Jacobi points and as
coefficients in the Gegenbauer (symmetric Jacobi) basis orthonormal with
respect to that measure.  In this basis the ultraspherical operator

    L f = (1 - z^2) f'' - d z f'

is diagonal with eigenvalues -k (k + d - 1), which is what makes the heat
flow exactly integrable and the stiff solves in the nonlinear flows trivial.
No boundary conditions are imposed; the vanishing weight at z = +-1 does not
require any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PositivityError, ResolutionError

#: nodal values at or below this floor trigger a PositivityError
EPS_POS = 1e-12

#: the padded (dealiasing) grid has PAD * n nodes; its Gauss rule is exact to
#: degree 4n - 1, so projecting a product of up to three band-n factors (such
#: as nu |f'|^2) back onto the n modes is alias-free (degree <= 4n - 4)
PAD = 2

#: fraction of the norm allowed in the top two modes before derivative
#: operations refuse the input
RESOLUTION_TOL = 1e-8


def normalization_constant(d: float) -> float:
    """Z_d = sqrt(pi) Gamma(d/2) / Gamma((d+1)/2), the mass of (1-z^2)^(d/2-1)."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


def even_moment(d: float, j: int) -> float:
    """Exact value of the integral of z^(2j) against the probability measure.

    Follows from the Beta-function moments: prod_{i=1..j} (2i-1)/(d+2i-1).
    Used as an independent oracle for the quadrature.
    """
    out = 1.0
    for i in range(1, j + 1):
        out *= (2 * i - 1) / (d + 2 * i - 1)
    return out


def _recurrence(d: float, kmax: int) -> np.ndarray:
    """b_0 = 0, b_1, ..., b_kmax of the orthonormal basis's recurrence
    x phi_(k-1) = b_k phi_k + b_(k-1) phi_(k-2).

    b_k^2 = k (k+d-2) / ((2k+d-3) (2k+d-1)); at k = 1 this is 1/(d+1), which
    is also its limit at d = 1 (the Chebyshev weight), where the formula is 0/0.
    """
    k = np.arange(kmax + 1, dtype=float)
    b2 = k * (k + d - 2.0)
    b2[2:] /= (2.0 * k[2:] + d - 3.0) * (2.0 * k[2:] + d - 1.0)
    b2[1] = 1.0 / (d + 1.0)
    return np.sqrt(b2)


def _gauss_rule(d: float, n: int, cols: int, order: int):
    """The n-point Gauss rule for nu_d and the basis tables at its nodes.

    Returns the nodes, the weights, and for j = 0..order (order >= 1) the
    C-contiguous (n, cols) table of the j-th derivatives of phi_0..phi_(cols-1).

    The Jacobi matrix of the recurrence has a zero diagonal, so it couples
    even degrees only to odd ones: the nodes are 0 (n odd) and +- the
    singular values of its ceil(n/2) x floor(n/2) even-odd block (Golub-Welsch
    through the parity block).  The weights are the Christoffel numbers
    1 / sum_(k<n) phi_k(x_j)^2.  One recurrence over the nonnegative nodes
    gives the values, the derivative tables (the recurrence differentiated j
    times), and the Christoffel sums; phi_k^(j)(-x) = (-1)^(k+j) phi_k^(j)(x)
    mirrors them, so nodes, weights and tables have parity to the last bit.
    """
    b = _recurrence(d, n - 1)
    h, q = (n + 1) // 2, n // 2
    block = np.zeros((h, q))
    block[np.arange(q), np.arange(q)] = b[1::2]
    block[np.arange(1, h), np.arange(h - 1)] = b[2::2]
    sv = np.linalg.svd(block, compute_uv=False)
    x = np.concatenate([np.zeros(n - 2 * q), sv[::-1]])  # the nonnegative nodes

    inv = np.zeros_like(b)
    inv[1:] = 1.0 / b[1:]
    # T[j, k] holds phi_k^(j) at x
    T = np.zeros((order + 1, cols, h))
    T[0, 0] = 1.0
    T[0, 1] = x * inv[1]
    T[1, 1] = inv[1]
    ords = np.arange(1, order + 1, dtype=float)[:, None]
    for k in range(2, cols):
        row = x * T[:, k - 1] - b[k - 1] * T[:, k - 2]
        row[1:] += ords * T[:-1, k - 1]
        T[:, k] = row * inv[k]
    sums = np.einsum("kj,kj->j", T[0], T[0])
    # degrees cols..n-1 enter the Christoffel sums only
    p0, p1 = T[0, cols - 2], T[0, cols - 1]
    for k in range(cols, n):
        p0, p1 = p1, (x * p1 - b[k - 1] * p0) * inv[k]
        sums += p1 * p1
    w = 1.0 / sums

    nodes = np.concatenate([-x[::-1][:q], x])
    weights = np.concatenate([w[::-1][:q], w])
    if not (np.all(np.isfinite(nodes)) and np.all(weights > 0.0)):
        raise ConvergenceError(f"Gauss rule for d={d}, n={n} has a non-finite node "
                               "or a non-positive weight")
    tables = []
    for j in range(order + 1):
        V = np.empty((n, cols))
        for i in range(0, cols, 128):  # a blocked transpose: 3x faster at cols = 1024
            V[q:, i : i + 128] = T[j, i : i + 128].T
        np.multiply(V[q:][::-1][:q], (-1.0) ** (np.arange(cols) + j), out=V[:q])
        tables.append(V)
    return nodes, weights, tables


class Quadrature:
    """Gauss-Jacobi rule and orthonormal-basis tables for the measure nu_d.

    Immutable after construction; instances are safe to share across threads
    and across any number of grid functions.  ``n`` nodes integrate
    polynomials of degree <= 2n-1 exactly against the weight.
    """

    def __init__(self, d: float, n: int):
        if not 1.0 <= d < math.inf:
            raise DomainError(f"dimension must be finite and >= 1, got {d}")
        if n < 4:
            raise DomainError(f"need at least 4 nodes, got {n}")
        self.d = float(d)
        self.n = int(n)
        x, self.weights, (self._basis, self._basis_d1, self._basis_d2) = _gauss_rule(
            self.d, self.n, self.n, 2
        )
        self.nodes = x
        # the rule for first moments int z f
        self.z_weights = self.weights * x
        self.nu = 1.0 - x * x

        # nodal values of the first eigenfunction (proportional to z): column 1
        # of the synthesis table, bitwise equal to synthesizing e_1
        self.phi1_values = self._basis[:, 1].copy()
        # analysis matrix: coeffs = analysis @ values
        self._analysis = self._basis.T * self.weights
        lam = np.arange(n, dtype=float)
        self.eigenvalues = lam * (lam + d - 1.0)

        self._padded: dict[str, np.ndarray] | None = None

    # -- padded evaluation (pseudospectral dealiasing) ---------------------

    def _pad_tables(self) -> dict[str, np.ndarray]:
        if self._padded is None:
            x, w, (V, V1) = _gauss_rule(self.d, PAD * self.n, self.n, 1)
            self._padded = {
                "x": x,
                "w": w,
                "nu": 1.0 - x * x,
                "synth": V,
                "synth_d1": V1,
                "analysis": V.T * w,
            }
        return self._padded

    def padded_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._pad_tables()["synth"] @ coeffs

    def padded_derivative(self, coeffs: np.ndarray) -> np.ndarray:
        return self._pad_tables()["synth_d1"] @ coeffs

    def padded_nu(self) -> np.ndarray:
        return self._pad_tables()["nu"]

    def project_padded(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the padded nodal data, truncated to n modes."""
        return self._pad_tables()["analysis"] @ values

    # -- transforms ---------------------------------------------------------

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self._analysis @ values

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._basis @ coeffs

    def derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._basis_d1 @ coeffs

    def second_derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._basis_d2 @ coeffs

    def __repr__(self) -> str:
        return f"Quadrature(d={self.d}, n={self.n})"


@dataclass(frozen=True)
class GridFn:
    """A function on (-1, 1) held as nodal values plus spectral coefficients.

    The two representations are kept in sync at construction.  Instances are
    value-like and immutable; arithmetic helpers return new objects.
    """

    quad: Quadrature
    values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def from_values(cls, quad: Quadrature, values) -> "GridFn":
        values = np.asarray(values, dtype=float)
        if values.shape != (quad.n,):
            raise ValueError(f"expected {quad.n} nodal values, got shape {values.shape}")
        return cls(quad, values, quad.to_coeffs(values))

    @classmethod
    def from_coeffs(cls, quad: Quadrature, coeffs) -> "GridFn":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (quad.n,):
            raise ValueError(f"expected {quad.n} coefficients, got shape {coeffs.shape}")
        return cls(quad, quad.to_values(coeffs), coeffs)

    @classmethod
    def from_function(cls, quad: Quadrature, fn) -> "GridFn":
        return cls.from_values(quad, fn(quad.nodes))

    @classmethod
    def constant(cls, quad: Quadrature, c: float) -> "GridFn":
        coeffs = np.zeros(quad.n)
        coeffs[0] = c
        return cls(quad, np.full(quad.n, float(c)), coeffs)

    # -- basic queries -------------------------------------------------------

    def min_value(self) -> float:
        return float(self.values.min())

    def is_positive(self) -> bool:
        return self.min_value() > EPS_POS

    def require_positive(self, what: str = "grid function"):
        if not self.is_positive():
            raise PositivityError(
                f"{what} has min nodal value {self.min_value():.3e} <= {EPS_POS:.1e}"
            )

    def resolution_fraction(self) -> float:
        """Fraction of the weighted norm carried by the top two modes."""
        norm = float(np.linalg.norm(self.coeffs))
        if norm == 0.0:
            return 0.0
        return float(np.linalg.norm(self.coeffs[-2:])) / norm

    def require_resolved(self):
        frac = self.resolution_fraction()
        if frac > RESOLUTION_TOL:
            raise ResolutionError(
                f"top modes carry {frac:.2e} of the norm (tolerance {RESOLUTION_TOL:.1e}); "
                "increase the quadrature order"
            )

    # -- serialization -------------------------------------------------------

    def to_csv(self, path):
        data = np.column_stack([self.quad.nodes, self.values])
        np.savetxt(path, data, delimiter=",", header="z,value", comments="", fmt="%.17g")


def derivative(f: GridFn, check: bool = True) -> np.ndarray:
    """Spectral derivative at the nodes; exact on polynomials in the resolved band."""
    if check:
        f.require_resolved()
    return f.quad.derivative_values(f.coeffs)


def second_derivative(f: GridFn, check: bool = True) -> np.ndarray:
    if check:
        f.require_resolved()
    return f.quad.second_derivative_values(f.coeffs)


def integral(f: GridFn) -> float:
    return float(np.sum(f.quad.weights * f.values))


def eigenfunction(quad: Quadrature, k: int) -> GridFn:
    """k-th orthonormal basis function (eigenfunction of -L with eigenvalue
    k (k + d - 1)).  The degree-2 one is proportional to z^2 - 1/(d+1)."""
    if not 0 <= k < quad.n:
        raise DomainError(f"mode index {k} outside [0, {quad.n})")
    coeffs = np.zeros(quad.n)
    coeffs[k] = 1.0
    return GridFn.from_coeffs(quad, coeffs)


def random_band_limited(
    quad: Quadrature,
    rng,
    modes: int,
    amplitude: float = 0.5,
    even_only: bool = False,
) -> GridFn:
    """Zero-mean random combination of modes 1..modes with coefficients
    decaying like 0.6^k, sup-norm ~ amplitude."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    modes = min(modes, quad.n - 3)
    coeffs = np.zeros(quad.n)
    ks = np.arange(1, modes + 1)
    coeffs[1 : modes + 1] = rng.standard_normal(modes) * 0.6**ks
    if even_only:
        coeffs[1::2] = 0.0
    g = GridFn.from_coeffs(quad, coeffs)
    top = float(np.abs(g.values).max())
    if top == 0.0:
        return g
    return GridFn.from_coeffs(quad, coeffs * (amplitude / top))


def random_positive(quad: Quadrature, rng, modes: int = 8, amplitude: float = 0.5) -> GridFn:
    """1 + random band-limited perturbation, bounded below by 0.3."""
    amplitude = min(amplitude, 0.7)
    g = random_band_limited(quad, rng, modes, amplitude)
    return GridFn.from_coeffs(quad, g.coeffs + GridFn.constant(quad, 1.0).coeffs)
