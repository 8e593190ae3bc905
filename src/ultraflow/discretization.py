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

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, roots_jacobi

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
    return float(np.exp(0.5 * np.log(np.pi) + gammaln(d / 2.0) - gammaln((d + 1) / 2.0)))


def even_moment(d: float, j: int) -> float:
    """Exact value of the integral of z^(2j) against the probability measure.

    Follows from the Beta-function moments: prod_{i=1..j} (2i-1)/(d+2i-1).
    Used as an independent oracle for the quadrature.
    """
    out = 1.0
    for i in range(1, j + 1):
        out *= (2 * i - 1) / (d + 2 * i - 1)
    return out


def _jacobi_table(x: np.ndarray, a: float, kmax: int) -> np.ndarray:
    """Values of the Jacobi polynomials P_k^(a,a), k = 0..kmax, at points x.

    Three-term recurrence; k = 1 is set directly so the degenerate case
    2a = -1 (d = 1, the Chebyshev weight) is handled.  The recurrence fills
    contiguous rows, one per degree; the returned (x.size, kmax + 1) table is
    a C-contiguous copy, because the memory layout of a table decides the
    BLAS path, and with it the last bits, of every transform built on it.
    """
    P = np.empty((kmax + 1, x.size))
    P[0] = 1.0
    if kmax >= 1:
        P[1] = (a + 1.0) * x
    for k in range(2, kmax + 1):
        s = 2.0 * a  # alpha + beta
        c0 = 2.0 * k * (k + s) * (2.0 * k + s - 2.0)
        c1 = (2.0 * k + s - 1.0) * (2.0 * k + s) * (2.0 * k + s - 2.0)
        c2 = 2.0 * (k + a - 1.0) ** 2 * (2.0 * k + s)
        P[k] = (c1 * x * P[k - 1] - c2 * P[k - 2]) / c0
    return np.ascontiguousarray(P.T)


def _log_sq_norm(a: float, k: np.ndarray) -> np.ndarray:
    """log of int P_k^(a,a)^2 (1-x^2)^a dx for k >= 1."""
    return (
        (2.0 * a + 1.0) * np.log(2.0)
        - np.log(2.0 * k + 2.0 * a + 1.0)
        + 2.0 * gammaln(k + a + 1.0)
        - gammaln(k + 1.0)
        - gammaln(k + 2.0 * a + 1.0)
    )


def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1-x^2)^a,
    symmetrized so that parity is preserved to the last bit."""
    try:
        x, w = roots_jacobi(n, a, a)
    except Exception as exc:  # pragma: no cover - node solver failure
        raise ConvergenceError(f"Gauss-Jacobi node solver failed at order {n}: {exc}")
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


class Quadrature:
    """Gauss-Jacobi rule and orthonormal-basis tables for the measure nu_d.

    Immutable after construction; instances are safe to share across threads
    and across any number of grid functions.  ``n`` nodes integrate
    polynomials of degree <= 2n-1 exactly against the weight.
    """

    def __init__(self, d: float, n: int):
        if d < 1.0:
            raise DomainError(f"dimension must be >= 1, got {d}")
        if n < 4:
            raise DomainError(f"need at least 4 nodes, got {n}")
        self.d = float(d)
        self.n = int(n)
        a = d / 2.0 - 1.0
        self._a = a
        self.z_d = normalization_constant(d)
        x, w = _gauss_jacobi(n, a)
        self.nodes = x
        self.weights = w / self.z_d
        # the rule for first moments int z f
        self.z_weights = self.weights * x
        self.nu = 1.0 - x * x

        self._basis, self._basis_d1, self._basis_d2 = self._tables(x, n, 2)
        # nodal values of the first eigenfunction (proportional to z): column 1
        # of the synthesis table, bitwise equal to synthesizing e_1
        self.phi1_values = self._basis[:, 1].copy()
        # analysis matrix: coeffs = analysis @ values
        self._analysis = self._basis.T * self.weights
        lam = np.arange(n, dtype=float)
        self.eigenvalues = lam * (lam + d - 1.0)

        self._padded: dict[str, np.ndarray] | None = None

    def _tables(self, x: np.ndarray, cols: int, order: int) -> list[np.ndarray]:
        """Values at x of the first ``cols`` basis functions and of their
        derivatives up to ``order``, one (x.size, cols) table each.  The j-th
        derivative of P_k^(a,a) is (k+2a+1)...(k+2a+j) / 2^j P_(k-j)^(a+j,a+j)."""
        a = self._a
        k = np.arange(cols, dtype=float)
        scale = np.ones(cols)
        scale[1:] = np.exp(0.5 * (np.log(self.z_d) - _log_sq_norm(a, k[1:])))
        tables = []
        for j in range(order + 1):
            V = np.zeros((x.size, cols))
            if cols > j:
                fac = np.ones(cols - j)
                for i in range(1, j + 1):
                    fac = fac * (k[j:] + 2.0 * a + i) / 2.0
                V[:, j:] = _jacobi_table(x, a + j, cols - 1 - j) * (fac * scale[j:])
            tables.append(V)
        return tables

    # -- padded evaluation (pseudospectral dealiasing) ---------------------

    def _pad_tables(self) -> dict[str, np.ndarray]:
        if self._padded is None:
            x, w = _gauss_jacobi(PAD * self.n, self._a)
            V, V1 = self._tables(x, self.n, 1)
            self._padded = {
                "x": x,
                "w": w / self.z_d,
                "nu": 1.0 - x * x,
                "synth": V,
                "synth_d1": V1,
                "analysis": V.T * (w / self.z_d),
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
