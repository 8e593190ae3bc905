"""Weighted spectral discretization of the interval (-1, 1).

The measure is the probability measure ``nu_d(z) dz = Z_d^{-1} (1-z^2)^{d/2-1} dz``
(the z-marginal of the uniform measure on the d-sphere, d >= 1 real).  Grid
functions are stored both as nodal values at Gauss-Jacobi points and as
coefficients in the Gegenbauer (symmetric Jacobi) basis orthonormal with
respect to that measure.  The nodes are square roots of the eigenvalues of a
symmetric tridiagonal matrix, each polished by one Newton step on the
recurrence.  In this basis the ultraspherical operator

    L f = (1 - z^2) f'' - d z f'

is diagonal with eigenvalues -k (k + d - 1), which is what makes the heat
flow exactly integrable and the stiff solves in the nonlinear flows trivial.
Derivatives take no table of their own: f' comes from the values table by
the lowering identity nu phi_k' = (2k+d-1) b_k phi_(k-1) - k z phi_k, and
nu f'' = L f + d z f'.  Both refuse an unresolved input (RESOLUTION_TOL).
Both divide by nu, so next to z = +-1 they carry about eps/nu of relative
rounding, which the nu or nu^2 weight that every report puts on f'' removes.
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
    with np.errstate(over="ignore", invalid="ignore"):  # at huge d; _gauss_rule refuses it
        b2 = k * (k + d - 2.0)
        b2[2:] /= (2.0 * k[2:] + d - 3.0) * (2.0 * k[2:] + d - 1.0)
    b2[1] = 1.0 / (d + 1.0)
    return np.sqrt(b2)


def _gauss_rule(d: float, n: int, cols: int):
    """The n-point Gauss rule for nu_d and the basis values at its nodes.

    Returns the nodes, the weights, and the C-contiguous (n, cols) table of
    the values of phi_0..phi_(cols-1).

    The Jacobi matrix of the recurrence has a zero diagonal, so it couples
    even degrees only to odd ones: the nodes are 0 (n odd) and +- the
    square roots of the eigenvalues of B^T B, tridiagonal, with B its
    ceil(n/2) x floor(n/2) even-odd block (Golub-Welsch through the parity
    block).  The root loses digits near 0, so one Newton step on phi_n, by
    nu phi_k' = (2k+d-1) b_k phi_(k-1) - k x phi_k, polishes each node, and
    the same identity moves the values table to it, to first order.  From
    that table: the weights 1 / sum_(k<n) phi_k(x_j)^2, or, when it stops
    short of degree n - 1, nu / ((2n+d-1) b_n^2 phi_(n-1)^2) (Christoffel-
    Darboux).  phi_k(-x) = (-1)^k phi_k(x) mirrors the nonnegative nodes'
    values, so nodes, weights and table have parity to the last bit.
    """
    b = _recurrence(d, n)
    if not np.all(np.isfinite(b)):
        raise ConvergenceError(f"the recurrence for d={d} is not finite")
    q = n // 2
    odd, even = b[1:n:2], b[2:n:2]  # B[i, i] = b_(2i+1), B[i, i-1] = b_(2i)
    btb = np.diag(odd * odd + np.append(even * even, 0.0)[:q])
    btb[np.arange(1, q), np.arange(q - 1)] = even[: q - 1] * odd[1:]  # all eigvalsh reads
    x2 = np.linalg.eigvalsh(btb)
    del btb

    # at large d the recurrence overflows (and b_k is 0 at huge d): see the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.concatenate([np.zeros(n - 2 * q), np.sqrt(x2)])  # the nonnegative nodes
        T, inv = _rows(x, b, cols), 1.0 / b
        p0, p1 = T[cols - 2], T[cols - 1]
        for j in range(cols, n):
            p0, p1 = p1, (x * p1 - b[j - 1] * p0) * inv[j]
        pn = (x * p1 - b[n - 1] * p0) * inv[n]
        k, nu = np.arange(n + 1), 1.0 - x * x
        lower = (2.0 * k + d - 1.0) * b  # nu phi_k' = lower_k phi_(k-1) - k x phi_k
        delta = -pn * nu / (lower[n] * p1 - n * x * pn)
        step = delta / nu
        if cols < n:  # phi_(n-1) at the polished nodes, before p0 can move with T
            p1 += step * (lower[n - 1] * p0 - (n - 1) * x * p1)
        for i in range(cols, 1, -64):  # in row blocks, top down: each reads unmoved rows
            lo = max(i - 64, 1)
            moved = lower[lo:i, None] * T[lo - 1 : i - 1]
            moved -= k[lo:i, None] * np.multiply(x, T[lo:i])
            moved *= step
            T[lo:i] += moved
        x += delta
        w = (1.0 / np.einsum("kj,kj->j", T, T) if cols == n
             else (1.0 - x * x) / (lower[n] * b[n] * p1 * p1))

    nodes = np.concatenate([-x[::-1][:q], x])
    weights = np.concatenate([w[::-1][:q], w])
    # a non-finite table entry stays non-finite in every higher degree, so
    # the top degree shows whether there is one
    if not (np.all(np.isfinite(nodes)) and np.all(weights > 0.0) and np.all(np.isfinite(T[-1]))):
        raise ConvergenceError(f"Gauss rule for d={d}, n={n} has a non-finite node or "
                               "basis value, or a non-positive weight")
    return nodes, weights, _mirrored(T, n)


def _rows(x: np.ndarray, b: np.ndarray, cols: int) -> np.ndarray:
    """Rows phi_k(x), k < cols, from the recurrence."""
    inv, tmp = 1.0 / b, np.empty_like(x)
    T = np.zeros((cols, len(x)))
    T[0], T[1] = 1.0, x * inv[1]
    for k in range(2, cols):
        row = np.multiply(x, T[k - 1], out=T[k])
        row -= np.multiply(b[k - 1], T[k - 2], out=tmp)
        row *= inv[k]
    return T


def _mirrored(T: np.ndarray, n: int) -> np.ndarray:
    """The C-contiguous (n, cols) table of phi_k, mirrored from its rows T[k]."""
    cols, h = T.shape
    V = np.empty((n, cols))
    for i in range(0, cols, 128):  # a blocked transpose: 3x faster at cols = 1024
        V[n - h :, i : i + 128] = T[i : i + 128].T
    np.multiply(V[n - h :][::-1][: n - h], (-1.0) ** np.arange(cols), out=V[: n - h])
    return V


def _slopes(V: np.ndarray, x: np.ndarray, lower: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """f' at the nodes x of the values table V from the coefficients c, a vector
    or an (n, s) stack: with c_n = 0, nu f' = V (lower_(k+1) c_(k+1)) - x V (k c)."""
    n, k = len(lower), np.arange(len(lower), dtype=float)
    if coeffs.ndim == 2:
        x, lower, k = x[:, None], lower[:, None], k[:, None]
    both = np.zeros((n, 2) + coeffs.shape[1:])  # one product with both stacks
    both[:-1, 0], both[:, 1] = lower[1:] * coeffs[1:], k * coeffs
    p = (V @ both.reshape(n, -1)).reshape((len(x), 2) + coeffs.shape[1:])
    return (p[:, 0] - x * p[:, 1]) / (1.0 - x * x)


class Quadrature:
    """Gauss-Jacobi rule and orthonormal-basis tables for the measure nu_d.

    One N x N table of basis values serves synthesis, analysis (transposed)
    and derivatives; the padded rule is built on first use (a thread race
    only builds the same bits twice).  Exact to degree 2n - 1.
    """

    def __init__(self, d: float, n: int):
        if not 1.0 <= d < math.inf:
            raise DomainError(f"dimension must be finite and >= 1, got {d}")
        if n < 4:
            raise DomainError(f"need at least 4 nodes, got {n}")
        self.d = float(d)
        self.n = int(n)
        self.nodes, self.weights, self._basis = _gauss_rule(self.d, self.n, self.n)
        # the lowering identity's (2k+d-1) b_k, for f' on either rule
        self._lower = (2.0 * np.arange(n) + self.d - 1.0) * _recurrence(self.d, n - 1)
        # the rule for first moments int z f
        self.z_weights = self.weights * self.nodes
        self.nu = 1.0 - self.nodes * self.nodes

        # nodal values of the first eigenfunction (proportional to z): column 1
        # of the synthesis table, bitwise equal to synthesizing e_1
        self.phi1_values = self._basis[:, 1].copy()
        lam = np.arange(n, dtype=float)
        self.eigenvalues = lam * (lam + d - 1.0)

        self._padded: dict[str, np.ndarray] | None = None

    # -- padded evaluation (pseudospectral dealiasing) ---------------------

    def _pad_tables(self) -> dict[str, np.ndarray]:
        if self._padded is None:
            x, w, V = _gauss_rule(self.d, PAD * self.n, self.n)
            self._padded = {"x": x, "w": w, "synth": V}
        return self._padded

    def padded_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._pad_tables()["synth"] @ coeffs

    def padded_derivative(self, coeffs: np.ndarray) -> np.ndarray:
        """f' on the padded grid (no flow calls it; perfbench/tracer.py wraps it)."""
        pad = self._pad_tables()
        return _slopes(pad["synth"], pad["x"], self._lower, coeffs)

    def project_padded(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the padded nodal data, truncated to n modes."""
        pad = self._pad_tables()
        return pad["synth"].T @ (pad["w"] * values.T).T

    # -- transforms (of a vector, or of an (n, s) stack of columns) -----------

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self._basis.T @ (self.weights * values.T).T

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._basis @ coeffs

    def derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        return _slopes(self._basis, self.nodes, self._lower, coeffs)

    def second_derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        """f'' at the nodes (``second_derivative_from``, f' computed here);
        perfbench/tracer.py wraps it by this name and signature."""
        return self.second_derivative_from(coeffs, self.derivative_values(coeffs))

    def second_derivative_from(self, coeffs: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """f'' at the nodes from L and the slopes f' there, for a caller that
        holds them: nu f'' = L f + d z f', L f = -lam c.  Unweighted, it
        carries about eps/nu of relative rounding near z = +-1."""
        lam, z, nu = self.eigenvalues, self.nodes, self.nu
        if coeffs.ndim == 2:
            lam, z, nu = lam[:, None], z[:, None], nu[:, None]
        return (self.to_values(-lam * coeffs) + self.d * z * slopes) / nu

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

    def require_resolved(self):
        require_resolved(self.coeffs)

    # -- serialization -------------------------------------------------------

    def to_csv(self, path):
        data = np.column_stack([self.quad.nodes, self.values])
        np.savetxt(path, data, delimiter=",", header="z,value", comments="", fmt="%.17g")


def resolution_fraction(coeffs: np.ndarray):
    """Fraction of the weighted norm carried by the top two modes of one
    coefficient vector (a float), or of each column of an (n, s) stack (an
    array of s, each within 1e-15 relative of its column's own fraction)."""
    if coeffs.ndim == 2:  # one square per row: pairwise row sums, as accurate as vdot
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.square(coeffs.T, order="C")
            over = sq.sum(axis=1) == math.inf  # columns past 1e154: scale them first
            sq[over] = np.square(coeffs[:, over] / np.abs(coeffs[:, over]).max(axis=0)).T
            norm2 = sq.sum(axis=1)
            frac = np.sqrt(sq[:, -2:].sum(axis=1)) / np.sqrt(norm2)
        return np.where(norm2 == 0.0, 0.0, frac)
    # np.linalg.norm is sqrt(x @ x), to the bit; np.vdot computes the same
    # x @ x faster and returns inf on overflow without a warning
    norm2 = np.vdot(coeffs, coeffs)
    if norm2 == math.inf:  # coefficients past 1e154: scale them first
        with np.errstate(invalid="ignore"):  # an infinite one gives NaN
            coeffs = coeffs / np.abs(coeffs).max()
        norm2 = np.vdot(coeffs, coeffs)
    if norm2 == 0.0:
        return 0.0
    top = coeffs[-2:]
    return math.sqrt(np.vdot(top, top)) / math.sqrt(norm2)


def require_resolved(coeffs: np.ndarray):
    """Raise ResolutionError where the top two modes of the coefficients (of
    any column of a stack) carry more than RESOLUTION_TOL of the norm; the
    message gives the first failing column's fraction."""
    for frac in np.atleast_1d(resolution_fraction(coeffs)).tolist():
        if frac > RESOLUTION_TOL:
            raise ResolutionError(
                f"top modes carry {frac:.2e} of the norm (tolerance {RESOLUTION_TOL:.1e}); "
                "increase the quadrature order"
            )


def derivative(f: GridFn) -> np.ndarray:
    """Spectral derivative at the nodes; exact on polynomials in the resolved band."""
    f.require_resolved()
    return f.quad.derivative_values(f.coeffs)


def second_derivative(f: GridFn) -> np.ndarray:
    """Second derivative at the nodes, from L (Quadrature.second_derivative_values)."""
    f.require_resolved()
    return f.quad.second_derivative_values(f.coeffs)


def integral(f: GridFn) -> float:
    return float(f.quad.weights @ f.values)


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
    draws = np.random.default_rng(rng).standard_normal(min(modes, quad.n - 3))
    return GridFn.from_coeffs(quad, _band_limited(quad, draws, amplitude, even_only))


def _band_limited(quad: Quadrature, draws: np.ndarray, amplitude, even_only: bool) -> np.ndarray:
    """Coefficients of sum_k draws[k-1] 0.6^k phi_k over k = 1..len(draws)
    (odd k dropped with even_only), scaled to the nodal sup-norm
    ``amplitude``.  A (modes, s) stack of draws with s amplitudes gives the
    (n, s) stack of their columns."""
    modes = draws.shape[0]
    coeffs = np.zeros((quad.n,) + draws.shape[1:])
    coeffs[1 : modes + 1] = (draws.T * 0.6 ** np.arange(1, modes + 1)).T
    if even_only:
        coeffs[1::2] = 0.0
    top = np.abs(quad.to_values(coeffs)).max(axis=0)
    # a zero combination stays zero
    return coeffs * (amplitude / np.where(top > 0.0, top, np.inf))


def random_positive(quad: Quadrature, rng, modes: int = 8, amplitude: float = 0.5) -> GridFn:
    """1 + the perturbation random_band_limited draws from the same rng
    (amplitude at most 0.7), bounded below by 0.3."""
    draws = np.random.default_rng(rng).standard_normal(min(modes, quad.n - 3))
    coeffs = _band_limited(quad, draws, min(amplitude, 0.7), False)
    coeffs[0] = 1.0
    return GridFn.from_coeffs(quad, coeffs)
