import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as adaptive_quad
from scipy.special import eval_jacobi, roots_jacobi

from ultraflow import (
    GridFn,
    PositivityError,
    Quadrature,
    ResolutionError,
    derivative,
    eigenfunction,
    integral,
    second_derivative,
)
from ultraflow.discretization import (
    even_moment,
    normalization_constant,
    random_positive,
)
from ultraflow.errors import ConvergenceError, DomainError

from conftest import cached_quadrature


def ultraspherical(f):
    """L f, diagonal in coefficient space: coeff_k -> -k (k + d - 1) coeff_k."""
    return GridFn.from_coeffs(f.quad, -f.quad.eigenvalues * f.coeffs)


def inner(f, g):
    return float(np.sum(f.quad.weights * f.values * g.values))


def nu_density(d):
    z_d = normalization_constant(d)
    return lambda z: (1.0 - z * z) ** (d / 2.0 - 1.0) / z_d


class TestQuadrature:
    @pytest.mark.parametrize("d", [1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0])
    def test_probability_measure(self, d):
        quad = cached_quadrature(d, 64)
        assert abs(quad.weights.sum() - 1.0) < 1e-13

    def test_nodes_interior_increasing(self):
        quad = cached_quadrature(3.0, 40)
        assert quad.nodes[0] > -1.0 and quad.nodes[-1] < 1.0
        assert np.all(np.diff(quad.nodes) > 0)

    def test_second_moment_against_adaptive_oracle(self):
        # oracle: adaptive integration of z^2 against the weight density
        quad = cached_quadrature(3.0, 40)
        dens = nu_density(3.0)
        oracle, _ = adaptive_quad(lambda z: z * z * dens(z), -1, 1)
        val = integral(GridFn.from_values(quad, quad.nodes**2))
        assert abs(val - oracle) < 1e-12
        assert abs(val - 0.25) < 1e-13  # 1/(d+1) at d = 3

    def test_real_dimension_normalization(self):
        quad = cached_quadrature(2.5, 40)
        assert abs(integral(GridFn.constant(quad, 1.0)) - 1.0) < 1e-13

    @pytest.mark.parametrize("d", [1.0, 2.5, 5.0])
    def test_polynomial_exactness(self, d):
        # degree <= 2N-1 integrates exactly; closed-form symmetric moments
        quad = cached_quadrature(d, 16)
        for j in range(0, 15):
            vals = quad.nodes ** (2 * j)
            assert abs(float(np.sum(quad.weights * vals)) - even_moment(d, j)) < 1e-14
            assert abs(float(np.sum(quad.weights * quad.nodes ** (2 * j + 1)))) < 1e-15

    @pytest.mark.parametrize("d, n", [(1.0, 5), (1.0, 64), (2.5, 33), (5.0, 128), (30.0, 64)])
    def test_rule_and_tables_have_parity(self, d, n):
        # phi_k^(j)(-z) = (-1)^(k+j) phi_k^(j)(z) exactly (up to the sign of
        # a zero), in the plain and the padded rule, and every table is
        # C-contiguous: the memory layout of a table decides the BLAS path,
        # and with it the last bits, of every transform built on it
        quad = cached_quadrature(d, n)
        pad = quad._pad_tables()
        for x, w in ((quad.nodes, quad.weights), (pad["x"], pad["w"])):
            assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
        k = np.arange(n)
        tables = [(quad._basis, 0), (quad._basis_d1, 1), (quad._basis_d2, 2),
                  (pad["synth"], 0), (pad["synth_d1"], 1)]
        for table, j in tables:
            assert table.flags.c_contiguous
            assert np.array_equal(table[::-1], table * (-1.0) ** (k + j))

    @pytest.mark.parametrize("n", [4, 5, 33, 64, 128, 256])
    @pytest.mark.parametrize("d", [1.0, 1.5, 2.5, 5.0, 30.0, 100.0])
    def test_rule_against_scipy_oracle(self, d, n):
        # nodes: SciPy's Gauss-Jacobi solver, symmetrized.  Weights: the
        # derivative form w_j ~ 1 / ((1 - x_j^2) P_n'(x_j)^2) at the same
        # nodes, with P_n' from SciPy's Jacobi polynomials and the sum scaled
        # to 1.  (The weights roots_jacobi returns are themselves 1.8e-10 off
        # at the end nodes of d = 2.5, n = 256; see test_end_weight_mpmath.)
        quad = cached_quadrature(d, n)
        a = d / 2.0 - 1.0
        x, _ = roots_jacobi(n, a, a)
        assert np.max(np.abs(quad.nodes - 0.5 * (x - x[::-1]))) <= 1e-15
        dp = eval_jacobi(n - 1, a + 1.0, a + 1.0, quad.nodes)
        w = 1.0 / ((1.0 - quad.nodes**2) * dp * dp)
        assert np.max(np.abs(quad.weights / (w / w.sum()) - 1.0)) <= 1e-10

    def test_end_weight_mpmath(self):
        # 40-digit oracle: Newton on the recurrence from the largest node,
        # then the Christoffel number 1 / sum_(k<n) phi_k(x)^2 there
        d, n = 2.5, 256
        quad = cached_quadrature(d, n)
        with mpmath.workdps(40):
            b = [mpmath.mpf(0), mpmath.sqrt(mpmath.mpf(1) / (d + 1))] + [
                mpmath.sqrt(mpmath.mpf(k) * (k + d - 2) / ((2 * k + d - 3) * (2 * k + d - 1)))
                for k in range(2, n + 1)
            ]

            def recurrence(x):
                p0, p1, d0, d1 = mpmath.mpf(1), x / b[1], mpmath.mpf(0), 1 / b[1]
                total = p0**2 + p1**2
                for k in range(2, n + 1):
                    p0, p1 = p1, (x * p1 - b[k - 1] * p0) / b[k]
                    d0, d1 = d1, (x * d1 + p0 - b[k - 1] * d0) / b[k]
                    if k < n:
                        total += p1**2
                return p1, d1, total

            x = mpmath.mpf(quad.nodes[-1])
            for _ in range(3):
                p, dp, _ = recurrence(x)
                x -= p / dp
            weight = 1 / recurrence(x)[2]
            assert abs(float(x) - quad.nodes[-1]) <= 2e-16
            assert abs(float(quad.weights[-1] / weight) - 1.0) <= 1e-11

    @pytest.mark.parametrize("n", [4, 5, 64, 256])
    def test_chebyshev_closed_form(self, n):
        # d = 1: nodes cos((2j - 1) pi / 2n), weights 1/n
        quad = cached_quadrature(1.0, n)
        nodes = np.sort(np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)))
        assert np.max(np.abs(quad.nodes - nodes)) <= 1e-15
        assert np.max(np.abs(quad.weights * n - 1.0)) <= 1e-10

    @pytest.mark.parametrize("d, n", [(3000.0, 256), (1e5, 64)])
    def test_rule_at_large_dimension(self, d, n):
        # SciPy's solver gave NaN nodes at (3000, 256) and weights summing
        # to 1 + 3.5e-11 at (1e5, 64)
        quad = Quadrature(d, n)
        assert np.all(np.isfinite(quad.nodes)) and np.all(np.diff(quad.nodes) > 0)
        assert np.all(quad.weights > 0.0)
        assert abs(quad.weights.sum() - 1.0) < 1e-13

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rule_failure_is_typed(self):
        # b_k^2 underflows to 0 for k >= 2 at d = 1e300: a NaN rule is refused
        with pytest.raises(ConvergenceError):
            Quadrature(1e300, 8)

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(d=st.floats(1.0, 100.0), n=st.integers(16, 512))
    def test_rule_properties(self, d, n):
        quad = Quadrature(d, n)
        x, w = quad.nodes, quad.weights
        assert np.all(np.isfinite(x)) and x[0] > -1.0 and x[-1] < 1.0
        assert np.all(np.diff(x) > 0) and np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert abs(float(w @ x**2) - 1.0 / (d + 1.0)) <= 1e-12

    def test_cli_import_leaves_out_scipy(self):
        # in a fresh interpreter: the test modules import SciPy as an oracle
        code = ("import sys, ultraflow.cli; "
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    def test_bad_parameters(self):
        for d in (0.5, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                Quadrature(d, 32)
        with pytest.raises(DomainError):
            Quadrature(3.0, 3)


class TestGridFn:
    def test_roundtrip(self, quad5, rng):
        f = random_positive(quad5, rng, modes=20, amplitude=0.7)
        back = GridFn.from_values(quad5, GridFn.from_coeffs(quad5, f.coeffs).values)
        err = np.sqrt(np.sum(quad5.weights * (back.values - f.values) ** 2))
        assert err < 1e-11

    def test_positivity_flag(self, quad5):
        f = GridFn.from_values(quad5, quad5.nodes)  # sign changing
        assert not f.is_positive()
        with pytest.raises(PositivityError):
            f.require_positive()

    def test_serialization_roundtrip(self, quad5, rng, tmp_path):
        f = random_positive(quad5, rng, modes=8)
        path = tmp_path / "f.csv"
        f.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 1], f.values, rtol=0, atol=0)


class TestOperators:
    def test_constant_in_kernel(self, quad5):
        f = GridFn.constant(quad5, 1.0)
        assert np.max(np.abs(ultraspherical(f).values)) < 1e-14
        assert np.max(np.abs(derivative(f))) < 1e-14

    def test_first_eigenfunction(self, quad5):
        f = GridFn.from_values(quad5, quad5.nodes)
        lf = ultraspherical(f)
        resid = lf.values + 5.0 * quad5.nodes
        # transform-roundtrip noise times the top eigenvalue sets the floor
        assert np.sqrt(np.sum(quad5.weights * resid**2)) < 5e-10

    def test_degree_two_eigenfunction(self, quad5):
        # z^2 - 1/(d+1), not z^2 - 2, spans the second eigenspace
        d = 5.0
        f = GridFn.from_values(quad5, quad5.nodes**2 - 1.0 / (d + 1.0))
        lf = ultraspherical(f)
        resid = lf.values + 2.0 * (d + 1.0) * f.values
        assert np.sqrt(np.sum(quad5.weights * resid**2)) < 5e-10
        g = GridFn.from_values(quad5, quad5.nodes**2 - 2.0)
        lg = ultraspherical(g)
        assert np.max(np.abs(lg.values + 2.0 * (d + 1.0) * g.values)) > 1.0

    @pytest.mark.parametrize("d", [3.0, 5.0])
    def test_eigenvalue_ladder(self, d):
        quad = cached_quadrature(d, 128)
        worst = 0.0
        for k in range(0, 65):
            phi = eigenfunction(quad, k)
            nodal = quad.nu * quad.second_derivative_values(
                phi.coeffs
            ) - d * quad.nodes * quad.derivative_values(phi.coeffs)
            resid = nodal - ultraspherical(phi).values
            worst = max(worst, float(np.sqrt(np.sum(quad.weights * resid**2))))
        assert worst < 1e-10

    def test_polynomial_derivative(self, quad5):
        f = GridFn.from_values(quad5, quad5.nodes**2)
        resid = derivative(f) - 2.0 * quad5.nodes
        assert np.sqrt(np.sum(quad5.weights * resid**2)) < 1e-11

    def test_analytic_derivative_oracle(self):
        # relative to the derivative's sup, which the basis conditioning sets
        quad = cached_quadrature(3.0, 80)
        f = GridFn.from_function(quad, lambda z: (1 + z / 2) ** -3.0)
        exact = -1.5 * (1 + quad.nodes / 2) ** -4.0
        err = np.max(np.abs(derivative(f) - exact))
        assert err / np.max(np.abs(exact)) < 1e-9

    def test_resolution_guard(self, quad5):
        coeffs = np.zeros(quad5.n)
        coeffs[0] = 1.0
        coeffs[-1] = 0.5
        f = GridFn.from_coeffs(quad5, coeffs)
        with pytest.raises(ResolutionError):
            derivative(f)

    def test_self_adjointness(self, quad5, rng):
        f = random_positive(quad5, rng, modes=12)
        g = random_positive(quad5, rng, modes=12)
        assert abs(inner(f, ultraspherical(g)) - inner(ultraspherical(f), g)) < 1e-10

    def test_integration_by_parts(self, quad5, rng):
        # <f, L g> = -int f' g' nu
        worst = 0.0
        for _ in range(5):
            f = random_positive(quad5, rng, modes=12)
            g = random_positive(quad5, rng, modes=12)
            lhs = inner(f, ultraspherical(g))
            rhs = -float(
                np.sum(quad5.weights * quad5.nu * derivative(f) * derivative(g))
            )
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_nu_weighted_sum_oracle(self, quad5):
        # int z^2 nu dnu against adaptive quadrature
        dens = nu_density(5.0)
        oracle, _ = adaptive_quad(
            lambda z: z * z * (1 - z * z) * dens(z), -1, 1, epsabs=1e-14, epsrel=1e-13
        )
        f = GridFn.from_values(quad5, quad5.nodes**2)
        assert abs(float(np.sum(quad5.weights * quad5.nu * f.values)) - oracle) < 1e-12


class TestLemmaIdentities:
    @pytest.mark.parametrize("d", [3.0, 5.0])
    def test_square_and_cross_identities(self, d, rng):
        quad = cached_quadrature(d, 128)
        for _ in range(20):
            f = random_positive(quad, rng, modes=12, amplitude=0.6)
            lf = ultraspherical(f)
            fp = derivative(f)
            fpp = second_derivative(f)
            w = quad.weights
            lhs1 = float(np.sum(w * lf.values**2))
            rhs1 = float(np.sum(w * quad.nu**2 * fpp**2)) + d * float(
                np.sum(w * quad.nu * fp**2)
            )
            assert abs(lhs1 - rhs1) <= 1e-9 * abs(lhs1)
            lhs2 = float(np.sum(w * (fp**2 / f.values) * quad.nu * lf.values))
            jcc = float(np.sum(w * quad.nu**2 * fp**4 / f.values**2))
            jfc = float(np.sum(w * quad.nu**2 * fp**2 * fpp / f.values))
            rhs2 = d / (d + 2.0) * jcc - 2.0 * (d - 1.0) / (d + 2.0) * jfc
            assert abs(lhs2 - rhs2) <= 1e-9 * max(abs(lhs2), 1e-3)
