import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as adaptive_quad
from scipy.special import eval_jacobi, roots_jacobi

from ultraflow.discretization import (
    RESOLUTION_TOL,
    GridFn,
    Quadrature,
    _gauss_rule,
    _mirrored,
    _recurrence,
    _rows,
    derivative,
    eigenfunction,
    even_moment,
    integral,
    random_band_limited,
    random_positive,
    require_resolved,
    resolution_fraction,
    second_derivative,
)
from ultraflow.errors import ConvergenceError, DomainError, PositivityError, ResolutionError

from conftest import cached_quadrature, normalization_constant


def ultraspherical(f):
    """L f, diagonal in coefficient space: coeff_k -> -k (k + d - 1) coeff_k."""
    return GridFn.from_coeffs(f.quad, -f.quad.eigenvalues * f.coeffs)


def inner(f, g):
    return float(np.sum(f.quad.weights * f.values * g.values))


def svd_rule(d, n, cols):
    """The Gauss rule from the singular values of the Jacobi matrix's
    even-odd block and the Christoffel sums of the recurrence at them: the
    rule _gauss_rule replaces, kept as its oracle."""
    b = _recurrence(d, n - 1)
    if not np.all(np.isfinite(b)):
        raise ConvergenceError(f"the recurrence for d={d} is not finite")
    h, q = (n + 1) // 2, n // 2
    block = np.zeros((h, q))
    block[np.arange(q), np.arange(q)] = b[1::2]
    block[np.arange(1, h), np.arange(h - 1)] = b[2::2]
    x = np.concatenate([np.zeros(n - 2 * q), np.linalg.svd(block, compute_uv=False)[::-1]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        T = _rows(x, b, cols)
        sums = np.einsum("kj,kj->j", T, T)
        p0, p1 = T[cols - 2], T[cols - 1]
        for k in range(cols, n):
            p0, p1 = p1, (x * p1 - b[k - 1] * p0) / b[k]
            sums += p1 * p1
        w = 1.0 / sums
    nodes, weights = np.concatenate([-x[::-1][:q], x]), np.concatenate([w[::-1][:q], w])
    if not (np.all(np.isfinite(nodes)) and np.all(weights > 0.0) and np.all(np.isfinite(T[-1]))):
        raise ConvergenceError(f"Gauss rule for d={d}, n={n} failed")
    return nodes, weights, _mirrored(T, n)


def recurrence_slopes(d, z, values):
    """phi_k'(z) from the recurrence differentiated, b_k phi_k' = z phi_(k-1)'
    - b_(k-1) phi_(k-2)' + phi_(k-1), given the values phi_k(z): the
    derivative tables' former construction, kept as the oracle of the
    lowering identity the rules take f' by."""
    cols = values.shape[1]
    b = _recurrence(d, cols - 1)
    T = np.zeros((cols, len(z)))
    T[1] = 1.0 / b[1]
    for k in range(2, cols):
        T[k] = (z * T[k - 1] - b[k - 1] * T[k - 2] + values[:, k - 1]) / b[k]
    return T.T


def orthonormality_error(rule):
    x, w, V = rule
    return np.abs((V.T * w) @ V - np.eye(V.shape[1])).max()


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
        # a zero), in the plain and the padded rule, for the values tables
        # and the basis derivatives taken from them, and every one is
        # C-contiguous: the memory layout of a table decides the BLAS path,
        # and with it the last bits, of every transform built on it
        quad = cached_quadrature(d, n)
        pad = quad._pad_tables()
        for x, w in ((quad.nodes, quad.weights), (pad["x"], pad["w"])):
            assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
        k, basis = np.arange(n), np.eye(n)
        tables = [(quad._basis, 0), (quad.derivative_values(basis), 1),
                  (quad.second_derivative_values(basis), 2),
                  (pad["synth"], 0), (quad.padded_derivative(basis), 1)]
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

    def test_padded_rule_overflow_is_typed(self):
        # the 512-point rule at d = 3000 overflows in the recurrence and the
        # Christoffel sums: a ConvergenceError, and no overflow warning
        # first (warnings are errors here)
        with pytest.raises(ConvergenceError, match="d=3000.0, n=512"):
            Quadrature(3000.0, 256)._pad_tables()

    def test_rule_failure_is_typed(self):
        # b_k^2 underflows to 0 for k >= 2 at d = 1e300: a NaN rule is refused
        with pytest.raises(ConvergenceError):
            Quadrature(1e300, 8)

    def test_nonfinite_recurrence_is_typed(self):
        # at d = 1.7e308 the recurrence's products overflow to inf / inf: a
        # ConvergenceError before the eigenvalue solve, which would not converge
        with pytest.raises(ConvergenceError, match="recurrence for d=1.7e[+]308"):
            Quadrature(1.7e308, 8)

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(d=st.floats(1.0, 100.0), n=st.integers(16, 512))
    def test_rule_properties(self, d, n):
        quad = Quadrature(d, n)
        x, w = quad.nodes, quad.weights
        assert np.all(np.isfinite(x)) and x[0] > -1.0 and x[-1] < 1.0
        assert np.all(np.diff(x) > 0) and np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert abs(float(w @ x**2) - 1.0 / (d + 1.0)) <= 1e-12

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(d=st.floats(1.0, 100.0), n=st.integers(16, 512), padded=st.booleans())
    def test_rule_against_the_svd_oracle(self, d, n, padded):
        # the eigenvalue solve and its Newton polish, plain (cols = n) or as a
        # padded rule (cols = n // 2, Christoffel-Darboux weights)
        cols = n // 2 if padded else n
        try:
            ref = svd_rule(d, n, cols)
        except Exception as exc:
            with pytest.raises(type(exc)):
                _gauss_rule(d, n, cols)
            return
        x, w, _ = rule = _gauss_rule(d, n, cols)
        assert np.max(np.abs(x - ref[0])) <= 1e-15
        assert np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-14
        assert orthonormality_error(rule) <= max(orthonormality_error(ref), 1e-13)

    @pytest.mark.parametrize("d, n", [(1.0, 64), (5.0, 257), (30.0, 128)])
    def test_rule_builds_take_no_svd(self, d, n, monkeypatch):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        Quadrature(d, n)._pad_tables()
        assert calls == []

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


class TestTables:
    def test_rule_holds_one_table(self):
        # the values table alone, 8 MiB at n = 1024, also after both
        # derivatives, which read it; the build peaks at 12.5 MiB (the
        # half-rule recurrence and its mirrored table)
        tracemalloc.start()
        try:
            quad = Quadrature(5.0, 1024)
            c = np.zeros(1024)
            quad.derivative_values(c)
            quad.second_derivative_values(c)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert quad._padded is None
        assert held <= 8.5 * 2**20, held
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("n", [5, 64, 128, 256])
    @pytest.mark.parametrize("d", [1.0, 2.5, 5.0, 30.0])
    def test_derivative_tables_against_the_lowering_identity(self, d, n):
        # the basis derivatives the rules take by the lowering identity,
        # nu phi_k' = (2k+d-1) b_k phi_(k-1) - k z phi_k, against an oracle
        # independent of it, the differentiated recurrence: times nu, column
        # by column to 1e-13 of the identity's two terms' size (4.9e-14 at
        # (5, 256), the worst measured), in the plain and the padded rule
        quad = cached_quadrature(d, n)
        pad = quad._pad_tables()
        k = np.arange(n)
        b, j = np.zeros(n), k[2:]
        b[1] = 1.0 / np.sqrt(d + 1.0)
        b[2:] = np.sqrt(j * (j + d - 2.0) / ((2 * j + d - 3.0) * (2 * j + d - 1.0)))
        for z, values, slopes in ((quad.nodes, quad._basis, quad.derivative_values(np.eye(n))),
                                  (pad["x"], pad["synth"], quad.padded_derivative(np.eye(n)))):
            oracle = recurrence_slopes(d, z, values)
            lowered = np.zeros_like(values)
            lowered[:, 1:] = (2 * k[1:] + d - 1.0) * b[1:] * values[:, :-1]
            raised = k * z[:, None] * values
            err = np.abs((1.0 - z * z)[:, None] * (slopes - oracle))
            size = (np.abs(lowered) + np.abs(raised)).max(axis=0)
            assert np.all(err <= 1e-13 * size)

    @pytest.mark.parametrize("d, n", [(1.0, 64), (5.0, 128), (5.0, 1024), (30.0, 64)])
    def test_analysis_reads_the_synthesis_table(self, d, n):
        # to_coeffs and project_padded weight the values and apply the
        # transposed synthesis table; an analysis matrix basis.T * weights
        # gives the same coefficients to 1e-15 of each column's largest
        # (5.8e-16 measured)
        quad = Quadrature(d, n)
        pad = quad._pad_tables()
        rng = np.random.default_rng(0)
        for transform, table, w in ((quad.to_coeffs, quad._basis, quad.weights),
                                    (quad.project_padded, pad["synth"], pad["w"])):
            for x in (rng.standard_normal(table.shape[0]),
                      rng.standard_normal((table.shape[0], 5))):
                ref = (table.T * w) @ x
                got = transform(x)
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref).max(axis=0))


class TestGridFn:
    def test_roundtrip(self, quad5, rng):
        f = random_positive(quad5, rng, modes=20, amplitude=0.7)
        back = GridFn.from_values(quad5, GridFn.from_coeffs(quad5, f.coeffs).values)
        err = np.sqrt(np.sum(quad5.weights * (back.values - f.values) ** 2))
        assert err < 1e-11

    @pytest.mark.parametrize("seed, modes, amplitude", [(0, 8, 0.5), (3, 20, 0.9), (7, 61, 0.3)])
    def test_random_positive_is_one_plus_the_band_limited_draw(self, seed, modes, amplitude,
                                                               quad5, monkeypatch):
        # bitwise the constant 1 plus the zero-mean draw of the same seed,
        # capped at amplitude 0.7, from two syntheses: the scaling's and the
        # datum's
        g = random_band_limited(quad5, seed, modes, min(amplitude, 0.7))
        expected = GridFn.from_coeffs(quad5, g.coeffs + GridFn.constant(quad5, 1.0).coeffs)
        syntheses = 0
        to_values = Quadrature.to_values

        def counted(quad, coeffs):
            nonlocal syntheses
            syntheses += 1
            return to_values(quad, coeffs)

        monkeypatch.setattr(Quadrature, "to_values", counted)
        f = random_positive(quad5, seed, modes=modes, amplitude=amplitude)
        assert syntheses == 2
        assert np.array_equal(f.coeffs, expected.coeffs)
        assert np.array_equal(f.values, expected.values)

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
        f = GridFn.from_values(quad, (1 + quad.nodes / 2) ** -3.0)
        exact = -1.5 * (1 + quad.nodes / 2) ** -4.0
        err = np.max(np.abs(derivative(f) - exact))
        assert err / np.max(np.abs(exact)) < 1e-9

    def test_analytic_second_derivative_oracle(self):
        # f'' from L, nu f'' = L f + d z f', as a vector and per column of a
        # stack (scaled by powers of two, which divide out exactly).  Relative
        # to the sup of f'' the error reads 1.5e-8, at the outermost nodes
        # where the basis conditioning sets it, and 7.1e-13 under the nu^2
        # weight the dissipation integrals carry
        quad = cached_quadrature(3.0, 80)
        f = GridFn.from_values(quad, (1 + quad.nodes / 2) ** -3.0)
        exact = 3.0 * (1 + quad.nodes / 2) ** -5.0
        scales = np.array([1.0, -2.0, 0.5])
        stack = quad.second_derivative_values(np.outer(f.coeffs, scales)) / scales
        for fpp in (second_derivative(f), *stack.T):
            err = np.abs(fpp - exact) / np.max(np.abs(exact))
            assert np.max(err) < 3e-8
            assert np.max(quad.nu**2 * err) < 2e-12

    def test_resolution_guard(self, quad5):
        coeffs = np.zeros(quad5.n)
        coeffs[0] = 1.0
        coeffs[-1] = 0.5
        f = GridFn.from_coeffs(quad5, coeffs)
        with pytest.raises(ResolutionError):
            derivative(f)

    def test_resolution_check_per_column(self, quad5, rng):
        # a stack's fractions are its columns' own, and the check refuses a
        # stack for any one column: here only the last, whose top mode
        # carries 100x the tolerance (a zero column carries none)
        resolved = random_positive(quad5, rng, modes=8).coeffs
        unresolved = resolved.copy()
        unresolved[-1] = 100.0 * RESOLUTION_TOL * np.linalg.norm(resolved)
        stack = np.column_stack([resolved, np.zeros(quad5.n), unresolved])
        fractions = [resolution_fraction(c) for c in stack.T]
        assert resolution_fraction(stack).tolist() == fractions
        assert fractions[1] == 0.0 and fractions[2] > RESOLUTION_TOL
        require_resolved(stack[:, :2])
        with pytest.raises(ResolutionError):
            require_resolved(stack)

    def test_stack_fractions_match_the_column_loop(self, quad5, rng):
        # one pass over a stack: a column whose squared norm overflows is
        # rescaled alone, as the vector path rescales it, and a zero column
        # carries no fraction
        stack = np.column_stack([random_positive(quad5, rng, modes=8).coeffs
                                 for _ in range(6)])
        stack[-2:] = 1e-9 * rng.standard_normal((2, 6))
        stack[-1, 4] = 1e-5
        stack[:, 1] *= 1e200
        stack[:, 2] = 0.0
        fractions = resolution_fraction(stack)
        loop = np.array([resolution_fraction(c) for c in stack.T])
        assert np.vdot(stack[:, 1], stack[:, 1]) == np.inf and fractions[2] == loop[2] == 0.0
        assert loop[1] > 0.0 and loop[4] > RESOLUTION_TOL
        assert fractions == pytest.approx(loop, rel=1e-15, abs=0)

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
