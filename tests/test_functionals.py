import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad

from ultraflow.constants import Params, beta_roots, gamma_of_beta, two_star
from ultraflow.discretization import GridFn, _band_limited, eigenfunction, random_positive
from ultraflow.errors import PositivityError, ResolutionError
from ultraflow.functionals import (
    _dirichlet,
    _entropy,
    cdc_triple,
    deficit,
    dissipation_heat,
    dissipation_nonlinear,
    entropy,
    fisher,
    quotient,
)

from conftest import cached_quadrature, mp_entropy, normalization_constant


def rho_power(quad, u_vals, p):
    return GridFn.from_values(quad, u_vals**p)


class TestEntropy:
    def test_constant_vanishes(self, quad5):
        rho = GridFn.constant(quad5, 2.3)
        assert abs(entropy(rho, 3.0)) < 1e-14
        assert abs(entropy(rho, 2.0)) < 1e-14

    def test_log_branch_is_the_limit(self, quad5, rng):
        rho = random_positive(quad5, rng, modes=10, amplitude=0.5)
        e2 = entropy(rho, 2.0)
        for p in (2.0 + 1e-6, 2.0 - 1e-6):
            assert abs(entropy(rho, p) - e2) <= 1e-5 * (1.0 + abs(e2))

    def test_against_adaptive_oracle(self):
        d = 4.0
        p = two_star(d)
        quad = cached_quadrature(d, 128)
        rho = GridFn.from_values(quad, (1 + quad.nodes / 2) ** -d)
        z_d = normalization_constant(d)
        dens = lambda z: (1 - z * z) ** (d / 2 - 1) / z_d
        mass = adaptive_quad(lambda z: (1 + z / 2) ** -d * dens(z), -1, 1,
                             epsabs=1e-14, epsrel=1e-13)[0]
        frac = adaptive_quad(lambda z: (1 + z / 2) ** (-d * 2 / p) * dens(z), -1, 1,
                             epsabs=1e-14, epsrel=1e-13)[0]
        oracle = (mass ** (2 / p) - frac) / (p - 2)
        assert entropy(rho, p) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("amplitude", [0.6, 0.1])
    def test_against_mpmath_near_p2(self, amplitude):
        # the same nodal data in 50 digits: near p = 2 the two norms nearly
        # cancel, and the entropy must not lose digits to that
        quad = cached_quadrature(4.0, 64)
        rho = random_positive(quad, np.random.default_rng(5), modes=10, amplitude=amplitude)
        with mpmath.workdps(50):
            w = [mpmath.mpf(float(x)) for x in quad.weights]
            r = [mpmath.mpf(float(x)) for x in rho.values]
            mass = mpmath.fsum(a * b for a, b in zip(w, r))
            for p in (2.0 - 1e-9, 2.0 + 1e-6, 2.01, 3.0):
                q = mpmath.mpf(p)
                frac = mpmath.fsum(a * b ** (2 / q) for a, b in zip(w, r))
                oracle = (mass ** (2 / q) - frac) / (q - 2)
                assert entropy(rho, p) == pytest.approx(float(oracle), rel=1e-12), p

    def test_nodal_zero_contributes_nothing(self, quad5, rng):
        # |u|^p of a sign-changing u can vanish at a node; no warning (an
        # error here).  The zero adds nothing to int rho or int rho^(2/p),
        # while its weight stays in the probability measure: the value is
        # the 50-digit one of the same data, zeros included, and a tiny
        # positive value in place of each zero changes nothing
        rho = random_positive(quad5, rng, modes=10, amplitude=0.5).values.copy()
        rho[[0, 7, 60]] = 0.0
        tiny = np.where(rho > 0.0, rho, 1e-300)
        for p in (1.0, 2.0, 3.0, 6.0):
            e = _entropy(quad5.weights, rho, p)
            assert e == pytest.approx(mp_entropy(quad5.weights, rho, p), rel=1e-13, abs=0)
            assert e == pytest.approx(_entropy(quad5.weights, tiny, p), rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [1.0, 4.0, 7.5])
    def test_against_mpmath_near_constants(self, d):
        # E_p of rho = |1 + a phi_2|^p is of order a^2: neither the rounding
        # of the mass nor that of the weights' sum may enter at first order
        quad = cached_quadrature(d, 64)
        phi2 = eigenfunction(quad, 2).values
        for p in (1.0, 1.5, 2.0, 2.0 - 1e-9, 2.0 + 1e-6, 2.01, 3.0, 6.0):
            for a in (0.6, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                rho = np.abs(1.0 + a * phi2) ** p
                assert _entropy(quad.weights, rho, p) == pytest.approx(
                    mp_entropy(quad.weights, rho, p), rel=1e-11, abs=0), (p, a)

    def test_stack_is_its_columns(self):
        # columns on both sides of the series branch, in one stack
        quad = cached_quadrature(4.0, 64)
        amps = np.array([0.6, 1e-1, 1e-2, 1e-3, 1e-6])
        stack = 1.0 + np.outer(eigenfunction(quad, 2).values, amps)
        for p in (1.0, 2.0, 2.01, 3.0):
            e = _entropy(quad.weights, stack**p, p)
            assert e.shape == amps.shape
            for j in range(len(amps)):
                assert e[j] == pytest.approx(_entropy(quad.weights, stack[:, j] ** p, p),
                                             rel=1e-14, abs=0), (p, amps[j])

    def test_nonnegative_on_powers(self, quad5, rng):
        # the entropy of u^p is an interpolation gap of norms, hence >= 0
        for _ in range(10):
            u = random_positive(quad5, rng, modes=10, amplitude=0.6)
            assert entropy(rho_power(quad5, u.values, 3.0), 3.0) >= -1e-14

    def test_positivity_guard(self, quad5):
        rho = GridFn.from_values(quad5, quad5.nodes + 1.5)  # dips near 0.5, fine
        entropy(rho, 3.0)
        bad = GridFn.from_values(quad5, quad5.nodes)  # sign changing
        with pytest.raises(PositivityError):
            entropy(bad, 3.0)


class TestFisher:
    def test_constant_vanishes(self, quad5):
        assert fisher(GridFn.constant(quad5, 1.7), 3.0) == pytest.approx(0.0, abs=1e-20)

    def test_small_perturbation_expansion(self, quad5):
        # fisher(u^p) = eps^2 int nu + O(eps^3) for u = 1 + eps z
        d = 5.0
        int_nu = d / (d + 1.0)
        for eps in (1e-2, 1e-3):
            rho = rho_power(quad5, 1.0 + eps * quad5.nodes, 3.0)
            assert fisher(rho, 3.0) == pytest.approx(eps**2 * int_nu, rel=1e-12)

    def test_power_consistency(self, quad5, rng):
        from ultraflow.discretization import derivative

        u = random_positive(quad5, rng, modes=10, amplitude=0.6)
        direct = float(np.sum(quad5.weights * quad5.nu * derivative(u) ** 2))
        assert abs(fisher(rho_power(quad5, u.values, 3.3), 3.3) - direct) < 1e-11

    def test_unresolved_u_is_refused(self):
        # rho = 1 + 0.02 phi_14 at (d, N) = (5, 16): u = rho^(1/3) carries
        # 6.7e-3 of its norm in the top modes.  I_p is read off u as a flow
        # sample and the quotient read it, so all refuse it, as the heat flow
        # from rho does, where fisher gave 0.0112 and deficit 0.00219
        from ultraflow.constants import FlowSpec
        from ultraflow.flows import Form, evolve, make_state

        quad = cached_quadrature(5.0, 16)
        rho = GridFn.from_values(quad, 1.0 + 0.02 * eigenfunction(quad, 14).values)
        u = GridFn.from_values(quad, rho.values ** (1.0 / 3.0))
        state = make_state(Form.DENSITY, FlowSpec.heat(Params(5.0, 3.0)), rho)
        for refused in (lambda: fisher(rho, 3.0), lambda: deficit(rho, 3.0),
                        lambda: quotient(u, 3.0), lambda: evolve(state, 0.01)):
            with pytest.raises(ResolutionError, match="top modes carry 6.66e-03"):
                refused()


class TestDirichletForm:
    @staticmethod
    def _functions(quad, rng):
        """A positive function and an (n, 7) stack of band-limited ones."""
        modes = min(10, quad.n - 3)
        u = random_positive(quad, rng, modes=modes, amplitude=0.6).coeffs
        stack = _band_limited(quad, rng.standard_normal((modes, 7)),
                              rng.uniform(0.2, 1.0, 7), False)
        return u, stack

    @staticmethod
    def _mp_dirichlet(quad, c):
        """sum lambda_k c_k^2 of the same floats in 40 digits."""
        with mpmath.workdps(40):
            return float(mpmath.fsum(mpmath.mpf(float(lam)) * mpmath.mpf(float(x)) ** 2
                                     for lam, x in zip(quad.eigenvalues, c)))

    @pytest.mark.parametrize("d", [1.0, 2.5, 5.0, 30.0])
    @pytest.mark.parametrize("n", [5, 16, 64, 257])
    def test_equals_nodal_quadrature(self, d, n, rng):
        # nu |f'|^2 has degree 2n - 2, which the rule integrates exactly.  The
        # nodal side carries the rule's own error: at d = 1 its weights miss
        # the exact 1/n by up to 1.4e-11 (N = 257) and the quadrature reads
        # up to about 2e-14 off, while the spectral side is the exact sum
        quad = cached_quadrature(d, n)
        for c in self._functions(quad, rng):
            nodal = (quad.weights * quad.nu) @ quad.derivative_values(c) ** 2
            spectral = _dirichlet(quad, c)
            assert spectral.shape == nodal.shape
            np.testing.assert_allclose(spectral, nodal, rtol=1e-14 if d > 1.0 else 3e-14, atol=0)
            exact = [self._mp_dirichlet(quad, col) for col in c.reshape(n, -1).T]
            np.testing.assert_allclose(spectral, np.reshape(exact, spectral.shape),
                                       rtol=1e-15, atol=0)

    def test_against_mpmath(self, rng):
        quad = cached_quadrature(5.0, 512)
        u, stack = self._functions(quad, rng)
        for c in (u, *stack.T):
            assert _dirichlet(quad, c) == pytest.approx(self._mp_dirichlet(quad, c),
                                                        rel=1e-15, abs=0)


class TestDeficitAndQuotient:
    def test_deficit_constant_zero(self, quad5):
        assert abs(deficit(GridFn.constant(quad5, 2.0), 3.0)) < 1e-14

    def test_deficit_nonnegative(self, quad5, rng):
        vals = []
        for _ in range(50):
            u = random_positive(quad5, rng, modes=10, amplitude=0.6)
            vals.append(deficit(rho_power(quad5, u.values, 3.0), 3.0))
        assert min(vals) >= -1e-12

    @pytest.mark.parametrize("d,b", [(4.0, 0.3), (5.0, 0.4)])
    def test_conformal_family_saturates(self, d, b):
        p = two_star(d)
        quad = cached_quadrature(d, 128)
        u = GridFn.from_values(quad, (1 + b * quad.nodes) ** (-(d - 2) / 2))
        assert abs(deficit(rho_power(quad, u.values, p), p)) <= 1e-8

    def test_quotient_limit_is_d(self, quad5):
        # Richardson in eps^2: Q(1 + eps z) = d + c eps^2 + O(eps^4)
        qs = {}
        for eps in (0.01, 0.005):
            u = GridFn.from_values(quad5, 1.0 + eps * quad5.nodes)
            qs[eps] = quotient(u, 3.0)
        extrapolated = (4.0 * qs[0.005] - qs[0.01]) / 3.0
        assert abs(extrapolated - 5.0) <= 1e-3

    def test_quotient_vs_deficit_sign(self, quad5, rng):
        for _ in range(20):
            u = random_positive(quad5, rng, modes=8, amplitude=0.6)
            q = quotient(u, 3.0)
            f = deficit(rho_power(quad5, u.values, 3.0), 3.0)
            assert q >= 5.0 - 1e-9
            assert (q - 5.0) * 5.0 == pytest.approx(
                f * 5.0 / entropy(rho_power(quad5, u.values, 3.0), 3.0) * 5.0, rel=1e-8
            )

    def test_quotient_constant_raises(self, quad5):
        with pytest.raises(ZeroDivisionError):
            quotient(GridFn.constant(quad5, 1.0), 3.0)

    def test_log_quotient_limit(self, quad5):
        qs = {}
        for eps in (0.01, 0.005):
            u = GridFn.from_values(quad5, 1.0 + eps * quad5.nodes)
            qs[eps] = quotient(u, 2.0)
        extrapolated = (4.0 * qs[0.005] - qs[0.01]) / 3.0
        assert abs(extrapolated - 5.0) <= 1e-3


class TestCdcTriple:
    def test_constant_zero(self, quad5):
        assert cdc_triple(GridFn.constant(quad5, 1.0)) == pytest.approx((0.0, 0.0, 0.0), abs=1e-25)

    def test_powerlaw_structure(self, quad5):
        # w = (a + b z)^(1/(1-alpha)) satisfies w'' = alpha |w'|^2/w, so
        # J_fc = alpha J_cc and J_ff = alpha^2 J_cc
        alpha = 0.6
        w = GridFn.from_values(quad5, (1 + 0.4 * quad5.nodes) ** (1 / (1 - alpha)))
        j_ff, j_fc, j_cc = cdc_triple(w)
        assert j_fc == pytest.approx(alpha * j_cc, rel=1e-9)
        assert j_ff == pytest.approx(alpha**2 * j_cc, rel=1e-9)

    def test_unresolved_input_is_refused(self, quad5):
        # 1 + 1e-6 phi_(N-1): positive, with 1e-6 of the norm in the top
        # modes, above the 1e-8 that every derivative accepts
        coeffs = np.zeros(quad5.n)
        coeffs[0], coeffs[-1] = 1.0, 1e-6
        u = GridFn.from_coeffs(quad5, coeffs)
        with pytest.raises(ResolutionError):
            cdc_triple(u)
        for beta in (1.0, 1.2):
            with pytest.raises(ResolutionError):
                dissipation_nonlinear(u, 3.3, beta)

    def test_cauchy_schwarz(self, quad5, rng):
        for _ in range(20):
            u = random_positive(quad5, rng, modes=10, amplitude=0.7)
            j_ff, j_fc, j_cc = cdc_triple(u)
            assert j_ff >= 0.0 and j_cc >= 0.0
            assert j_fc**2 <= j_ff * j_cc * (1.0 + 1e-12)

    @pytest.mark.parametrize("beta", [1.0, 1.2])
    def test_one_slope_product_per_report(self, beta, quad5, rng, monkeypatch):
        # u' is computed once and u'' from it, by the one formula of
        # second_derivative_values: one derivative_values product per
        # report, where taking u'' alone takes a second
        u = random_positive(quad5, rng, modes=8, amplitude=0.5)
        slopes, products = type(quad5).derivative_values, []

        def counted(quad, coeffs):
            products.append(coeffs.shape)
            return slopes(quad, coeffs)

        monkeypatch.setattr(type(quad5), "derivative_values", counted)
        if beta == 1.0:
            cdc_triple(u)
        else:
            dissipation_nonlinear(u, 3.3, beta)
        assert products == [(quad5.n,)]
        upp = quad5.second_derivative_from(u.coeffs, slopes(quad5, u.coeffs))
        assert np.array_equal(upp, quad5.second_derivative_values(u.coeffs))


class TestDissipation:
    def test_expanded_equals_completed_square(self, quad5, rng):
        # the report's expanded bracket against the completed square
        # J_ff - 2 c J_fc + (c^2 + gamma(beta)) J_cc of the same J's
        d = quad5.d
        for _ in range(10):
            u = random_positive(quad5, rng, modes=12, amplitude=0.6)
            for p, beta in ((3.0, 1.0), (3.3, 1.2)):
                rep = dissipation_nonlinear(u, p, beta)
                c = (d - 1.0) / (d + 2.0) * (beta * (p - 2.0) + beta)
                square = (rep.J_ff - 2.0 * c * rep.J_fc
                          + (c * c + gamma_of_beta(Params(d, p), beta)) * rep.J_cc)
                assert rep.dF_dt_analytic / (-2.0 * beta**2) == pytest.approx(square, rel=1e-10)

    def test_heat_sign_below_sharp(self, quad5, rng):
        for _ in range(50):
            u = random_positive(quad5, rng, modes=10, amplitude=0.6)
            assert dissipation_heat(u, 3.0).dF_dt_analytic <= 0.0

    def test_constant_report_zeros(self, quad5):
        rep = dissipation_heat(GridFn.constant(quad5, 1.3), 3.0)
        for name in ("E_p", "I_p", "F", "J_ff", "J_fc", "J_cc", "dF_dt_analytic"):
            assert abs(getattr(rep, name)) < 1e-14

    def test_beta_one_reduces_to_heat(self, quad5, rng):
        u = random_positive(quad5, rng, modes=10, amplitude=0.6)
        r_heat = dissipation_heat(u, 3.0)
        r_nl = dissipation_nonlinear(u, 3.0, 1.0)
        assert r_nl.dF_dt_analytic == pytest.approx(r_heat.dF_dt_analytic, abs=1e-12)

    def test_nonlinear_sign_at_admissible_beta(self, quad5, rng):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        for _ in range(50):
            w = random_positive(quad5, rng, modes=10, amplitude=0.6)
            assert dissipation_nonlinear(w, 3.3, beta).dF_dt_analytic <= 1e-10

    def test_pure_square_at_critical(self, quad5):
        # gamma vanishes at the critical double root: the dissipation is the
        # completed square alone, and it vanishes on the conformal datum
        d = 5.0
        p = two_star(d)
        beta = (d - 2.0) / (d - 3.0)
        w = GridFn.from_values(quad5, (1 + 0.4 * quad5.nodes) ** (-(d - 3) / 2))
        rep = dissipation_nonlinear(w, p, beta)
        assert abs(rep.dF_dt_analytic) <= 1e-8

    def test_p_continuity_of_deficit(self, quad5, rng):
        rho = random_positive(quad5, rng, modes=8, amplitude=0.5)
        base = deficit(rho, 2.0)
        for p in (2.0 + 1e-6, 2.0 - 1e-6):
            assert abs(deficit(rho, p) - base) <= 1e-5 * (1.0 + abs(base))

    def test_p_continuity_of_quotient(self, quad5, rng):
        u = random_positive(quad5, rng, modes=8, amplitude=0.5)
        base = quotient(u, 2.0)
        for p in (2.0 + 1e-6, 2.0 - 1e-6):
            assert abs(quotient(u, p) - base) <= 1e-5 * (1.0 + abs(base))

    def test_overflowing_integrals_raise(self):
        # at d = 3000 the outermost nodes' |u'|^4 overflows: the report raises
        # a ResolutionError naming (d, N), with no overflow warning first
        # (warnings are errors here), where it returned J_cc = inf and
        # dF_dt_analytic = -inf
        quad = cached_quadrature(3000.0, 256)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.1
        rho = GridFn.from_coeffs(quad, coeffs)
        u = GridFn.from_values(quad, rho.values ** (1.0 / 2.0005))
        with pytest.raises(ResolutionError, match=r"d=3000\.0, N=256"):
            dissipation_heat(u, 2.0005)

    def test_heat_dissipation_positive_at_powerlaw_witness(self, quad5):
        # cross-module tie: at the power-law witness the report's analytic
        # derivative equals 2 (A / beta^2) J_cc, a strictly positive value
        from ultraflow.constants import beta_roots, counterexample_coefficient

        params = Params(5.0, 3.25)
        beta = beta_roots(params).minus
        alpha = 4.0 * beta * 2.25 / 7.0
        w = GridFn.from_values(quad5, (1 + 0.4 * quad5.nodes) ** (1.0 / (1.0 - alpha)))
        f = GridFn.from_values(quad5, w.values**beta)
        rep = dissipation_heat(f, 3.25)
        expected = 2.0 * counterexample_coefficient(params, beta) * rep.J_cc / beta**2
        assert rep.dF_dt_analytic > 0.0
        assert rep.dF_dt_analytic == pytest.approx(expected, rel=1e-9)
