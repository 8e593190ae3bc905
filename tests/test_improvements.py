import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from ultraflow import (
    DomainError,
    GridFn,
    Quadrature,
    antipodal_constants,
    eigenfunction,
    estimate_lambda_star,
    improved_constant,
    logsob_improvement,
    rayleigh_quotient,
    two_sharp,
    two_star,
    verify_improved_inequality,
)
from ultraflow import checks
from ultraflow.discretization import random_band_limited, random_positive
from ultraflow.errors import ConvergenceError
from ultraflow.functionals import _dirichlet, _entropy
from ultraflow.improvements import (
    MOMENT_TOL,
    constraint_residuals,
    moment_of,
    project_feasible,
    project_moment,
)

from conftest import cached_quadrature, holds


class TestQuotients:
    def test_first_eigen_direction_gives_d(self):
        quad = cached_quadrature(4.0, 64)
        for eps in (0.5, 0.05):
            coeffs = np.zeros(quad.n)
            coeffs[0] = 1.0
            coeffs[1] = eps
            v = GridFn.from_coeffs(quad, coeffs)
            assert rayleigh_quotient(v) == pytest.approx(4.0, abs=1e-12)

    def test_second_eigen_direction_gives_2d2(self):
        quad = cached_quadrature(4.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0] = 1.0
        coeffs[2] = 0.3
        assert rayleigh_quotient(GridFn.from_coeffs(quad, coeffs)) == pytest.approx(10.0, abs=1e-12)

    def test_constant_raises(self):
        quad = cached_quadrature(4.0, 64)
        with pytest.raises(ZeroDivisionError):
            rayleigh_quotient(GridFn.constant(quad, 1.0))

    def test_expanded_square_bound(self, rng):
        # int (L u)^2 - mu int |u'|^2 nu >= mu (int |u'|^2 nu - mu int (u - ubar)^2)
        quad = cached_quadrature(4.0, 64)
        for _ in range(20):
            u = random_positive(quad, rng, modes=12, amplitude=0.7)
            lam = quad.eigenvalues
            c2 = u.coeffs**2
            a = float(np.sum(lam**2 * c2))
            b = float(np.sum(lam * c2))
            c = float(np.sum(c2[1:]))
            for mu in (0.5, 4.0, 10.0, 25.0):
                lhs = a - mu * b
                rhs = mu * (b - mu * c)
                assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs), abs(rhs))


def _probe_draws(quad, count):
    """The first ``count`` inputs of the projection probe: c_0 = 1 plus a
    band-limited perturbation of sup-norm U(0.5, 6), sign-changing for most
    draws."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        amp = float(rng.uniform(0.5, 6.0))
        c = random_band_limited(quad, rng, modes=12, amplitude=amp).coeffs.copy()
        c[0] = 1.0
        yield c


def _verified(quad, c, f, p):
    """The moment of f's synthesized values is within MOMENT_TOL of
    int |v|^p, v the input, and f differs from the input in c_1 only."""
    scale = float(np.sum(quad.weights * np.abs(quad.to_values(c)) ** p))
    moment = abs(moment_of(quad, quad.to_values(f.coeffs), p))
    return moment <= MOMENT_TOL * scale and np.array_equal(np.delete(f.coeffs, 1), np.delete(c, 1))


def _count_transforms(monkeypatch):
    """Names of the plain transforms called from now on."""
    calls = []
    for name in ("to_values", "to_coeffs", "derivative_values", "second_derivative_values"):
        original = getattr(Quadrature, name)

        def counted(quad, x, original=original, name=name):
            calls.append(name)
            return original(quad, x)

        monkeypatch.setattr(Quadrature, name, counted)
    return calls


class TestProjection:
    def test_feasible_point(self, rng):
        quad = cached_quadrature(4.0, 64)
        g = random_positive(quad, rng, modes=8, amplitude=0.6)
        f = project_feasible(quad, g.coeffs, 3.0)
        # the descent takes the returned values as the synthesis of c
        assert np.array_equal(f.values, quad.to_values(f.coeffs))
        res = constraint_residuals(quad, f.coeffs, 3.0)
        assert res["mass"] <= 1e-13
        assert res["moment"] <= 1e-10
        assert res["positivity_min"] >= 0.0

    def test_no_unverified_projection(self):
        # on strongly sign-changing input an expanding bracket can grow until
        # the |r phi_1|^p terms cancel to round-off, and a sign flip of that
        # noise is no root (draws 7, 66, 103, ... once came back with shifts
        # above 1e6 and moments up to 1e32 times the scale): every returned
        # projection is verified, anything else raises
        quad = cached_quadrature(4.0, 64)
        verified = raised = 0
        for c in _probe_draws(quad, 300):
            try:
                f = project_moment(quad, c, 3.0)
            except ConvergenceError:
                raised += 1
                continue
            assert _verified(quad, c, f, 3.0)
            verified += 1
        assert verified > 250 and raised > 0

    def test_projection_handed_values_synthesizes_once(self, monkeypatch):
        # the verified result is the only transform: the input's values come
        # from the caller, phi_1's from the quadrature's synthesis table
        quad = cached_quadrature(4.0, 64)
        c = list(_probe_draws(quad, 3))[-1]
        values = quad.to_values(c)
        expected = project_moment(quad, c, 3.0)
        calls = _count_transforms(monkeypatch)
        f = project_moment(quad, c, 3.0, values)
        assert len(calls) == 1, calls
        assert np.array_equal(f.coeffs, expected.coeffs)
        assert np.array_equal(f.values, expected.values)

    def test_stacked_projection_matches_columns(self):
        # Newton on all columns at once, the bisection fallback per column:
        # each column is the vector call's projection
        quad = cached_quadrature(4.0, 64)
        draws = list(_probe_draws(quad, 127))
        singles = {}
        for j, c in enumerate(draws):
            try:
                singles[j] = project_moment(quad, c, 3.0)
            except ConvergenceError:
                pass
        cols = sorted(singles)
        assert 126 in cols  # the bisection case
        stack = np.stack([draws[j] for j in cols], axis=1)
        f = project_moment(quad, stack, 3.0)
        assert f.coeffs.shape == f.values.shape == stack.shape
        for k, j in enumerate(cols):
            scale = np.max(np.abs(singles[j].coeffs))
            assert np.max(np.abs(f.coeffs[:, k] - singles[j].coeffs)) <= 1e-14 * scale
            assert np.max(np.abs(f.values[:, k] - singles[j].values)) <= 1e-14 * scale
            assert _verified(quad, draws[j], GridFn.from_coeffs(quad, f.coeffs[:, k]), 3.0)

    def test_stacked_projection_raises_for_any_failed_column(self):
        quad = cached_quadrature(4.0, 64)
        draws = list(_probe_draws(quad, 300))
        failed = []
        for j, c in enumerate(draws):
            try:
                project_moment(quad, c, 3.0)
            except ConvergenceError:
                failed.append(j)
        assert failed
        stack = np.stack([draws[0], draws[failed[0]], draws[1]], axis=1)
        with pytest.raises(ConvergenceError):
            project_moment(quad, stack, 3.0)

    def test_vector_is_the_one_column_stack(self):
        # a vector keeps its bits: (n, 1) synthesis and sums are the vector's
        quad = cached_quadrature(4.0, 64)
        for c in list(_probe_draws(quad, 127))[-3:]:
            f = project_moment(quad, c, 3.0)
            g = project_moment(quad, c[:, None], 3.0)
            assert np.array_equal(f.coeffs, g.coeffs[:, 0])
            assert np.array_equal(f.values, g.values[:, 0])

    def test_bisection_fallback(self):
        # draw 126: the moment decreases along phi_1 at r = 0, so Newton
        # stops at once; the moment has three roots in the bracket [-8, 8]
        # (near -5.99, -0.19 and 1.68) and bisection lands on the last one
        quad = cached_quadrature(4.0, 64)
        c = list(_probe_draws(quad, 127))[-1]
        v0 = quad.to_values(c)
        phi1 = quad.to_values(np.eye(quad.n)[1])
        assert np.sum(quad.weights * quad.nodes * np.abs(v0) * v0 * phi1) <= 0.0  # p = 3
        f = project_moment(quad, c, 3.0)
        assert _verified(quad, c, f, 3.0)
        oracle = brentq(lambda r: moment_of(quad, v0 + r * phi1, 3.0), 1.0, 2.0, xtol=1e-15)
        assert f.coeffs[1] - c[1] == pytest.approx(oracle, abs=1e-10)

    def test_cli_import_leaves_out_scipy_optimize(self):
        # in a fresh interpreter: the test modules import scipy.optimize
        code = "import sys, ultraflow.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout.strip() == "False"


class TestLambdaStar:
    def test_estimate_d4_p3(self):
        est = estimate_lambda_star(4.0, 3.0, n=64, restarts=8, seed=0)
        assert 4.0 < est.lambda_star <= 2.0 * 5.0 + 1e-6
        assert est.lambda_bound > 4.0
        assert est.constraint_residuals["moment"] <= 1e-9
        assert est.constraint_residuals["mass"] <= 1e-12
        assert est.constraint_residuals["positivity_min"] >= 0.0
        # the relaxed quotient of the same feasible set cannot exceed the
        # curvature quotient's achieved value by the square-expansion bound
        assert est.relaxed_value <= est.lambda_star + 1e-6

    def test_restart_telemetry(self):
        # one entry per start, the two second-mode starts first: they sit at
        # the 2(d+1) upper bound, where the projected gradient vanishes
        est = estimate_lambda_star(4.0, 3.0, n=64, restarts=8, seed=0)
        assert len(est.restart_values) == len(est.restart_iterations) == 8
        assert len(est.restart_reasons) == 8
        assert est.lambda_star == min(est.restart_values)
        assert est.restart_iterations[:2] == (1, 1)
        assert est.restart_reasons[:2] == ("gtol", "gtol")
        assert est.restart_values[:2] == pytest.approx((10.0, 10.0), abs=1e-12)
        assert sum(est.restart_iterations) <= est.iterations
        out = est.to_dict()
        assert out["restart_values"] == list(est.restart_values)
        assert out["restart_iterations"] == list(est.restart_iterations)
        assert out["restart_reasons"] == list(est.restart_reasons)

    def test_random_starts_converge(self):
        # in the metric of the numerator every random start meets the
        # gradient test, at 2(d+1), in a few dozen steps
        est = estimate_lambda_star(4.0, 3.0, n=64, restarts=8, seed=0)
        assert est.restart_reasons == ("gtol",) * 8
        assert est.restart_values == pytest.approx((10.0,) * 8, abs=1e-12)
        assert est.iterations <= 240

    def test_upper_bound_mechanism(self):
        # a pure even second-mode perturbation is feasible and realizes the
        # 2(d+1) upper bound exactly, so the estimate can never exceed it
        quad = cached_quadrature(4.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0] = 1.0
        coeffs[2] = 0.4
        v = GridFn.from_coeffs(quad, coeffs)
        assert v.is_positive()
        assert abs(moment_of(quad, v.values, 3.0)) < 1e-15
        assert rayleigh_quotient(v) == pytest.approx(10.0, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            estimate_lambda_star(4.0, 2.0, n=64)
        with pytest.raises(DomainError):
            estimate_lambda_star(4.0, 3.0, n=32)


class TestImprovedConstant:
    def test_boundary_values(self):
        d = 4.0
        sharp = two_sharp(d)
        assert improved_constant(d, sharp * (1 - 1e-12), d + 1.0) == pytest.approx(d, abs=1e-9)
        assert improved_constant(d, 3.0, d) == d

    def test_reference_value(self):
        assert improved_constant(4.0, 3.0, 10.0) == pytest.approx(5.5, abs=1e-13)

    def test_affine_coefficient(self):
        d, p = 5.0, 2.5
        c = (d - 1.0) ** 2 / (d * (d + 2.0)) * (two_sharp(d) - p)
        v1 = improved_constant(d, p, d + 1.0)
        v2 = improved_constant(d, p, d + 3.0)
        assert (v2 - v1) / 2.0 == pytest.approx(c, rel=1e-13)

    def test_range_error(self):
        with pytest.raises(DomainError):
            improved_constant(4.0, two_sharp(4.0) + 0.01, 5.0)


class TestVerifyImproved:
    def test_passes_with_derived_constant(self):
        est = estimate_lambda_star(4.0, 3.0, n=64, restarts=6, seed=0)
        rep = verify_improved_inequality(4.0, 3.0, est.lambda_bound, samples=500, seed=1)
        assert rep["min_slack"] >= 0.0
        assert rep["violations"] == 0

    def test_even_class_with_antipodal_constant(self):
        lam = antipodal_constants(4.0, 3.0)["prop_const"]
        rep = verify_improved_inequality(4.0, 3.0, lam, samples=200, seed=2, even_only=True)
        assert rep["min_slack"] >= 0.0

    @pytest.mark.parametrize("d", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_even_class_sweep(self, d, p):
        # the heat-route antipodal constant holds on 200 even samples for
        # every (d, p) in the validity range
        assert p < two_sharp(d)
        lam = antipodal_constants(d, p)["prop_const"]
        rep = verify_improved_inequality(d, p, lam, samples=200, seed=11, even_only=True)
        assert rep["min_slack"] >= 0.0
        assert rep["violations"] == 0

    @pytest.mark.parametrize("even_only, lam", [(False, None), (False, 15.0), (True, 15.0)])
    def test_stack_equals_sample_loop(self, even_only, lam):
        # the verifier evaluates its samples as one column stack; a loop of
        # the vector path over the same draws gives the same slacks
        d, p, seed, samples = 4.0, 3.0, 1, 200
        if lam is None:
            lam = estimate_lambda_star(d, p, n=64, restarts=6, seed=0).lambda_bound
        quad = cached_quadrature(d, 64)
        rng = np.random.default_rng(seed)
        slacks = []
        for _ in range(samples):
            amp = float(rng.uniform(0.2, 1.3))
            c = random_band_limited(quad, rng, modes=12, amplitude=amp,
                                    even_only=even_only).coeffs.copy()
            c[0] = 1.0
            f = GridFn.from_coeffs(quad, c) if even_only else project_moment(quad, c, p)
            slacks.append(_dirichlet(quad, f.coeffs)
                          - lam * _entropy(quad.weights, np.abs(f.values) ** p, p))
        rep = verify_improved_inequality(d, p, lam, samples=samples, seed=seed,
                                         even_only=even_only)
        assert rep["min_slack"] == pytest.approx(min(slacks), rel=1e-13, abs=0)
        assert rep["mean_slack"] == pytest.approx(float(np.mean(slacks)), rel=1e-13, abs=0)
        assert rep["violations"] == sum(x < 0.0 for x in slacks)
        if lam == 15.0:  # above the constant: some samples violate
            assert 0 < rep["violations"] < samples

    def test_constant_function_zero_slack(self):
        # both sides of the inequality coincide on constants
        quad = cached_quadrature(4.0, 64)
        f = GridFn.constant(quad, 1.7)
        fp = quad.derivative_values(f.coeffs)
        lhs = float(np.sum(quad.weights * quad.nu * fp**2))
        sq = float(np.sum(quad.weights * f.values**2))
        pnorm2 = float(np.sum(quad.weights * f.values**3.0)) ** (2.0 / 3.0)
        slack = lhs - 5.5 / (3.0 - 2.0) * (pnorm2 - sq)
        assert abs(slack) < 1e-13


class TestLogSobImprovement:
    def test_d2_reference(self):
        rep = logsob_improvement(2.0)
        assert rep["delta"] == pytest.approx(2.0 + 7.0 / (10.0 + math.sqrt(70.0)), abs=1e-14)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_crossing_residual(self, d):
        rep = logsob_improvement(float(d))
        assert rep["crossing_residual"] <= 1e-10
        assert rep["crossing_value"] == pytest.approx(rep["Lambda_star_bound"], abs=1e-12)

    def test_crossing_against_root_finding_oracle(self):
        # oracle: solve the crossing equation directly and compare with the
        # closed form for b*
        for d in (2.0, 4.0, 7.0):
            def gap(b):
                c1 = b / 2.0 - 1.0
                c2 = 2.0 * math.sqrt(b * b + b / (d + 1.0)) - 2.0 * b
                e1 = (d * b + 2.0 * (d + 1.0) * c1) / (b + c1)
                e2 = (d * b + 2.0 * (d + 1.0) * c2) / (b + c2)
                return e1 - e2

            b_oracle = brentq(gap, 2.05, 6.0, xtol=1e-14)
            assert logsob_improvement(d)["b_star"] == pytest.approx(b_oracle, abs=1e-11)

    def test_b_star_decreasing_to_two(self):
        values = [logsob_improvement(float(d))["b_star"] for d in (2, 3, 5, 10, 100, 10000)]
        assert all(b1 > b2 for b1, b2 in zip(values, values[1:]))
        assert values[-1] == pytest.approx(2.0, abs=1e-3)

    def test_range(self):
        with pytest.raises(DomainError):
            logsob_improvement(1.5)


class TestAntipodalConstants:
    def test_no_improvement_at_critical(self):
        d = 4.0
        rep = antipodal_constants(d, two_star(d))
        assert rep["thm_raw"] == pytest.approx(d, abs=1e-13)

    def test_p2_limits(self):
        rep = antipodal_constants(4.0, 2.0)
        assert rep["prop_const"] == pytest.approx((16.0 + 16.0 - 1.0) / 8.0, abs=1e-14)
        assert rep["thm_const"] == pytest.approx(0.5 * 4.0 * 49.0 / 25.0, abs=1e-14)

    def test_reference_gap_d5_p3(self):
        rep = antipodal_constants(5.0, 3.0)
        assert rep["gap_lower_bound"] == pytest.approx(64.0 / 185.0, abs=1e-15)
        assert rep["thm_raw"] - rep["prop_raw"] >= rep["gap_lower_bound"] - 1e-12

    @pytest.mark.parametrize("d", [3.0, 4.0, 5.0, 8.0])
    def test_gap_bound_on_common_range(self, d):
        for p in np.linspace(1.0, two_sharp(d), 50):
            rep = antipodal_constants(d, float(p))
            gap = rep["thm_raw"] - rep["prop_raw"]
            assert gap >= rep["gap_lower_bound"] - 1e-11 * max(1.0, abs(gap))

    def test_theta_beta_lambda(self):
        d, p = 5.0, 3.0
        rep = antipodal_constants(d, p)
        assert rep["theta"] == pytest.approx(16.0 * 2.0 / 37.0, rel=1e-14)
        assert rep["beta"] == pytest.approx(7.0 / 5.0, rel=1e-14)
        theta = rep["theta"]
        assert rep["lambda_star_antipodal"] == pytest.approx(
            (1 - theta) * 12.0 + theta * 5.0, rel=1e-14
        )

    def test_scope(self):
        assert antipodal_constants(5.0, 3.3)["prop_const"] is None  # above 2#
        with pytest.raises(DomainError):
            antipodal_constants(5.0, 3.5)
        with pytest.raises(DomainError):
            antipodal_constants(5.0, 0.5)


class TestAntipodalSpectral:
    def test_even_class_threshold(self):
        holds(checks.antipodal(seed=7))

    def test_equality_only_at_mode2(self):
        quad = cached_quadrature(3.0, 64)
        assert rayleigh_quotient(eigenfunction(quad, 4)) > 2.0 * 4.0 + 1.0
