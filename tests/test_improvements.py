import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from ultraflow import checks, improvements
from ultraflow.constants import two_sharp, two_star
from ultraflow.discretization import (
    GridFn,
    Quadrature,
    eigenfunction,
    random_band_limited,
    random_positive,
)
from ultraflow.errors import ConvergenceError, DomainError
from ultraflow.functionals import _dirichlet, _entropy
from ultraflow.improvements import (
    MOMENT_TOL,
    antipodal_constants,
    estimate_lambda_star,
    improved_constant,
    logsob_improvement,
    project_feasible,
    project_moment,
    rayleigh_quotient,
    verify_improved_inequality,
)

from conftest import cached_quadrature, holds, moment_of, traced_peak

#: restart_* of the search at checks.SEARCH_GRID x seeds 0 and 3, 16 starts
#: each, as a start-by-start descent gave them
SEARCH_PINS = json.loads((Path(__file__).parent / "search_pins.json").read_text())


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

    @pytest.mark.parametrize("d", [2.5, 3.0, 4.0, 7.0])
    def test_quotient_is_the_descents_quotient(self, d, rng):
        # one quotient: rayleigh_quotient reads the descent's numerator and
        # denominator, bitwise the Dirichlet form's reading of the same
        quad = cached_quadrature(d, 64)
        lam = quad.eigenvalues
        for _ in range(50):
            v = random_band_limited(quad, rng, modes=int(rng.integers(2, 20)))
            assert rayleigh_quotient(v) == float(lam**2 @ v.coeffs**2 / _dirichlet(quad, v.coeffs))

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
    """The moment of f's synthesized values v is within MOMENT_TOL of both
    int |v|^p and the input's int |v0|^p, and f differs from the input in
    c_1 only."""
    values = quad.to_values(f.coeffs)
    scale = min(np.sum(quad.weights * np.abs(quad.to_values(c)) ** p),
                np.sum(quad.weights * np.abs(values) ** p))
    moment = abs(moment_of(quad, values, p))
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
        assert abs(f.coeffs[0] - 1.0) <= 1e-13
        assert abs(moment_of(quad, f.values, 3.0)) <= 1e-10
        assert f.values.min() >= 0.0

    def test_stack_is_each_column_projected(self):
        # each column runs its own rounds: at these draws the columns of
        # amplitude 1.4 and 2.5 are clipped and take five rounds, the others one
        quad = cached_quadrature(4.0, 64)
        rng = np.random.default_rng(3)
        cols = [random_band_limited(quad, rng, modes=10, amplitude=a).coeffs
                for a in (0.3, 1.4, 0.7, 2.5, 0.5)]
        f = project_feasible(quad, np.column_stack(cols), 3.0)
        assert f.coeffs.shape == f.values.shape == (64, 5)
        for j, c in enumerate(cols):
            one = project_feasible(quad, c, 3.0)
            assert f.coeffs[:, j] == pytest.approx(one.coeffs, rel=0, abs=1e-13)
            assert f.values[:, j] == pytest.approx(one.values, rel=0, abs=1e-13)

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

    def test_large_p_projection_is_judged_on_its_result(self):
        # at p = 300 and 1000 the shift can shrink int |v|^p by many orders
        # of magnitude: judged on the input's scale alone, 170 of these 200
        # projections were returned with |int z |v|^p| up to 0.999 int |v|^p
        quad = cached_quadrature(2.0, 64)
        rng = np.random.default_rng(0)
        verified = 0
        for _ in range(100):
            g = random_band_limited(quad, rng, modes=10, amplitude=float(rng.uniform(0.2, 0.8)))
            c = g.coeffs.copy()
            c[0] = 1.0
            for p in (300.0, 1000.0):
                try:
                    f = project_moment(quad, c, p)
                except ConvergenceError:
                    continue
                assert _verified(quad, c, f, p)
                verified += 1
        assert verified > 150

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
        # the searched values sit a few ulps above 2(d+1), so lambda* is the
        # closed form exactly, and the improved constant its value 5.5
        est = estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=8, seed=0)
        assert est.lambda_star == est.upper_bound == 10.0
        assert est.lambda_bound == 5.5

    def test_restart_telemetry(self):
        # one entry per random start; iterations counts the searched steps
        est = estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=8, seed=0)
        assert est.restarts == 8
        assert len(est.restart_values) == len(est.restart_iterations) == 8
        assert len(est.restart_reasons) == 8
        assert est.lambda_star == min(est.upper_bound, *est.restart_values)
        assert sum(est.restart_iterations) == est.iterations
        out = est.to_dict()
        assert out["restart_values"] == list(est.restart_values)
        assert out["restart_iterations"] == list(est.restart_iterations)
        assert out["restart_reasons"] == list(est.restart_reasons)

    def test_random_starts_converge(self):
        # in the metric of the numerator every random start meets the
        # gradient test, at 2(d+1), in a few dozen steps
        est = estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=6, seed=0)
        assert est.restart_reasons == ("gtol",) * 6
        assert est.restart_values == pytest.approx((10.0,) * 6, abs=1e-12)
        assert est.iterations <= 240

    def test_no_search_is_the_closed_form(self):
        est = estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=0, seed=0)
        assert (est.lambda_star, est.lambda_bound, est.iterations) == (10.0, 5.5, 0)
        assert est.restart_values == est.restart_iterations == est.restart_reasons == ()

    def test_search_below_the_closed_form_is_reported(self, monkeypatch):
        # a searched value below 2(d+1) becomes lambda*, and the search
        # claims of the improvement suite fail on it; _descend takes the
        # (n, s) stack of starts and returns one entry per column
        def below(quad, coeffs, p):
            s = coeffs.shape[1]
            return [2.0 * (quad.d + 1.0) - 0.5] * s, [1] * s, ["gtol"] * s

        monkeypatch.setattr(improvements, "_descend", below)
        est = estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=2, seed=0)
        assert est.lambda_star == 9.5
        results = list(checks.improvement(seed=0))
        failed = [claim for claim, passed, _ in results if not passed]
        assert failed == [claim for claim, _, _ in results[3:]]
        assert len(failed) == len(checks.SEARCH_GRID)

    @pytest.mark.parametrize("pin", SEARCH_PINS,
                             ids=[f"{p['d']}-{p['p']}-{p['seed']}" for p in SEARCH_PINS])
    def test_search_matches_the_pinned_starts(self, pin):
        # the lockstep stack takes each start's steps and stops it for the
        # same reason as a start-by-start descent; the values move by rounding
        est = estimate_lambda_star(cached_quadrature(pin["d"], 64), pin["p"], restarts=16,
                                   seed=pin["seed"])
        assert est.restart_iterations == tuple(pin["restart_iterations"])
        assert est.restart_reasons == tuple(pin["restart_reasons"])
        assert list(est.restart_values) == pytest.approx(pin["restart_values"], rel=1e-13, abs=0)
        np.testing.assert_array_equal([est.lambda_star, est.lambda_bound],
                                      [pin["lambda_star"], pin["lambda_bound"]])

    @pytest.mark.parametrize("after", [0, 12])
    def test_failing_projection_ends_its_start_alone(self, monkeypatch, after):
        # one even start among random ones keeps its odd coefficients below
        # 1e-18 along the descent, where the others' stay above 2e-9 as they
        # approach 1 + eps phi_2, which marks its column: a project_moment
        # that raises on it from call ``after`` on (at the first projection,
        # or after some steps) makes the stack fall back to column by column,
        # and that start alone ends as projection-failed
        quad = cached_quadrature(4.0, 64)
        rng = np.random.default_rng(5)
        cols = [random_band_limited(quad, rng, modes=10, amplitude=0.5).coeffs for _ in range(6)]
        cols.insert(2, random_band_limited(quad, rng, modes=10, amplitude=0.5,
                                           even_only=True).coeffs)
        stack = np.column_stack(cols)
        ref_values, ref_iters, ref_reasons = improvements._descend(quad, stack, 3.0)
        assert ref_reasons[2] == "gtol" and ref_iters[2] > 12
        original, calls = improvements.project_moment, []

        def failing(quad, coeffs, p, values=None):
            c = coeffs.reshape(quad.n, -1)
            calls.append(c.shape[1])
            if len(calls) > after and (np.abs(c[1::2]).max(axis=0) < 1e-14).any():
                raise ConvergenceError("the marked column")
            return original(quad, coeffs, p, values)

        monkeypatch.setattr(improvements, "project_moment", failing)
        values, iters, reasons = improvements._descend(quad, stack, 3.0)
        assert math.isnan(values[2]) and (iters[2], reasons[2]) == (0, "projection-failed")
        assert calls.count(1) >= 7  # the fallback projected each column alone
        others = [0, 1, 3, 4, 5, 6]
        assert [iters[j] for j in others] == [ref_iters[j] for j in others]
        assert [reasons[j] for j in others] == [ref_reasons[j] for j in others]
        assert [values[j] for j in others] == pytest.approx([ref_values[j] for j in others],
                                                            rel=1e-13, abs=0)

    def test_working_memory_is_bounded_by_the_block(self):
        # 256 starts go as four blocks of 64; one block's (64, 24 x 64)
        # stack of halvings is 0.75 MB, and the 256 starts descended as one
        # stack would peak above 5 MB
        est, peak = traced_peak(
            lambda: estimate_lambda_star(Quadrature(4.0, 64), 3.0, restarts=256, seed=0))
        assert len(est.restart_values) == 256
        assert peak < 3.5 * 2**20, peak

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
            estimate_lambda_star(cached_quadrature(4.0, 64), 2.0)
        with pytest.raises(DomainError):
            estimate_lambda_star(cached_quadrature(4.0, 32), 3.0)
        with pytest.raises(DomainError):
            estimate_lambda_star(cached_quadrature(4.0, 64), 3.0, restarts=-1)


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

    @pytest.mark.parametrize("p", [2.5, 3.0, 20.0])
    def test_d1_is_the_limit(self, p):
        # 2# is infinite at d = 1, where the constant is lambda* itself; the
        # expanded form is continuous there and agrees with the factored one
        assert improved_constant(1.0, p, 4.0) == 4.0
        assert improved_constant(1.0 + 1e-7, p, 4.0) == pytest.approx(4.0, abs=1e-6)
        for d in (1.0 + 1e-7, 1.001, 1.5):
            factored = d + (d - 1.0) ** 2 / (d * (d + 2.0)) * (two_sharp(d) - p) * (4.0 - d)
            assert improved_constant(d, p, 4.0) == pytest.approx(factored, rel=1e-12)


class TestVerifyImproved:
    def test_passes_with_derived_constant(self):
        quad = cached_quadrature(4.0, 64)
        est = estimate_lambda_star(quad, 3.0, restarts=6, seed=0)
        rep = verify_improved_inequality(quad, 3.0, est.lambda_bound, samples=500, seed=1)
        assert rep["min_slack"] >= 0.0
        assert rep["violations"] == 0

    def test_even_class_with_antipodal_constant(self):
        lam = antipodal_constants(4.0, 3.0)["prop_const"]
        rep = verify_improved_inequality(cached_quadrature(4.0, 64), 3.0, lam, samples=200, seed=2,
                                         even_only=True)
        assert rep["min_slack"] >= 0.0

    @pytest.mark.parametrize("d", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_even_class_sweep(self, d, p):
        # the heat-route antipodal constant holds on 200 even samples for
        # every (d, p) in the validity range
        assert p < two_sharp(d)
        lam = antipodal_constants(d, p)["prop_const"]
        rep = verify_improved_inequality(cached_quadrature(d, 64), p, lam, samples=200, seed=11,
                                         even_only=True)
        assert rep["min_slack"] >= 0.0
        assert rep["violations"] == 0

    @pytest.mark.parametrize("even_only, lam", [(False, None), (False, 15.0), (True, 15.0)])
    def test_stack_equals_sample_loop(self, even_only, lam):
        # the verifier evaluates its samples as one column stack; a loop of
        # the vector path over the same draws gives the same slacks
        d, p, seed, samples = 4.0, 3.0, 1, 200
        quad = cached_quadrature(d, 64)
        if lam is None:
            lam = estimate_lambda_star(quad, p, restarts=6, seed=0).lambda_bound
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
        rep = verify_improved_inequality(quad, p, lam, samples=samples, seed=seed,
                                         even_only=even_only)
        assert rep["min_slack"] == pytest.approx(min(slacks), rel=1e-13, abs=0)
        assert rep["mean_slack"] == pytest.approx(float(np.mean(slacks)), rel=1e-13, abs=0)
        assert rep["violations"] == sum(x < 0.0 for x in slacks)
        if lam == 15.0:  # above the constant: some samples violate
            assert 0 < rep["violations"] < samples

    def test_improvement_suite_builds_one_rule_per_point(self, monkeypatch):
        # the verifier runs on the search's rule at (4, 3)
        built, init = [], Quadrature.__init__

        def counted(quad, d, n):
            built.append((d, n))
            init(quad, d, n)

        monkeypatch.setattr(Quadrature, "__init__", counted)
        holds(checks.improvement(seed=0))
        assert built == [(d, 64) for d, _ in checks.SEARCH_GRID]

    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 20.0])
    def test_d1_limit_holds(self, p):
        rep = verify_improved_inequality(cached_quadrature(1.0, 64), p,
                                         improved_constant(1.0, p, 4.0), samples=500)
        assert rep["violations"] == 0
        assert rep["min_slack"] >= 0.0

    def test_overflowing_power_is_convergence_error(self):
        # |f|^1000 of the samples at d = 1.01 passes the float range
        with pytest.raises(ConvergenceError):
            verify_improved_inequality(cached_quadrature(1.01, 64), 1000.0, 4.0, samples=4)

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
        # the second envelope meets the first at b* to rounding; that it
        # does exactly is proved in tests/test_proofs.py
        rep = logsob_improvement(float(d))
        b = rep["b_star"]
        c2 = 2.0 * math.sqrt(b * b + b / (d + 1.0)) - 2.0 * b
        assert abs(rep["crossing_value"] - (d * b + 2.0 * (d + 1.0) * c2) / (b + c2)) <= 1e-10
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

    def test_d1_is_the_limit(self):
        # (d-1)^2 (2# - p) read 0 * inf at d = 1, which gave NaN for the limit 4
        rep = antipodal_constants(1.0, 1.5)
        assert rep["prop_raw"] == rep["prop_const"] == 4.0
        near = antipodal_constants(1.0 + 1e-9, 1.5)
        assert near["prop_raw"] == pytest.approx(4.0, abs=1e-8)

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
