"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines).
"""

import collections
import math

import numpy as np
import pytest

from ultraflow import (
    FlowSpec,
    Form,
    GridFn,
    Params,
    Quadrature,
    antipodal_constants,
    antipodal_spectral_check,
    beta_roots,
    counterexample_coefficient,
    counterexample_roots,
    derivative,
    estimate_lambda_star,
    evolve,
    gamma_of_beta,
    improved_constant,
    integral,
    logsob_improvement,
    make_state,
    moment_decay_check,
    region_sweep,
    second_derivative,
    second_obstruction,
    two_sharp,
    two_star,
    verify_exact_solution,
    verify_improved_inequality,
)
from ultraflow.discretization import random_positive

from conftest import cached_quadrature


def report(k, text):
    print(f"[acceptance] criterion {k:2d}: PASS - {text}")


def test_criterion_01_quadrature_measure():
    """Measure normalization and second moment across real dimensions."""
    for d in (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0):
        quad = Quadrature(d, 64)
        assert abs(integral(GridFn.constant(quad, 1.0)) - 1.0) <= 1e-13
        z2 = GridFn.from_values(quad, quad.nodes**2)
        assert abs(integral(z2) - 1.0 / (d + 1.0)) <= 1e-12
    report(1, "int dnu = 1 (1e-13) and int z^2 dnu = 1/(d+1) (1e-12), 8 dimensions, N=64")


def test_criterion_02_integral_identities():
    """Both second-order integral identities at 1e-9 relative, 20 random
    positive band-limited functions, d in {3, 5}, N = 128."""
    rng = np.random.default_rng(101)
    for d in (3.0, 5.0):
        quad = cached_quadrature(d, 128)
        for _ in range(20):
            f = random_positive(quad, rng, modes=12, amplitude=0.6)
            lf = GridFn.from_coeffs(quad, -quad.eigenvalues * f.coeffs)
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
    report(2, "square and cross identities at 1e-9 relative, d in {3,5}, N=128")


GAMMA_GRID = [
    (3.0, (1.2, 2.0, 3.0, 4.5, 5.8)),
    (4.0, (1.2, 1.8, 2.4, 3.6, 3.9)),
    (5.0, (1.5, 2.2, 2.8, 3.1, 3.3)),
    (6.0, (1.3, 1.9, 2.5, 2.8, 2.95)),
    (8.0, (1.4, 1.9, 2.2, 2.5, 2.63)),
    (10.0, (1.2, 1.7, 2.0, 2.3, 2.45)),
    (1.0, (1.5, 2.5, 4.0, 6.0, 9.0)),
    (2.0, (1.5, 2.5, 4.0, 6.0, 9.0)),
    (2.5, (1.5, 2.5, 4.0, 6.0, 8.0)),
    (7.0, (1.3, 1.8, 2.2, 2.5, 2.7)),
]


def test_criterion_03_root_consistency():
    """gamma and A vanish at their closed-form roots; the critical double
    root equals (d-2)/(d-3)."""
    n_points = 0
    for d, ps in GAMMA_GRID:
        for p in ps:
            params = Params(d, p)
            r = beta_roots(params)
            assert abs(gamma_of_beta(params, r.minus)) <= 1e-10
            if math.isfinite(r.plus):
                assert abs(gamma_of_beta(params, r.plus)) <= 1e-10
            n_points += 1
    assert n_points == 50
    n_points = 0
    for d in (3.0, 4.0, 5.0, 8.0, 10.0):
        lo, hi = two_sharp(d), two_star(d)
        for i in range(10):
            params = Params(d, lo + (hi - lo) * (i + 0.5) / 10)
            bm, bp = counterexample_roots(params)
            assert abs(counterexample_coefficient(params, bm)) <= 1e-10
            assert abs(counterexample_coefficient(params, bp)) <= 1e-10
            n_points += 1
    assert n_points == 50
    for d in range(4, 11):
        r = beta_roots(Params(float(d), two_star(float(d))))
        expected = (d - 2.0) / (d - 3.0)
        assert abs(r.minus - expected) <= 1e-13
        assert abs(r.plus - expected) <= 1e-13
    report(3, "gamma(beta+-)=0 and A(B+-)=0 at 1e-10 on 50-point grids; "
              "critical double root exact to 1e-13, d=4..10")


def test_criterion_04_heat_flow_monotonicity():
    """Deficit nonincreasing along the heat flow below the threshold
    exponent; mass conserved to 1e-13.  50 random initial data."""
    quad = cached_quadrature(5.0, 128)
    spec = FlowSpec.heat(Params(5.0, 3.0))
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho0 = random_positive(quad, rng, modes=10, amplitude=0.6)
        state = make_state(Form.DENSITY, spec, rho0)
        traj = evolve(state, 1.0, samples=50, with_reports=False)
        assert traj.monotone_decreasing_F(1e-9)
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-13
    report(4, "deficit nonincreasing (1e-9/interval) and mass drift <= 1e-13, "
              "50 random data, d=5, p=3")


def test_criterion_05_nonlinear_flow_monotonicity():
    """Deficit nonincreasing along the rescaled nonlinear flow above the
    threshold, with its moment conserved to 1e-9; the infinite-beta case
    runs as the critical fast diffusion."""
    quad = cached_quadrature(5.0, 128)
    params = Params(5.0, 3.3)
    beta = beta_roots(params).minus
    spec = FlowSpec.nonlinear(params, beta)
    rng = np.random.default_rng(7)
    for _ in range(2):
        w0 = random_positive(quad, rng, modes=8, amplitude=0.5)
        state = make_state(Form.POINTWISE, spec, w0)
        traj = evolve(state, 0.4, samples=30)
        assert traj.monotone_decreasing_F(1e-9)
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-9

    quad3 = cached_quadrature(3.0, 128)
    spec3 = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
    assert spec3.beta_is_infinite and spec3.m == pytest.approx(2.0 / 3.0, abs=1e-15)
    rho0 = random_positive(quad3, rng, modes=8, amplitude=0.4)
    traj3 = evolve(make_state(Form.DENSITY, spec3, rho0), 0.4, samples=30)
    assert traj3.monotone_decreasing_F(1e-9)
    report(5, "nonlinear-flow deficit nonincreasing with moment drift <= 1e-9 "
              "(d=5, p=3.3, lower root) and the d=3, p=6, m=2/3 case runs")


def test_criterion_06_counter_example():
    """Three-way agreement of the positive deficit derivative at the
    power-law witness, and the sign certificate across four dimensions."""
    rep = second_obstruction(5.0, 3.25, 1.0, 0.4)
    assert rep["rhs"] > 0.0
    assert rep["dFdt_analytic"] == pytest.approx(rep["rhs"], rel=1e-4)
    assert rep["dFdt_numeric"] == pytest.approx(rep["rhs"], rel=1e-4)
    assert rep["dFdt_numeric"] > 0.0
    for d in (3.0, 4.0, 5.0, 8.0):
        lo, hi = two_sharp(d), two_star(d)
        for i in range(100):
            p = lo + (hi - lo) * (i + 0.5) / 100
            params = Params(d, p)
            assert counterexample_coefficient(params, beta_roots(params).minus) > 0.0
    report(6, "closed form, expansion and finite difference of the witness "
              "derivative agree to 1e-4 and are positive; A(p, beta-) > 0 on "
              "100-point windows, d in {3,4,5,8}")


def test_criterion_07_exact_solution():
    """The explicit family solves the critical fast diffusion to 1e-8 and
    fails the heat equation by at least 1e-3."""
    res = verify_exact_solution(4.0, 1.0, 0.5, 1.0, n=128, n_times=9)
    assert res["max_fde_residual"] <= 1e-8
    assert res["min_heat_residual"] >= 1e-3
    report(7, f"fast-diffusion residual {res['max_fde_residual']:.2e} <= 1e-8; "
              f"heat residual {res['min_heat_residual']:.2e} >= 1e-3 (d=4, N=128)")


def test_criterion_08_moment_decay():
    """First-moment decay law under the pointwise heat flow at 1e-7."""
    quad = cached_quadrature(4.0, 64)
    u0 = GridFn.from_values(quad, 1.0 + 0.1 * quad.nodes)
    state = make_state(Form.POINTWISE, FlowSpec.heat(Params(4.0, 3.0)), u0)
    rep = moment_decay_check(state, 1.0, dt_max=2e-4)
    assert rep["max_dev_from_law"] <= 1e-7
    report(8, f"|M(t) - M(0) exp(-4t)| <= {rep['max_dev_from_law']:.2e} <= 1e-7, "
              "t <= 1, d=4, p=3")


def test_criterion_09_lambda_star():
    """Constrained quotient estimate in (d, 2(d+1)], a bound above d, and a
    500-sample empirical verification with nonnegative slack."""
    est = estimate_lambda_star(4.0, 3.0, n=64, restarts=16, seed=0)
    assert 4.0 < est.lambda_star <= 2.0 * 5.0 + 1e-6
    lam = improved_constant(4.0, 3.0, est.lambda_star)
    assert lam > 4.0
    rep = verify_improved_inequality(4.0, 3.0, lam, samples=500, seed=3)
    assert rep["min_slack"] >= 0.0
    report(9, f"lambda* estimate {est.lambda_star:.6f} in (4, 10]; bound "
              f"{lam:.4f} > 4; min slack {rep['min_slack']:.3e} >= 0 over 500 samples")


def test_criterion_10_closed_form_constants():
    """Crossing residual, antipodal constant gap, and the even-class
    spectral threshold."""
    for d in range(2, 11):
        assert logsob_improvement(float(d))["crossing_residual"] <= 1e-10
    for d in (3.0, 4.0, 5.0, 8.0):
        for p in np.linspace(1.0, two_sharp(d), 40):
            rep = antipodal_constants(d, float(p))
            gap = rep["thm_raw"] - rep["prop_raw"]
            assert gap >= rep["gap_lower_bound"] - 1e-11 * max(1.0, abs(gap))
    spectral = antipodal_spectral_check(3.0, 64, samples=100, seed=5)
    assert spectral["min_ratio"] >= 2.0 * (3.0 + 1.0) - 1e-9
    report(10, "crossing residual <= 1e-10 (d=2..10); antipodal gap bound on "
               "[1, 2#] grids; even-class ratio >= 2(d+1) - 1e-9 on 100 samples")


def test_criterion_11_figure_data():
    """Region sweep reproduces the admissibility topology: a nonempty
    admissible band at every exponent, and the heat line beta = 1 admissible
    exactly up to the threshold exponent (equivalently through the m = 1 row
    of the diffusion-exponent chart)."""
    d = 5.0
    rows, _ = region_sweep(d, (1.0, two_star(d)), (0.0, 4.0), 201, 201)
    columns = collections.defaultdict(list)
    for p, beta, m, gamma, adm, a_val, a_pos in rows:
        columns[p].append((beta, bool(adm), m))
    assert len(columns) == 201
    assert all(any(adm for _, adm, _ in col) for col in columns.values())
    sharp = two_sharp(d)
    for p, col in columns.items():
        for beta, adm, m in col:
            if abs(beta - 1.0) < 1e-12:
                assert adm == (p <= sharp)
    # single contiguous band per column (the d = 5 denominator never vanishes)
    for p, col in columns.items():
        flags = [adm for _, adm, _ in sorted(col)]
        assert sum(1 for x, y in zip(flags, flags[1:]) if x != y) <= 2
    # the m-chart statement: admissible points with m = 1 stop at the threshold
    for p, col in columns.items():
        for beta, adm, m in col:
            if adm and abs(m - 1.0) < 1e-12:
                assert p <= sharp + 1e-12
    report(11, "201x201 sweep at d=5: admissible band nonempty for every p, "
               "beta=1 (m=1) admissible exactly for p <= 2#")
