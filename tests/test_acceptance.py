"""Acceptance suite: one test per criterion, each printing a pass line.

A claim that ``ultraflow verify`` also checks runs here through the same
function of ``ultraflow.checks``, which pins its tolerance; the claims only a
criterion checks are pinned here.  Run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the per-criterion
lines).
"""

import math

import numpy as np
import pytest

from ultraflow import (
    FlowSpec,
    Form,
    Params,
    antipodal_constants,
    beta_roots,
    checks,
    counterexample_coefficient,
    counterexample_roots,
    estimate_lambda_star,
    evolve,
    gamma_of_beta,
    improved_constant,
    make_state,
    region_sweep,
    sign_certificate,
    two_sharp,
    two_star,
    verify_improved_inequality,
)
from ultraflow.discretization import random_positive

from conftest import cached_quadrature


def report(k, text):
    print(f"[acceptance] criterion {k:2d}: PASS - {text}")


def holds(results) -> dict:
    """Every claim of a shared check holds; returns claim -> measured."""
    results = list(results)
    assert [(claim, measured) for claim, passed, measured in results if not passed] == []
    return {claim: measured for claim, _, measured in results}


def test_criterion_01_quadrature_measure():
    """Measure normalization and second moment across real dimensions."""
    holds(checks.quadrature())
    report(1, "int dnu = 1 and int z^2 dnu = 1/(d+1), 8 dimensions, N=64")


def test_criterion_02_integral_identities():
    """Both second-order integral identities, 20 random positive
    band-limited functions, d in {3, 5}, N = 128."""
    worst = max(holds(checks.lemma_identities(seed=101)).values())
    report(2, f"square and cross identities, worst relative error {worst:.2e}, "
              "d in {3,5}, N=128")


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
    exponent, with mass conserved.  50 random initial data."""
    holds(checks.heat_monotone(seed=42, data=50))
    report(4, "deficit nonincreasing and mass conserved, 50 random data, d=5, p=3")


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
        assert traj.monotone_decreasing_F()
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-9

    quad3 = cached_quadrature(3.0, 128)
    spec3 = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
    assert spec3.beta_is_infinite and spec3.m == pytest.approx(2.0 / 3.0, abs=1e-15)
    rho0 = random_positive(quad3, rng, modes=8, amplitude=0.4)
    traj3 = evolve(make_state(Form.DENSITY, spec3, rho0), 0.4, samples=30)
    assert traj3.monotone_decreasing_F()
    report(5, "nonlinear-flow deficit nonincreasing with moment drift <= 1e-9 "
              "(d=5, p=3.3, lower root) and the d=3, p=6, m=2/3 case runs")


def test_criterion_06_counter_example():
    """Three-way agreement of the positive deficit derivative at the
    power-law witness, and the sign certificate across four dimensions."""
    holds(checks.second_obstruction())
    for d in (3.0, 4.0, 5.0, 8.0):
        assert all(a > 0.0 for *_, a in sign_certificate(d))
    report(6, "closed form, expansion and finite difference of the witness "
              "derivative agree and are positive; A(p, beta-) > 0 on "
              "100-point windows, d in {3,4,5,8}")


def test_criterion_07_exact_solution():
    """The explicit family solves the critical fast diffusion and fails the
    heat equation; its coefficients keep the hyperbolic identity."""
    fde, heat, _ = holds(checks.exact_solution()).values()
    report(7, f"fast-diffusion residual {fde:.2e}; heat residual {heat:.2e} (d=4, N=128)")


def test_criterion_08_moment_decay():
    """First-moment decay law under the pointwise heat flow."""
    (dev,) = holds(checks.moment_decay()).values()
    report(8, f"|M(t) - M(0) exp(-4t)| <= {dev:.2e}, t <= 1, d=4, p=3")


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
    spectral threshold with its equality and odd cases."""
    holds(checks.antipodal(seed=5))
    for d in (3.0, 4.0, 5.0, 8.0):
        for p in np.linspace(1.0, two_sharp(d), 40):
            rep = antipodal_constants(d, float(p))
            gap = rep["thm_raw"] - rep["prop_raw"]
            assert gap >= rep["gap_lower_bound"] - 1e-11 * max(1.0, abs(gap))
    report(10, "crossing residual (d=2..10); antipodal gap bound on [1, 2#] grids; "
               "even-class ratio >= 2(d+1) on 100 samples, equality at mode 2")


def test_criterion_11_figure_data():
    """Region sweep reproduces the admissibility topology: a nonempty
    admissible band at every exponent, and the heat line beta = 1 admissible
    exactly up to the threshold exponent (equivalently through the m = 1 row
    of the diffusion-exponent chart)."""
    holds(checks.region_figures())
    d = 5.0
    region, _ = region_sweep(d, (1.0, two_star(d)), (0.0, 4.0), 201)
    pt = region.point
    assert pt.admissible.shape == (201, 201)
    assert np.all(np.diff(region.beta) > 0.0)
    sharp = two_sharp(d)
    # single contiguous band per p row (the d = 5 denominator never vanishes)
    for flags in pt.admissible:
        assert np.count_nonzero(flags[1:] != flags[:-1]) <= 2
    # the m-chart statement: admissible points with m = 1 stop at the threshold
    for p, adm, m in zip(region.p.tolist(), pt.admissible, pt.m):
        if np.any(adm & (np.abs(m - 1.0) < 1e-12)):
            assert p <= sharp + 1e-12
    report(11, "201x201 sweep at d=5: admissible band nonempty for every p, "
               "beta=1 (m=1) admissible exactly for p <= 2#")
