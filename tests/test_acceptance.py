"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion runs the claims of ``ultraflow.checks`` that ``ultraflow
verify`` runs, which pin their tolerances, and asserts nothing else.  Run
with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).
"""

from ultraflow import checks

from conftest import holds


def report(k, text):
    print(f"[acceptance] criterion {k:2d}: PASS - {text}")


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


def test_criterion_03_root_consistency():
    """gamma and A vanish at their closed-form roots; the critical double
    root equals (d-2)/(d-3)."""
    holds(checks.closed_forms())
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
    holds(checks.nonlinear_monotone(seed=7))
    report(5, "nonlinear-flow deficit nonincreasing with moment drift <= 1e-9 "
              "(d=5, p=3.3, lower root) and the d=3, p=6, m=2/3 case runs")


def test_criterion_06_counter_example():
    """Three-way agreement of the positive deficit derivative at the
    power-law witness, and the sign certificate across four dimensions."""
    holds(checks.second_obstruction())
    holds(checks.closed_forms())
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
    lam_star, lam, slack = holds(checks.improvement(seed=0)).values()
    report(9, f"lambda* estimate {lam_star:.6f} in (4, 10]; bound "
              f"{lam:.4f} > 4; min slack {slack:.3e} >= 0 over 500 samples")


def test_criterion_10_closed_form_constants():
    """Crossing residual, antipodal constant gap, and the even-class
    spectral threshold with its equality and odd cases."""
    holds(checks.antipodal(seed=5))
    holds(checks.closed_forms())
    report(10, "crossing residual (d=2..10); antipodal gap bound on [1, 2#] grids; "
               "even-class ratio >= 2(d+1) on 100 samples, equality at mode 2")


def test_criterion_11_figure_data():
    """Region sweep reproduces the admissibility topology: a nonempty
    admissible band at every exponent, and the heat line beta = 1 (the m = 1
    row of the diffusion-exponent chart) admissible exactly up to the
    threshold exponent."""
    holds(checks.region_figures())
    report(11, "201x201 sweep at d=5: admissible band nonempty for every p, "
               "beta=1 (m=1) admissible exactly for p <= 2#")
