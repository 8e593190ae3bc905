import math

import numpy as np
import pytest

from ultraflow import counterexamples, flows, functionals
from ultraflow.constants import FlowSpec, Params, beta_roots, gamma_of_beta, two_star
from ultraflow.counterexamples import (
    conformal_exponent,
    deficit_rate,
    first_obstruction,
    ode_residual,
    powerlaw,
    second_obstruction,
    witness,
)
from ultraflow.discretization import GridFn, derivative
from ultraflow.errors import DomainError
from ultraflow.flows import Form, make_state
from ultraflow.functionals import deficit, dissipation_nonlinear

from conftest import cached_quadrature


def powerlaw_witness(quad, params, a, b):
    """The power-law witness w, with its beta and alpha."""
    beta, alpha, exponent = powerlaw(params)
    return witness(quad, a, b, exponent), beta, alpha


class TestExplicitFamily:
    def test_positivity_cone(self, quad5):
        # a base outside the cone a > |b| is a parameter, as the CLI says
        for a, b in ((1.0, 1.0), (0.3, 0.4), (1.0, -1.0), (math.inf, 0.0), (math.nan, 0.0)):
            with pytest.raises(DomainError):
                witness(quad5, a, b, conformal_exponent(5.0))

    def test_exponents(self):
        assert conformal_exponent(5.0) == -1.5
        for d in (2.0, 1.0):
            with pytest.raises(DomainError):
                conformal_exponent(d)

    def test_conformal_constant_at_b0(self):
        quad = cached_quadrature(4.0, 128)
        u = witness(quad, 2.0, 0.0, conformal_exponent(4.0))
        assert np.max(np.abs(u.values - 2.0 ** (-1.0))) < 1e-15

    def test_powerlaw_satisfies_its_ode(self, quad5):
        w, _, alpha = powerlaw_witness(quad5, Params(5.0, 3.25), 1.0, 0.4)
        assert ode_residual(w, alpha) <= 1e-9

    def test_powerlaw_alpha_ties_to_lower_root(self):
        params = Params(5.0, 3.25)
        beta, alpha, _ = powerlaw(params)
        assert beta == beta_roots(params).minus
        assert alpha == pytest.approx(4.0 * beta * 2.25 / 7.0, rel=1e-14)

    def test_conformal_saturates_deficit(self):
        quad = cached_quadrature(4.0, 128)
        p = two_star(4.0)
        u = witness(quad, 1.0, 0.3, conformal_exponent(4.0))
        rho = GridFn.from_values(quad, u.values**p)
        assert abs(deficit(rho, p)) <= 1e-8

    def test_u_from_w_consistency(self, quad5):
        # (1/b) w^(1-b) u'' = (alpha+b-1) |w'|^2/w and
        # (1/b) w^(1-b) |u'|^2/u = b |w'|^2/w for u = w^b, nu^2-weighted
        w, b, alpha = powerlaw_witness(quad5, Params(5.0, 3.25), 1.0, 0.4)
        u = GridFn.from_values(quad5, w.values**b)
        wp = derivative(w)
        upp = quad5.second_derivative_values(u.coeffs)
        up = derivative(u)
        ratio = wp**2 / w.values
        lhs1 = w.values ** (1.0 - b) * upp / b
        lhs2 = w.values ** (1.0 - b) * up**2 / u.values / b
        assert np.max(quad5.nu**2 * np.abs(lhs1 - (alpha + b - 1.0) * ratio)) <= 1e-9
        assert np.max(quad5.nu**2 * np.abs(lhs2 - b * ratio)) <= 1e-9


class TestFirstObstruction:
    def test_d5_witness(self):
        # the double root (d-2)/(d-3) is finite for every d > 3, also below 4
        for d in (5.0, 3.5):
            rep = first_obstruction(d, 1.0, 0.4)
            assert rep["beta"] == pytest.approx((d - 2.0) / (d - 3.0), rel=1e-14)
            assert abs(rep["nonlinear_dissipation"]) <= 1e-8
            assert abs(rep["heat_dissipation"]) <= 1e-8
            assert rep["heat_mismatch"] >= 1e-3
            assert rep["ode_residual"] <= 1e-9

    def test_ode_residual_where_the_measure_sees_it(self):
        # the nu^2-weighted nodal maximum read 0.53 at d = 30, from the node
        # z = +-0.991 whose weight is 2.4e-27
        assert first_obstruction(30.0, 1.0, 0.4)["ode_residual"] <= 1e-9

    def test_constant_datum_all_zero(self):
        # at d = 3 the exact family stands still at b = 0
        for d in (4.0, 3.0):
            rep = first_obstruction(d, 1.0, 0.0)
            assert abs(rep["nonlinear_dissipation"]) <= 1e-12
            assert abs(rep["heat_dissipation"]) <= 1e-12
            assert rep["heat_mismatch"] <= 1e-9  # spectral noise floor
            assert rep["F_increases"] is False

    def test_heat_flow_leaves_minimum(self):
        rep = first_obstruction(4.0, 1.0, 0.3)
        assert abs(rep["F_initial"]) <= 1e-9
        assert rep["F_increases"]
        assert rep["F_max"] > 1e-6

    def test_rise_of_F_reads_the_trajectory_tolerance(self, monkeypatch):
        # F_increases and the trajectory's monotonicity flag read one
        # tolerance, Trajectory.rise_tol: with TOL_MONO set so that it lies
        # above F's whole rise, neither sees a rise, and below F's largest
        # step between samples both do
        runs = []

        def recorded(*args, **kwargs):
            runs.append(flows.evolve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(counterexamples, "evolve", recorded)
        first_obstruction(4.0, 1.0, 0.3)
        traj = runs[-1]
        unit = traj.rise_tol() / flows.TOL_MONO
        rise, step = max(traj.F) - traj.F[0], max(np.diff(traj.F))
        assert 0.0 < step <= rise
        for tol_mono, rises in ((2.0 * rise / unit, False), (0.5 * step / unit, True)):
            monkeypatch.setattr(flows, "TOL_MONO", tol_mono)
            assert first_obstruction(4.0, 1.0, 0.3)["F_increases"] is rises
            assert runs[-1].monotone_decreasing_F() is not rises

    def test_d3_runs_through_critical_fast_diffusion(self):
        rep = first_obstruction(3.0, 1.0, 0.3)
        assert math.isinf(rep["beta"])
        assert abs(rep["nonlinear_dissipation"]) <= 1e-8
        assert abs(rep["heat_dissipation"]) <= 1e-8
        assert rep["heat_mismatch"] >= 1e-3

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            first_obstruction(2.5, 1.0, 0.3)


class TestSecondObstruction:
    def test_three_way_agreement_d3(self):
        rep = second_obstruction(3.0, 5.0, 1.0, 0.3)
        assert rep["dFdt_analytic"] == pytest.approx(rep["rhs"], rel=1e-8)
        assert rep["dFdt_numeric"] == pytest.approx(rep["rhs"], rel=1e-4)

    def test_agreement_across_parameter_sample(self):
        # three independent routes to the same number, across (d, p, b)
        cases = [
            (3.0, 5.0, 0.2), (3.0, 5.5, 0.4), (4.0, 3.8, 0.3),
            (5.0, 3.2, 0.3), (5.0, 3.25, 0.5), (8.0, 2.65, 0.35),
            (6.0, 2.95, 0.25), (4.0, 3.7, 0.45), (5.0, 3.3, 0.2),
            (3.0, 5.8, 0.3),
        ]
        for d, p, b in cases:
            rep = second_obstruction(d, p, 1.0, b)
            assert rep["dFdt_numeric"] == pytest.approx(rep["rhs"], rel=1e-4), (d, p, b)

    @pytest.mark.parametrize("n", [32, 128])
    def test_reads_the_heat_report(self, n):
        # J_cc and the expanded bracket come from the heat flow's dissipation
        # report at f = w^beta (its dF_dt_analytic is that of d F = 2 G)
        quad = cached_quadrature(5.0, n)
        rep = second_obstruction(5.0, 3.25, 1.0, 0.4, quad)
        w, beta, _ = powerlaw_witness(quad, Params(5.0, 3.25), 1.0, 0.4)
        f = GridFn.from_values(quad, w.values**beta)
        heat = dissipation_nonlinear(f, 3.25, 1.0)
        assert rep["J_cc"] == heat.J_cc
        assert rep["dFdt_analytic"] == heat.dF_dt_analytic / 2.0

    def test_degenerate_b0_flagged(self):
        rep = second_obstruction(5.0, 3.25, 1.0, 0.0)
        assert rep["degenerate_constant_witness"]
        assert not rep["positive"]
        assert abs(rep["rhs"]) < 1e-20

    def test_range_error(self):
        with pytest.raises(DomainError):
            second_obstruction(5.0, 3.0, 1.0, 0.4)  # below the window
        with pytest.raises(DomainError):
            second_obstruction(5.0, two_star(5.0), 1.0, 0.4)  # at the edge

    def test_difference_reads_one_evolve_run(self, monkeypatch):
        # the finite difference reads F off one heat-flow run through the
        # flows' sample path, with no scalar deficit of its own
        calls, real_evolve, real_deficit = [], counterexamples.evolve, functionals.deficit

        def evolve(*args, **kwargs):
            calls.append("evolve")
            return real_evolve(*args, **kwargs)

        def deficit(*args, **kwargs):
            calls.append("deficit")
            return real_deficit(*args, **kwargs)

        monkeypatch.setattr(counterexamples, "evolve", evolve)
        monkeypatch.setattr(counterexamples, "deficit", deficit)
        monkeypatch.setattr(functionals, "deficit", deficit)
        for n in (64, 128, 512):
            calls.clear()
            rep = second_obstruction(5.0, 3.25, 1.0, 0.4, cached_quadrature(5.0, n))
            assert calls == ["evolve"]
            assert abs(rep["dFdt_numeric"] - rep["rhs"]) <= 1e-8 * abs(rep["rhs"]), n


class TestDeficitRate:
    @pytest.mark.parametrize("beta", [0.6, 1.5])
    def test_one_difference_for_every_member(self, beta):
        # along the stepped beta-flow from w = (1 + 0.4 z)^(1/(1-alpha)),
        # alpha = (d-1) beta (p-1)/(d+2), the square of the bracket vanishes
        # and d(d F)/dt = -2 beta^2 gamma(beta) J_cc: F falls where gamma > 0
        # (beta = 1.5) and rises where gamma < 0 (beta = 0.6)
        d, p = 5.0, 3.0
        params = Params(d, p)
        quad = cached_quadrature(d, 128)
        alpha = (d - 1.0) * beta * (p - 1.0) / (d + 2.0)
        w = witness(quad, 1.0, 0.4, 1.0 / (1.0 - alpha))
        gamma = gamma_of_beta(params, beta)
        closed = -2.0 * beta**2 * gamma * dissipation_nonlinear(w, p, beta).J_cc
        rate = deficit_rate(make_state(Form.POINTWISE, FlowSpec(params, beta), w))
        assert rate == pytest.approx(closed, rel=1e-7)
        assert math.copysign(1.0, rate) == -math.copysign(1.0, gamma)
