import math

import numpy as np
import pytest

from ultraflow import (
    DomainError,
    ExplicitFamily,
    GridFn,
    Params,
    PositivityError,
    beta_roots,
    deficit,
    dissipation_nonlinear,
    first_obstruction,
    materialize,
    second_obstruction,
    two_star,
)
from ultraflow.counterexamples import ode_residual
from ultraflow.discretization import derivative, second_derivative

from conftest import cached_quadrature


class TestExplicitFamily:
    def test_positivity_cone(self):
        with pytest.raises(PositivityError):
            ExplicitFamily.conformal(Params(4.0, 4.0), 1.0, 1.0)
        with pytest.raises(PositivityError):
            ExplicitFamily.powerlaw(Params(5.0, 3.25), 0.3, 0.4)

    def test_conformal_constant_at_b0(self):
        quad = cached_quadrature(4.0, 128)
        fam = ExplicitFamily.conformal(Params(4.0, 4.0), 2.0, 0.0)
        u = materialize(fam, quad)
        assert np.max(np.abs(u.values - 2.0 ** (-1.0))) < 1e-15

    def test_powerlaw_satisfies_its_ode(self, quad5):
        fam = ExplicitFamily.powerlaw(Params(5.0, 3.25), 1.0, 0.4)
        w = materialize(fam, quad5)
        assert ode_residual(w, fam.alpha) <= 1e-9

    def test_powerlaw_alpha_ties_to_lower_root(self):
        params = Params(5.0, 3.25)
        fam = ExplicitFamily.powerlaw(params, 1.0, 0.4)
        beta = beta_roots(params).minus
        assert fam.beta == beta
        assert fam.alpha == pytest.approx(4.0 * beta * 2.25 / 7.0, rel=1e-14)

    def test_conformal_saturates_deficit(self):
        quad = cached_quadrature(4.0, 128)
        p = two_star(4.0)
        fam = ExplicitFamily.conformal(Params(4.0, p), 1.0, 0.3)
        u = materialize(fam, quad)
        rho = GridFn.from_values(quad, u.values**p)
        assert abs(deficit(rho, p)) <= 1e-8

    def test_dimension_mismatch(self):
        quad = cached_quadrature(4.0, 64)
        fam = ExplicitFamily.conformal(Params(5.0, 3.0), 1.0, 0.3)
        with pytest.raises(DomainError):
            materialize(fam, quad)

    def test_u_from_w_consistency(self, quad5):
        # (1/b) w^(1-b) u'' = (alpha+b-1) |w'|^2/w and
        # (1/b) w^(1-b) |u'|^2/u = b |w'|^2/w for u = w^b, nu^2-weighted
        fam = ExplicitFamily.powerlaw(Params(5.0, 3.25), 1.0, 0.4)
        w = materialize(fam, quad5)
        b = fam.beta
        u = GridFn.from_values(quad5, w.values**b)
        wp = derivative(w)
        upp = second_derivative(u)
        up = derivative(u)
        ratio = wp**2 / w.values
        lhs1 = w.values ** (1.0 - b) * upp / b
        lhs2 = w.values ** (1.0 - b) * up**2 / u.values / b
        assert np.max(quad5.nu**2 * np.abs(lhs1 - (fam.alpha + b - 1.0) * ratio)) <= 1e-9
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
        fam = ExplicitFamily.powerlaw(Params(5.0, 3.25), 1.0, 0.4)
        f = GridFn.from_values(quad, materialize(fam, quad).values ** fam.beta)
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

