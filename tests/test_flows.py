import math
from types import SimpleNamespace

import numpy as np
import pytest

from ultraflow import (
    DomainError,
    FlowSpec,
    Form,
    GridFn,
    Params,
    PositivityError,
    Quadrature,
    beta_roots,
    dissipation_nonlinear,
    dissipation_report,
    entropy,
    evolve,
    fisher,
    make_state,
    moment_decay_check,
    step,
    verify_exact_solution,
)
from ultraflow.discretization import RESOLUTION_TOL, random_positive
from ultraflow.errors import PositivityLossError, ResolutionError
from ultraflow import checks, flows
from ultraflow.counterexamples import conformal_coefficients
from ultraflow.flows import _full_rhs, _sample_report, convert

from conftest import cached_quadrature


def heat_state(quad, d, p, f0, form=Form.DENSITY):
    return make_state(form, FlowSpec.heat(Params(d, p)), f0)


def report_at(state):
    """The dissipation report at a flow state, from the variable it evolves:
    u = rho^(1/p) on the density form, w itself on the pointwise form."""
    p, beta = state.params.p, state.spec.beta
    if state.form is Form.POINTWISE:
        return dissipation_nonlinear(state.f, p, beta)
    u = GridFn.from_values(state.f.quad, state.f.values ** (1.0 / p))
    return dissipation_report(state.f.values, u, p, beta)


def central_difference_and_analytic(state, t_end, samples, i):
    """d times the central difference of F at sample i of a trajectory, and
    the report's dF_dt_analytic at that sample's state (the same flow run to
    its time), in the density clock: the report's rescaled-flow clock is m
    times slower."""
    traj = evolve(state, t_end, samples=samples)
    d, h = state.f.quad.d, traj.times[1] - traj.times[0]
    numeric = d * (traj.F[i + 1] - traj.F[i - 1]) / (2.0 * h)
    sampled = evolve(state, traj.times[i], samples=i + 1).final_state
    return numeric, state.spec.m * report_at(sampled).dF_dt_analytic


def ars222_unfolded(form, spec, quad, c, g0, sigma, dt):
    """ARS(2,2,2) with its explicit stages k1e, k2e and implicit stage k1i
    written out, sigma lam formed where each is used: the oracle of the
    folded second stage in ``flows._ars222``."""
    lam = quad.eigenvalues
    gamma = 1.0 - math.sqrt(0.5)
    delta = 1.0 - 1.0 / (2.0 * gamma)
    k1e = g0 + sigma * lam * c
    solve = 1.0 / (1.0 + dt * gamma * sigma * lam)
    c1 = (c + dt * gamma * k1e) * solve
    k1i = -sigma * lam * c1
    g1, _ = _full_rhs(form, spec, quad, c1)
    k2e = g1 + sigma * lam * c1
    return (c + dt * (delta * k1e + (1.0 - delta) * k2e + (1.0 - gamma) * k1i)) * solve, solve


def imex_step_unfolded(form, spec, quad, c, dt):
    """The damped, extrapolated macro step of ``flows._imex_step`` over
    ``ars222_unfolded``."""
    g0, sigma = _full_rhs(form, spec, quad, c)
    full, _ = ars222_unfolded(form, spec, quad, c, g0, sigma, dt)
    half, damp = ars222_unfolded(form, spec, quad, c, g0, sigma, 0.5 * dt)
    two, _ = ars222_unfolded(form, spec, quad, half, *_full_rhs(form, spec, quad, half), 0.5 * dt)
    return two + damp * (two - full) / 3.0


class TestHeatFlow:
    def test_eigenmode_exact(self, quad5):
        eps = 0.2
        rho0 = GridFn.from_values(quad5, 1.0 + eps * quad5.nodes)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        out = step(st, 0.3)
        exact = 1.0 + eps * quad5.nodes * math.exp(-5.0 * 0.3)
        assert np.max(np.abs(out.f.values - exact)) <= 1e-12

    def test_mass_conserved_exactly(self, quad5, rng):
        rho0 = random_positive(quad5, rng, modes=10, amplitude=0.6)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        traj = evolve(st, 1.0, samples=50)
        drift = max(abs(c - traj.conserved[0]) for c in traj.conserved)
        assert drift <= 1e-13

    def test_halved_dt_identical(self, quad5, rng):
        # diagonal exponential: no time-discretization error at all
        rho0 = random_positive(quad5, rng, modes=10, amplitude=0.6)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        one = step(step(st, 0.1), 0.1).f.values
        two = step(st, 0.2).f.values
        assert np.max(np.abs(one - two)) <= 1e-13

    def test_deficit_monotone(self, quad5, rng):
        for _ in range(10):
            rho0 = random_positive(quad5, rng, modes=10, amplitude=0.6)
            st = heat_state(quad5, 5.0, 3.0, rho0)
            traj = evolve(st, 1.0, samples=50)
            assert traj.monotone_decreasing_F()

    def test_long_time_convergence_rate(self, quad5, rng):
        rho0 = random_positive(quad5, rng, modes=10, amplitude=0.6)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        T = 1.2
        traj = evolve(st, T, samples=3)
        mean = st.conserved0
        dev0 = np.sqrt(np.sum(quad5.weights * (rho0.values - mean) ** 2))
        dev_t = np.sqrt(np.sum(quad5.weights * (traj.final_state.f.values - mean) ** 2))
        assert dev_t <= math.exp(-5.0 * T) * dev0 * (1.0 + 1e-6)

    def test_dissipation_report_consistency(self, quad5, rng):
        # a plain central difference at the recorder spacing; its accuracy
        # is set by that spacing, not by the stencil machinery of the
        # obstruction reports
        rho0 = random_positive(quad5, rng, modes=8, amplitude=0.5)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        numeric, analytic = central_difference_and_analytic(st, 0.1, 81, 40)
        assert numeric == pytest.approx(analytic, rel=1e-2)


class TestNonlinearFlows:
    def test_w_flow_monotone_and_conserving(self, quad5, rng):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec.nonlinear(params, beta)
        w0 = random_positive(quad5, rng, modes=8, amplitude=0.5)
        st = make_state(Form.POINTWISE, spec, w0)
        traj = evolve(st, 0.5, samples=40)
        assert traj.monotone_decreasing_F()
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-9

    def test_fde_d3_p6_special_case(self, rng):
        quad = cached_quadrature(3.0, 128)
        spec = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
        assert spec.beta_is_infinite
        rho0 = random_positive(quad, rng, modes=8, amplitude=0.4)
        st = make_state(Form.DENSITY, spec, rho0)
        traj = evolve(st, 0.5, samples=40)
        assert traj.monotone_decreasing_F()
        # density forms conserve mass structurally
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-13

    def test_w_form_rejects_infinite_beta(self, rng):
        quad = cached_quadrature(3.0, 64)
        spec = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
        with pytest.raises(DomainError):
            make_state(Form.POINTWISE, spec, GridFn.constant(quad, 1.0))

    def test_order_three_on_exact_solution(self):
        d = 4.0
        quad = cached_quadrature(4.0, 96)
        # p = 2*(4) = 4, where the critical fast diffusion m = 1 - 1/d applies
        spec = FlowSpec.nonlinear_from_m(Params(d, 4.0), 1.0 - 1.0 / d)
        T = 0.25

        def exact(t):
            a, b = conformal_coefficients(d, 1.0, 0.5, t)
            return GridFn.from_values(quad, (a + b * quad.nodes) ** (-d))

        errs = []
        for ndt in (50, 100):
            st = make_state(Form.DENSITY, spec, exact(0.0))
            for _ in range(ndt):
                st = step(st, T / ndt)
            errs.append(np.max(np.abs(st.f.values - exact(T).values)))
        ratio = errs[0] / errs[1]
        assert 7.0 <= ratio <= 9.0  # order 3: 8 per halving (7.84 measured)

    def test_density_form_is_third_order(self):
        # halving dt_max cuts the coefficient error 8x; plain ARS(2,2,2)
        # gives 4x here
        quad = cached_quadrature(5.0, 64)
        params = Params(5.0, 3.3)
        spec = FlowSpec.nonlinear(params, beta_roots(params).minus)
        rho0 = random_positive(quad, np.random.default_rng(7), modes=8, amplitude=0.5)
        st = make_state(Form.DENSITY, spec, rho0)

        def final(dt_max):
            traj = evolve(st, 0.02, samples=2, dt_max=dt_max)
            return traj.final_state.f.coeffs

        ref = final(6.25e-6)
        errs = [np.linalg.norm(final(h) - ref) for h in (4e-4, 2e-4, 1e-4, 5e-5)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 7.0

    def test_damped_extrapolation_never_amplifies(self, monkeypatch):
        # the linear problem c' = -r sigma lam c with implicit part sigma lam,
        # z = dt sigma lam: the damped macro step keeps every mode |R| <= 1,
        # the plain Richardson combination of the same steps does not
        sigma, r_values = 2.0, np.linspace(0.01, 1.0, 100)
        z = np.logspace(-3.0, 9.0, 241)
        quad = SimpleNamespace(eigenvalues=z / sigma)  # dt = 1
        c = np.ones_like(z)
        undamped = 0.0
        for r in r_values:
            def rhs(form, spec, q, x, r=r):
                return -r * sigma * q.eigenvalues * x, sigma

            monkeypatch.setattr(flows, "_full_rhs", rhs)
            assert np.all(np.abs(flows._imex_step(Form.DENSITY, None, quad, c, 1.0)) <= 1.0)
            g0, _ = rhs(None, None, quad, c)
            sl = sigma * quad.eigenvalues
            full, _ = flows._ars222(Form.DENSITY, None, quad, c, g0, sl, 1.0)
            half, _ = flows._ars222(Form.DENSITY, None, quad, c, g0, sl, 0.5)
            two, _ = flows._ars222(Form.DENSITY, None, quad, half, rhs(None, None, quad, half)[0],
                                   sl, 0.5)
            undamped = max(undamped, float(np.max(np.abs(two + (two - full) / 3.0))))
        assert 1.6 < undamped < 1.7

    @pytest.mark.parametrize("dt", [1e-4, 1e-3])
    @pytest.mark.parametrize("flow", ["fde", "u", "w"])
    def test_folded_stage_matches_unfolded_tableau(self, flow, dt):
        # gamma - delta = 1 folds the second stage's k1i and k2e together:
        # 20 macro steps each way, from the README datum perturb:0.3,2,
        # stay within rounding of each other
        form, beta = FLOWS[flow]
        quad = cached_quadrature(5.0, 64)
        spec = FlowSpec.nonlinear(Params(5.0, 3.3), beta)
        c = np.zeros(quad.n)
        c[0], c[2] = 1.0, 0.3
        folded = unfolded = c
        for _ in range(20):
            folded = flows._imex_step(form, spec, quad, folded, dt)
            unfolded = imex_step_unfolded(form, spec, quad, unfolded, dt)
            assert np.linalg.norm(folded - unfolded) <= 1e-13 * np.linalg.norm(unfolded)

    def test_fde_accuracy_under_default_controller(self):
        # fde at the README w point: the default controller's final F against
        # the same flow at dt_max = 1e-4 (3.9e-6 measured; 2.6e-3 at second
        # order)
        quad = cached_quadrature(5.0, 64)
        spec = FlowSpec.nonlinear(Params(5.0, 3.3), 1.2126712652)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3  # perturb:0.3,2
        st = make_state(Form.DENSITY, spec, GridFn.from_coeffs(quad, coeffs))
        default = evolve(st, 0.4).F[-1]
        fine = evolve(st, 0.4, dt_max=1e-4).F[-1]
        assert default == pytest.approx(fine, rel=1e-5)

    def test_readme_w_point_takes_a_tenth_of_the_steps(self, monkeypatch):
        # the README w run took 71,770 accepted ARS(2,2,2) steps; the macro
        # step needs 1,371 attempts
        quad = cached_quadrature(5.0, 128)
        spec = FlowSpec.nonlinear(Params(5.0, 3.3), 1.2126712652)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3
        st = make_state(Form.POINTWISE, spec, GridFn.from_coeffs(quad, coeffs))
        attempts = 0
        macro_step = flows._imex_step

        def counted(*args):
            nonlocal attempts
            attempts += 1
            return macro_step(*args)

        monkeypatch.setattr(flows, "_imex_step", counted)
        traj = evolve(st, 0.4)
        assert attempts <= 7177
        assert traj.monotone_decreasing_F()
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-9


class TestFormEquivalence:
    def test_u_linear_matches_heat_density(self, rng):
        quad = cached_quadrature(4.0, 96)
        u0 = random_positive(quad, rng, modes=8, amplitude=0.5)
        st_u = heat_state(quad, 4.0, 3.0, u0, form=Form.POINTWISE)
        traj_u = evolve(st_u, 0.25, samples=5, dt_max=2e-4)
        rho0 = GridFn.from_values(quad, u0.values**3)
        st_r = heat_state(quad, 4.0, 3.0, rho0)
        traj_r = evolve(st_r, 0.25, samples=5)
        diff = np.sqrt(
            np.sum(quad.weights * (traj_u.final_state.f.values**3 - traj_r.final_state.f.values) ** 2)
        )
        assert diff <= 1e-7

    def test_w_nonlinear_matches_fde_with_m_clock(self, rng):
        quad = cached_quadrature(5.0, 96)
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec.nonlinear(params, beta)
        w0 = random_positive(quad, rng, modes=6, amplitude=0.4)
        t_rho = 0.1
        st_w = make_state(Form.POINTWISE, spec, w0)
        traj_w = evolve(st_w, spec.m * t_rho, samples=5, dt_max=2e-4)
        rho0 = GridFn.from_values(quad, w0.values ** (beta * params.p))
        st_r = make_state(Form.DENSITY, spec, rho0)
        traj_r = evolve(st_r, t_rho, samples=5, dt_max=2e-4)
        diff = np.sqrt(
            np.sum(
                quad.weights
                * (traj_w.final_state.f.values ** (beta * params.p) - traj_r.final_state.f.values) ** 2
            )
        )
        assert diff <= 1e-7

    def test_density_form_report_carries_clock_factor(self, rng):
        # the analytic dissipation lives on the rescaled-flow clock; on a
        # density-form trajectory it must be scaled by m to match the
        # finite difference of the recorded deficit
        quad = cached_quadrature(5.0, 96)
        params = Params(5.0, 3.3)
        spec = FlowSpec.nonlinear(params, beta_roots(params).minus)
        rho0 = random_positive(quad, rng, modes=6, amplitude=0.4)
        state = make_state(Form.DENSITY, spec, rho0)
        numeric, analytic = central_difference_and_analytic(state, 0.08, 81, 40)
        assert numeric == pytest.approx(analytic, rel=1e-2)

    def test_u_linear_rhs_is_w_nonlinear_at_beta_one(self, quad5, rng):
        # the pointwise right-hand side at beta = 1 is, to the last bit, the
        # u form of the heat flow: -lam c + project((p-1) nu u'^2 / u), sigma 1
        for p in (1.5, 3.0, 3.3):
            c = random_positive(quad5, rng, modes=10, amplitude=0.6).coeffs
            g, sigma = _full_rhs(Form.POINTWISE, FlowSpec.heat(Params(5.0, p)), quad5, c)
            dvals, vals = quad5.padded_derivative(c), quad5.padded_values(c)
            nl = (p - 1.0) * quad5.padded_nu() * dvals**2 / vals
            assert sigma == 1.0
            assert np.array_equal(g, -quad5.eigenvalues * c + quad5.project_padded(nl))

    def test_general_pointwise_rhs_next_to_beta_one(self, rng):
        # the general branch (mobility w^(2-2b), L w synthesized) one ulp
        # above beta = 1 agrees with the beta = 1 branch to rounding
        quad = cached_quadrature(5.0, 128)
        params = Params(5.0, 3.0)
        c = random_positive(quad, rng, modes=10, amplitude=0.6).coeffs
        g1, sigma1 = _full_rhs(Form.POINTWISE, FlowSpec.heat(params), quad, c)
        beta = np.nextafter(1.0, 2.0)
        g, sigma = _full_rhs(Form.POINTWISE, FlowSpec.nonlinear(params, beta), quad, c)
        assert sigma == pytest.approx(sigma1, rel=1e-13)
        assert np.max(np.abs(g - g1)) <= 1e-13 * np.max(np.abs(g1))

    def test_conversion_helpers_roundtrip(self, quad5, rng):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec.nonlinear(params, beta)
        w0 = random_positive(quad5, rng, modes=6, amplitude=0.4)
        st_w = make_state(Form.POINTWISE, spec, w0)
        st_w = st_w.__class__(0.3, st_w.f, st_w.form, st_w.spec, st_w.conserved0)
        st_rho = convert(st_w, Form.DENSITY)
        assert st_rho.form is Form.DENSITY
        assert st_rho.t == pytest.approx(0.3 / spec.m)
        back = convert(st_rho, Form.POINTWISE)
        assert back.t == pytest.approx(0.3)
        assert np.max(np.abs(back.f.values - w0.values)) < 1e-12
        # the heat pair shares its clock (m = 1)
        st_heat = convert(make_state(Form.POINTWISE, FlowSpec.heat(params), w0, 0.3), Form.DENSITY)
        assert st_heat.t == 0.3
        assert np.array_equal(st_heat.f.values, w0.values**params.p)


#: the four flows of the CLI as (form, beta) at (d, p) = (5, 3.3): the heat
#: flow is beta = 1, the fde and w flows run at the lower root
FLOWS = {
    "heat": (Form.DENSITY, 1.0),
    "fde": (Form.DENSITY, beta_roots(Params(5.0, 3.3)).minus),
    "u": (Form.POINTWISE, 1.0),
    "w": (Form.POINTWISE, beta_roots(Params(5.0, 3.3)).minus),
}


class TestSampleReports:
    """One evaluation per sample: a sample's E_p and I_p are those of the
    dissipation report at its state, built from the variable the flow
    evolves."""

    @staticmethod
    def _state(flow, rng, n=64):
        form, beta = FLOWS[flow]
        quad = cached_quadrature(5.0, n)
        spec = FlowSpec.nonlinear(Params(5.0, 3.3), beta)
        return make_state(form, spec, random_positive(quad, rng, modes=6, amplitude=0.4))

    @pytest.mark.parametrize("flow", list(FLOWS))
    def test_trajectory_values_are_the_reports(self, flow, rng):
        state = self._state(flow, rng)
        traj = evolve(state, 0.004, samples=4, dt_max=2e-4)
        for i, st in ((0, state), (-1, traj.final_state)):
            rep = report_at(st)
            assert (traj.E_p[i], traj.I_p[i], traj.F[i]) == (rep.E_p, rep.I_p, rep.F)

    def test_density_report_reads_rho_directly(self, rng):
        # no rho -> w -> rho round trip: the report's functionals are those
        # of the evolved density itself, to the last bit
        state = self._state("fde", rng, n=128)
        assert _sample_report(state, state.f.values) == (entropy(state.f, 3.3),
                                                         fisher(state.f, 3.3))

    @staticmethod
    def _counted_transforms(monkeypatch, counting=lambda: True):
        """The names of the transforms called from now on while ``counting()``."""
        calls = []
        for name in ("to_values", "to_coeffs", "derivative_values", "second_derivative_values"):
            original = getattr(Quadrature, name)

            def counted(quad, x, original=original, name=name):
                if counting():
                    calls.append(name)
                return original(quad, x)

            monkeypatch.setattr(Quadrature, name, counted)
        return calls

    @classmethod
    def _transforms(cls, state, monkeypatch):
        calls = cls._counted_transforms(monkeypatch)
        _sample_report(state, state.f.values)
        return calls

    def test_heat_sample_costs_one_transform(self, rng, monkeypatch):
        # u = rho^(1/p) analysed once; I_p is read off its coefficients
        calls = self._transforms(self._state("heat", rng), monkeypatch)
        assert calls == ["to_coeffs"], calls

    def test_fde_sample_costs_one_transform(self, rng, monkeypatch):
        # w = rho^(1/(beta p)) is never formed: I_p needs u's coefficients alone
        calls = self._transforms(self._state("fde", rng), monkeypatch)
        assert calls == ["to_coeffs"], calls

    @pytest.mark.parametrize("flow, per_sample", [("heat", 1), ("fde", 1), ("u", 0), ("w", 1)])
    def test_sample_transforms_through_evolve(self, flow, per_sample, rng, monkeypatch):
        # transforms outside the stepping: a sample forms rho = w^(beta p)
        # once and differentiates nothing (u = w at beta = 1, else
        # u = w^beta analysed once)
        state = self._state(flow, rng)
        stepping = []
        calls = self._counted_transforms(monkeypatch, lambda: not stepping)
        advance = flows._advance_to

        def stepped(*args):
            stepping.append(True)
            try:
                return advance(*args)
            finally:
                stepping.pop()

        monkeypatch.setattr(flows, "_advance_to", stepped)
        evolve(state, 0.002, samples=3, dt_max=2e-4)
        assert len(calls) == 3 * per_sample, calls

    @pytest.mark.parametrize("flow", list(FLOWS))
    def test_unresolved_datum_raises_on_every_flow(self, flow):
        # the top mode carries 100x the resolution tolerance: every sample
        # reads I_p off u's coefficients under the resolution check, so
        # evolve refuses the datum at its first sample
        form, beta = FLOWS[flow]
        quad = cached_quadrature(5.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[-1] = 1.0, 100.0 * RESOLUTION_TOL
        state = make_state(form, FlowSpec.nonlinear(Params(5.0, 3.3), beta),
                           GridFn.from_coeffs(quad, coeffs))
        with pytest.raises(ResolutionError):
            evolve(state, 0.002, samples=3, dt_max=2e-4)

    @pytest.mark.parametrize("flow", ["fde", "u", "w"])
    def test_drift_baseline_synthesized_once(self, flow, rng, monkeypatch):
        # every completed macro step synthesizes its trial once; the drift
        # baseline is synthesized once per evolve and then carried from the
        # last accepted step, not once per sample segment
        state = self._state(flow, rng)
        steps = 0
        macro_step = flows._imex_step

        def counted(*args):
            nonlocal steps
            out = macro_step(*args)
            steps += 1
            return out

        monkeypatch.setattr(flows, "_imex_step", counted)
        calls = self._counted_transforms(monkeypatch)
        evolve(state, 0.002, samples=5, dt_max=2e-4)
        assert calls.count("to_values") == steps + 1, (calls.count("to_values"), steps)

    @pytest.mark.parametrize("beta", [beta_roots(Params(5.0, 3.3)).minus, 1e4, 1e7])
    def test_dissipation_integrals_at_large_beta(self, beta):
        # rho = (1 + 0.4 z)^-3, so w = rho^(1/(beta p)) = (1 + 0.4 z)^a with
        # a = -3/(beta p) and closed-form w', w''; differentiating the nodal
        # w loses its shape as beta grows (w -> 1), the chain rule through u
        # does not
        quad = cached_quadrature(5.0, 128)
        base = 1.0 + 0.4 * quad.nodes
        rho = base**-3.0
        rep = dissipation_report(rho, GridFn.from_values(quad, rho ** (1.0 / 3.3)), 3.3, beta)
        a = -3.0 / (beta * 3.3)
        w, wp, wpp = base**a, 0.4 * a * base ** (a - 1.0), 0.16 * a * (a - 1.0) * base ** (a - 2.0)
        w2 = quad.weights * quad.nu**2
        exact = (np.sum(w2 * wpp**2), np.sum(w2 * wpp * wp**2 / w), np.sum(w2 * wp**4 / w**2))
        assert (rep.J_ff, rep.J_fc, rep.J_cc) == pytest.approx(exact, rel=1e-10, abs=0.0)


class TestMomentDecay:
    def test_even_data_moment_stays_zero(self):
        quad = cached_quadrature(4.0, 64)
        u0 = GridFn.from_values(quad, 1.0 + 0.3 * quad.nodes**2)
        st = heat_state(quad, 4.0, 3.0, u0, form=Form.POINTWISE)
        rep = moment_decay_check(st, 1.0)
        assert rep["max_abs_moment"] <= 1e-11

    def test_zeroed_moment_stays_zero(self):
        from scipy.optimize import brentq

        quad = cached_quadrature(4.0, 64)
        z = quad.nodes

        def mom(r):
            u = 1.0 + (0.1 + r) * z + 0.05 * z**2
            return float(np.sum(quad.weights * z * np.abs(u) ** 3))

        r = brentq(mom, -0.5, 0.5, xtol=1e-15)
        u0 = GridFn.from_values(quad, 1.0 + (0.1 + r) * z + 0.05 * z**2)
        st = heat_state(quad, 4.0, 3.0, u0, form=Form.POINTWISE)
        rep = moment_decay_check(st, 1.0)
        assert rep["max_abs_moment"] <= 1e-10

    def test_check_takes_few_steps(self, monkeypatch):
        # the step controller, not a dt cap, chooses the steps: 192 measured
        attempts = 0
        macro_step = flows._imex_step

        def counted(*args):
            nonlocal attempts
            attempts += 1
            return macro_step(*args)

        monkeypatch.setattr(flows, "_imex_step", counted)
        assert all(passed for _, passed, _ in checks.moment_decay())
        assert attempts <= 400

    @pytest.mark.parametrize("d", [5.0, 12.0, 30.0])
    def test_law_at_p_one(self, d):
        # the conserved mass is kept exactly by every step, so the drift
        # budget never limits dt; only the sample spacing does
        ((_, passed, dev),) = checks.moment_decay(d=d, p=1.0)
        assert passed, dev

    def test_requires_pointwise_form(self, quad5, rng):
        rho0 = random_positive(quad5, rng, modes=6)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        with pytest.raises(DomainError):
            moment_decay_check(st, 0.5)


class TestExactSolution:
    def test_hyperbolic_identity(self):
        for t in np.linspace(0.0, 2.0, 7):
            a, b = conformal_coefficients(4.0, 1.3, 0.4, float(t))
            assert a * a - b * b == pytest.approx(1.3**2, rel=1e-13)
            assert a > abs(b)

    def test_rejects_flat_dimensions(self):
        with pytest.raises(DomainError):
            verify_exact_solution(2.0, 1.0, 0.5, 1.0)

    def test_rejects_bad_integration_constants(self):
        with pytest.raises(DomainError):
            conformal_coefficients(4.0, -1.0, 0.5, 0.0)


class TestGuards:
    def test_positivity_loss_raises(self):
        quad = cached_quadrature(3.0, 64)
        # forced sign change: mode-1 perturbation too large to stay positive
        coeffs = np.zeros(quad.n)
        coeffs[0] = 1.0
        coeffs[1] = 2.0
        rho0 = GridFn.from_coeffs(quad, coeffs)
        with pytest.raises(PositivityError):
            make_state(Form.DENSITY, FlowSpec.heat(Params(3.0, 3.0)), rho0)

    def test_degenerate_dt(self, quad5, rng):
        st = heat_state(quad5, 5.0, 3.0, random_positive(quad5, rng, modes=6))
        with pytest.raises(DomainError):
            step(st, 0.0)

    def test_fde_positivity_guard_on_evaluation_grid(self):
        # positive at the base nodes but negative on the padded evaluation
        # grid: the right-hand side refuses it, the controller collapses dt
        # and reports the loss instead of clamping
        quad = cached_quadrature(3.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0] = 1.0
        coeffs[quad.n - 2] = 0.3
        rho0 = GridFn.from_coeffs(quad, coeffs)
        assert rho0.is_positive()
        spec = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
        st = make_state(Form.DENSITY, spec, rho0)
        with pytest.raises(PositivityError):
            step(st, 1e-4)
        with pytest.raises((PositivityLossError, PositivityError)):
            flows._advance_to(st, 0.5, 0.5 / 64, math.inf, flows.TOL_CONS, 0.5, None)
