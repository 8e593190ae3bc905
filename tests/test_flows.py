import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from ultraflow import checks, cli, flows
from ultraflow.cli import parse_init
from ultraflow.constants import FlowSpec, Params, beta_roots, classify_region
from ultraflow.counterexamples import conformal_coefficients
from ultraflow.discretization import (
    RESOLUTION_TOL,
    GridFn,
    Quadrature,
    random_positive,
    resolution_fraction,
)
from ultraflow.errors import (ConservationError, DomainError, FlowError, PositivityError,
                              PositivityLossError, ResolutionError)
from ultraflow.flows import Form, _full_rhs, _sample_report, evolve, make_state
from ultraflow.functionals import dissipation_nonlinear, dissipation_report, entropy, fisher

from conftest import cached_quadrature, holds, traced_peak


def heat_state(quad, d, p, f0, form=Form.DENSITY):
    return make_state(form, FlowSpec.heat(Params(d, p)), f0)


def exact_at(rho, t0, t):
    """The exact heat flow's density at t from the density rho at t0."""
    return GridFn.from_coeffs(rho.quad, next(flows._exact(rho, np.array([t - t0])))[:, 0])


def stepped_exactly(monkeypatch):
    """Runs the heat flow down the stepped flow's path: ``evolve`` takes it
    for a stepped flow, and the step to each sample ends there, on the
    exact flow's coefficients from the datum (the first step's end)."""
    datum = []

    def advance(spec, step, s_target, s_end, h, h_max):
        datum[:] = datum or [step[3]]
        end = SimpleNamespace(coeffs=next(flows._exact(datum[0], np.array([s_target])))[:, 0])
        return None, (0.0, s_target, None, end), h

    monkeypatch.setattr(flows, "integrates_exactly", lambda spec: False)
    monkeypatch.setattr(flows, "_advance_to", advance)


def fixed_steps(spec, rho0, t_end, steps):
    """Coefficients of the density flow from rho0 after ``steps`` equal
    ETDRK4 steps to t_end, each m t_end / steps on the clock s."""
    c = rho0.coeffs
    for _ in range(steps):
        c = flows._imex_step(Form.DENSITY, spec, rho0.quad, c, spec.m * (t_end / steps))[0]
    return c


def density_report(quad, rho, p, beta):
    """The dissipation report of the nodal density rho, through u = rho^(1/p)."""
    return dissipation_report(rho, GridFn.from_values(quad, rho ** (1.0 / p)), p, beta)


def report_at(state):
    """The dissipation report at a flow state, from the function it holds:
    u = rho^(1/p) on the density form, w itself on the pointwise form."""
    p, beta = state.params.p, state.spec.beta
    if state.form is Form.POINTWISE:
        return dissipation_nonlinear(state.f, p, beta)
    return density_report(state.f.quad, state.f.values, p, beta)


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


class TestHeatFlow:
    def test_eigenmode_exact(self, quad5):
        eps = 0.2
        rho0 = GridFn.from_values(quad5, 1.0 + eps * quad5.nodes)
        st = heat_state(quad5, 5.0, 3.0, rho0)
        out = evolve(st, 0.3, samples=2).final_state
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
        one = exact_at(exact_at(rho0, 0.0, 0.1), 0.1, 0.2).values
        two = exact_at(rho0, 0.0, 0.2).values
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


class TestExactSamples:
    """The exact heat flow hands ``evolve`` its later samples' coefficients
    in stacks of at most ``flows._BLOCK``; ``evolve`` synthesizes each stack
    in one product and records it with one stacked report, and the first
    failing sample decides the error, down the exact flow's path and down
    the stepped flow's (``stepped_exactly``) alike."""

    @pytest.mark.parametrize("n", [128, 512])
    def test_stacked_samples_match_stepped_ones(self, n, rng):
        # against one exact step from the datum to each sample and the same
        # report of one vector, on both forms.  With one block: within a
        # rounding bound, n eps / 4 of each column's scale.  The scale is
        # the column's largest magnitude, but |I|/d + |E| for F = I/d - E,
        # which cancels, and the mass for the moment int z rho.  Over the
        # datum seeds 0-29 and the fixture's, at n = 128 and 512, the worst
        # error is 0.16 n eps of the scale.  Within 1e-13 of each column's
        # largest with three blocks, whose early samples still carry top
        # modes that the stacked and the single analysis of u round
        # differently (3.6e-14 on F at n = 512)
        quad = cached_quadrature(5.0, n)
        datum = random_positive(quad, rng, modes=8, amplitude=0.5)
        for form in (Form.DENSITY, Form.POINTWISE):
            state = heat_state(quad, 5.0, 3.0, datum, form=form)
            rho0 = flows._density(state)
            for samples in (11, 2 * flows._BLOCK + 11):
                traj = evolve(state, 1.0, samples=samples)
                rows = []
                for k, t in enumerate(traj.times):
                    rho = exact_at(rho0, state.t, t) if k else rho0
                    e, i = _sample_report(state, rho.values)
                    rows.append((i / 5.0 - e, e, i, quad.weights @ rho.values,
                                 quad.z_weights @ rho.values))
                expected = np.array(rows)
                got = np.column_stack([traj.F, traj.E_p, traj.I_p, traj.conserved,
                                       traj.moment_z])
                size = np.abs(expected).max(axis=0)
                if samples == 11:
                    f_terms = (np.abs(expected[:, 2]) / 5.0 + np.abs(expected[:, 1])).max()
                    tol = 0.25 * n * np.finfo(float).eps * np.array(
                        [f_terms, size[1], size[2], size[3], size[3]])
                else:
                    tol = 1e-13 * size
                assert np.all(np.abs(got - expected) <= tol)
                final, last = traj.final_state, flows._from_density(form, state.spec, rho)
                assert (final.t, final.form) == (1.0, form)
                scale = np.abs(last.values).max()
                assert np.max(np.abs(final.f.values - last.values)) <= 1e-14 * scale

    @staticmethod
    def _dipping_datum(top=0.0):
        """1 + 1e4 r at the 16 nodes, r vanishing at all but the last three:
        1e4 r dips below -1 between the nodes, and the flow carries the dip
        onto them from t = 0.0013 to 0.0039 (p = 1, so the report is of rho
        itself).  ``top`` adds that much of the norm to the top mode."""
        quad = cached_quadrature(5.0, 16)
        x = quad.nodes
        r = np.prod([x - xi for xi in x[:-3]], axis=0)
        coeffs = quad.to_coeffs(1.0 + 1e4 * r)
        coeffs[-1] += top * np.linalg.norm(coeffs)
        return heat_state(quad, 5.0, 1.0, GridFn.from_coeffs(quad, coeffs))

    def test_positivity_loss_at_the_first_failing_sample(self):
        state = self._dipping_datum()
        times = np.linspace(0.0, 0.004, 5)
        with pytest.raises(PositivityLossError) as err:
            evolve(state, 0.004, samples=5)
        assert err.value.t == times[2]
        # the sample before it is recorded and positive
        assert evolve(state, times[1], samples=2).final_state.f.is_positive()

    @pytest.mark.parametrize("form", [Form.DENSITY, Form.POINTWISE])
    def test_huge_step_returns_the_mean(self, form, quad5, rng):
        # lam dt overflows to inf in every mode but the first, e^(-inf) = 0:
        # the state is the density's mean, with no overflow warning
        # (warnings are errors here)
        st = heat_state(quad5, 5.0, 3.0, random_positive(quad5, rng, modes=8), form=form)
        mean = st.conserved0 if form is Form.DENSITY else st.conserved0 ** (1.0 / 3.0)
        out = evolve(st, 1e307, samples=2).final_state
        assert out.t == 1e307
        assert np.array_equal(out.f.values, np.full(quad5.n, out.f.values[0]))
        assert out.f.values[0] == pytest.approx(mean, rel=1e-14)

    def test_earlier_resolution_error_wins(self):
        # the datum is unresolved and the later samples lose positivity:
        # the datum's sample is recorded first
        state = self._dipping_datum(top=100.0 * RESOLUTION_TOL)
        assert resolution_fraction(state.f.coeffs) > RESOLUTION_TOL
        with pytest.raises(ResolutionError):
            evolve(state, 0.004, samples=5)

    @staticmethod
    def _first_loss(state, times):
        """The index of the first time at which one exact step from the
        datum loses positivity."""
        rho0 = flows._density(state)
        for k, t in enumerate(times[1:], start=1):
            if not exact_at(rho0, state.t, t).is_positive():
                return k
        return None

    def test_positivity_loss_in_a_later_block(self, monkeypatch):
        # 301 samples: the dip reaches the nodes in the second block, and
        # the error carries the first failing sample's time, on either path
        state = self._dipping_datum()
        times = np.linspace(0.0, 0.004, 301)
        k = self._first_loss(state, times)
        assert flows._BLOCK < k <= 2 * flows._BLOCK
        for stepped in (False, True):
            with monkeypatch.context() as patch:
                if stepped:
                    stepped_exactly(patch)
                with pytest.raises(PositivityLossError) as err:
                    evolve(state, 0.004, samples=301)
            assert err.value.t == times[k]

    @pytest.mark.parametrize("samples", [101, 201])
    def test_earlier_resolution_error_wins_across_blocks(self, samples, monkeypatch):
        # u0 = 1 + 200 r at p = 2 is resolved, but u = rho^(1/2) is not at
        # any later sample: the first sample's ResolutionError wins over the
        # loss of positivity later in its block (101 samples) or in the
        # next block (201), on either path
        quad = cached_quadrature(5.0, 16)
        x = quad.nodes
        u0 = GridFn.from_values(quad, 1.0 + 200.0 * np.prod([x - xi for xi in x[:-3]], axis=0))
        state = heat_state(quad, 5.0, 2.0, u0, form=Form.POINTWISE)
        assert resolution_fraction(state.f.coeffs) < RESOLUTION_TOL
        times = np.linspace(0.0, 0.0008, samples)
        loss = self._first_loss(state, times)
        assert 1 < loss and (loss > flows._BLOCK) == (samples > 101)
        rho1 = exact_at(flows._density(state), 0.0, times[1])
        u1 = flows._from_density(state.form, state.spec, rho1)
        assert resolution_fraction(u1.coeffs) > RESOLUTION_TOL
        for stepped in (False, True):
            with monkeypatch.context() as patch:
                if stepped:
                    stepped_exactly(patch)
                with pytest.raises(ResolutionError):
                    evolve(state, 0.0008, samples=samples)

    def test_working_memory_is_bounded_by_the_block(self, rng):
        # 4,000 samples at n = 256: the blocks hold 64 columns, where two
        # (n, 3999) stacks alone would take 16 MB
        quad = cached_quadrature(5.0, 256)
        state = heat_state(quad, 5.0, 3.0, random_positive(quad, rng, modes=8, amplitude=0.5))
        traj, peak = traced_peak(lambda: evolve(state, 1.0, samples=4000))
        assert len(traj.F) == 4000
        assert peak < 4 * 2**20, peak


class TestNonlinearFlows:
    def test_w_flow_monotone_and_conserving(self, quad5, rng):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec(params, beta)
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

    def test_controller_is_scale_free(self, rng, monkeypatch):
        # the controller reads both of its norms off vectors scaled by the
        # power of two of the mass coefficient: the m = 1 member, run down the
        # stepped path, takes the same steps from a datum times 2^600,
        # whose squares overflow a float, as from the datum, and both land
        # on the exact heat flow
        quad = cached_quadrature(5.0, 64)
        datum = random_positive(quad, rng, modes=6, amplitude=0.4).coeffs
        imex_step, attempts = flows._imex_step, []

        def counted(*args):
            attempts[-1] += 1
            return imex_step(*args)

        for k in (0, 600):
            state = heat_state(quad, 5.0, 3.0, GridFn.from_coeffs(quad, datum * 2.0**k))
            exact = np.array(evolve(state, 0.1, samples=5).F)
            with monkeypatch.context() as patch:
                patch.setattr(flows, "integrates_exactly", lambda spec: False)
                patch.setattr(flows, "_imex_step", counted)
                attempts.append(0)
                stepped = np.array(evolve(state, 0.1, samples=5).F)
            assert np.max(np.abs(stepped - exact)) <= 1e-13 * exact[0]
        assert attempts[0] == attempts[1] > 0

    @pytest.mark.parametrize("k", [600, 830, -30])
    def test_controller_decisions_are_scale_free(self, k, rng, monkeypatch):
        # a linear right-hand side G = -2 lam c split with sigma = 1 leaves
        # ETDRK4 the nonlinear part N = -lam c, whose local-error estimate
        # limits the steps and scales with the state bit for bit: from the
        # datum times 2^k the controller must try the same step sizes and
        # reject the same attempts as from the datum, at 2^830 (about
        # 7e249) too, where the squares of the coefficients overflow
        quad = cached_quadrature(5.0, 64)
        datum = random_positive(quad, rng, modes=6, amplitude=0.4).coeffs
        imex_step = flows._imex_step
        monkeypatch.setattr(flows, "integrates_exactly", lambda spec: False)
        monkeypatch.setattr(flows, "_full_rhs", lambda spec, q, c: (-2.0 * q.eigenvalues * c, 1.0))
        runs = []

        def recorded(form, spec, q, c, dt):
            attempts = runs[-1]
            # a rejected attempt passes the same coefficient array again
            attempts.append((dt, bool(attempts) and c is attempts[-1][2], c))
            return imex_step(form, spec, q, c, dt)

        monkeypatch.setattr(flows, "_imex_step", recorded)
        for scale in (1.0, 2.0**k):
            runs.append([])
            state = heat_state(quad, 5.0, 3.0, GridFn.from_coeffs(quad, datum * scale))
            evolve(state, 0.1, samples=5)
        ones, scaled = ([(dt, rejected) for dt, rejected, _ in run] for run in runs)
        assert any(rejected for _, rejected in ones) and len(ones) > 64
        assert scaled == ones

    def test_w_form_rejects_infinite_beta(self, rng):
        quad = cached_quadrature(3.0, 64)
        spec = FlowSpec.nonlinear_from_m(Params(3.0, 6.0), 2.0 / 3.0)
        with pytest.raises(DomainError):
            make_state(Form.POINTWISE, spec, GridFn.constant(quad, 1.0))

    def test_order_four_on_exact_solution(self):
        d = 4.0
        quad = cached_quadrature(4.0, 96)
        # p = 2*(4) = 4, where the critical fast diffusion m = 1 - 1/d applies
        spec = FlowSpec.nonlinear_from_m(Params(d, 4.0), 1.0 - 1.0 / d)
        T = 0.25

        def exact(t):
            a, b = conformal_coefficients(d, 1.0, 0.5, t)
            return GridFn.from_values(quad, (a + b * quad.nodes) ** (-d))

        errs = [np.max(np.abs(quad.to_values(fixed_steps(spec, exact(0.0), T, ndt))
                              - exact(T).values)) for ndt in (50, 100)]
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0  # order 4: 16 per halving (15.3 measured)

    def test_density_form_is_fourth_order(self):
        # fixed steps, since the local-error controller sets evolve's:
        # halving dt cuts the coefficient error 16x
        quad = cached_quadrature(5.0, 64)
        params = Params(5.0, 3.3)
        spec = FlowSpec(params, beta_roots(params).minus)
        rho0 = random_positive(quad, np.random.default_rng(7), modes=8, amplitude=0.5)

        ref = fixed_steps(spec, rho0, 0.4, 3200)
        errs = [np.linalg.norm(fixed_steps(spec, rho0, 0.4, k) - ref) for k in (100, 200, 400)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 14.0

    def test_step_never_amplifies(self, monkeypatch):
        # the linear problem c' = -r sigma lam c with sigma frozen, x = dt
        # sigma lam: the step keeps every mode |R| <= 1, R tends to -1/8 at
        # r = 1/2 as x grows, and at r = 1 (N = 0) it is the exponential
        sigma, amplification = 2.0, {}
        x = np.logspace(-3.0, 9.0, 241)
        quad = SimpleNamespace(eigenvalues=x / sigma)  # dt = 1
        c = np.ones_like(x)
        for r in np.linspace(0.01, 1.0, 100):
            def rhs(spec, q, x, r=r):
                return -r * sigma * q.eigenvalues * x, sigma

            monkeypatch.setattr(flows, "_full_rhs", rhs)
            amplification[round(r, 2)] = flows._imex_step(Form.DENSITY, None, quad, c, 1.0)[0]
            assert np.all(np.abs(amplification[round(r, 2)]) <= 1.0)
        assert np.max(np.abs(amplification[1.0] - np.exp(-x))) <= 1e-15
        assert amplification[0.5][-1] == pytest.approx(-0.125)

    def test_weights_match_extended_precision(self):
        # the Taylor branch below |z| = 1 and the closed form in 1/z beyond
        # (1.1e-14 worst measured, in f1 at z = -2.5)
        z = -np.concatenate([[0.0], np.logspace(-8.0, 4.0, 241)])

        def weights(x):
            with mpmath.workdps(50):
                x = mpmath.mpf(float(x))
                if x == 0:
                    return [1.0, 1.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]
                e = mpmath.exp(x)
                return [float(v) for v in (
                    mpmath.exp(x / 2), mpmath.expm1(x / 2) / (x / 2),
                    (-4 - x + e * (4 - 3 * x + x * x)) / x**3,
                    (2 + x + e * (x - 2)) / x**3,
                    (-4 - 3 * x - x * x + e * (4 - x)) / x**3)]

        expected = np.array([weights(x) for x in z]).T
        got = np.array(flows._weights(z, flows._STEP_ROWS))
        resolved = expected != 0.0  # e^(z/2) underflows far out
        assert np.all(np.abs(got - expected)[resolved] <= 1e-13 * np.abs(expected)[resolved])
        assert np.all(got[~resolved] == 0.0)

    def test_weights_finite_and_silent_far_out(self):
        # z^2 e^z would be 0 * inf here; the closed form in 1/z is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array(flows._weights(np.array([-1e300]), flows._STEP_ROWS))
        assert np.all(np.isfinite(got))

    def test_fde_accuracy_under_default_controller(self):
        # fde at the README w point: the default controller's final F against
        # the same flow at dt_max = 1e-4 (1.2e-8 measured)
        quad = cached_quadrature(5.0, 64)
        spec = FlowSpec(Params(5.0, 3.3), 1.2126712652)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3  # perturb:0.3,2
        st = make_state(Form.DENSITY, spec, GridFn.from_coeffs(quad, coeffs))
        default = evolve(st, 0.4).F[-1]
        fine = evolve(st, 0.4, dt_max=1e-4).F[-1]
        assert default == pytest.approx(fine, rel=1e-5)

    @pytest.mark.parametrize("beta, cap", [(1.2126712652, 776), (1.0, 0)], ids=["w", "u"])
    def test_readme_runs_take_few_right_hand_sides(self, beta, cap, monkeypatch):
        # the README w run at t = 0.4: 776 right-hand sides, what it takes
        # at --samples 2, where landing on the 50 samples took 868 and the
        # drift budget of the pointwise integrator 1,188; the u run is the
        # heat flow, integrated exactly with none
        quad = cached_quadrature(5.0, 128)
        spec = FlowSpec(Params(5.0, 3.3), beta)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3
        st = make_state(Form.POINTWISE, spec, GridFn.from_coeffs(quad, coeffs))
        calls = 0
        rhs = flows._full_rhs

        def counted(*args):
            nonlocal calls
            calls += 1
            return rhs(*args)

        monkeypatch.setattr(flows, "_full_rhs", counted)
        traj = evolve(st, 0.4)
        assert calls <= cap
        assert traj.monotone_decreasing_F()
        assert max(abs(c - traj.conserved[0]) for c in traj.conserved) <= 1e-9


    def test_readme_w_accuracy_is_set_by_the_tolerance(self, monkeypatch):
        # the README w run at 2, 13 and 50 samples: the samples do not touch
        # the step sequence, so each takes 776 right-hand sides and the
        # final states are equal, bit for bit.  The final F agree to the
        # rounding of the stacked report, which the width of the last block
        # moves (3.3e-14 measured).  Each is within 1e-8 of a run at
        # dt_max = 2e-5 (4.1e-9 measured)
        quad = cached_quadrature(5.0, 128)
        spec = FlowSpec(Params(5.0, 3.3), 1.2126712652)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3
        st = make_state(Form.POINTWISE, spec, GridFn.from_coeffs(quad, coeffs))
        rhs, calls = flows._full_rhs, []

        def counted(*args):
            calls[-1] += 1
            return rhs(*args)

        monkeypatch.setattr(flows, "_full_rhs", counted)
        runs = []
        for k in (2, 13, 50):
            calls.append(0)
            runs.append(evolve(st, 0.4, samples=k))
        assert calls == [776] * 3
        for traj in runs[1:]:
            assert np.array_equal(traj.final_state.f.coeffs, runs[0].final_state.f.coeffs)
        finals = [traj.F[-1] for traj in runs]
        assert max(finals) - min(finals) <= 1e-13 * max(finals)
        assert finals == pytest.approx([5.385112648977728e-05] * 3, rel=1e-8, abs=0.0)


def perturbed(d, n, eps):
    """The datum perturb:eps,2 of the CLI on the rule of order n."""
    quad = cached_quadrature(d, n)
    coeffs = np.zeros(quad.n)
    coeffs[0], coeffs[2] = 1.0, eps
    return GridFn.from_coeffs(quad, coeffs)


def dense_sample(stages, dt, theta):
    """One sample's continuous extension, one evaluation per sample, as
    ``flows._dense`` took it before it read a block's samples at once: the
    reference for the block."""
    c, z, n0, ab, nd = stages
    e_half, phi1, phi2, phi3 = flows._weights(theta * z, flows._PHI_ROWS)
    t2, t3 = theta**2 * phi2, theta**3 * phi3
    b4 = 4.0 * t3 - t2
    return e_half * (e_half * c) + dt * ((theta * phi1 + b4 - 2.0 * t2) * n0
                                         + (t2 - b4) * ab + b4 * nd)


def recorded_samples(monkeypatch):
    """Patches the stepped flow to record, per later sample, the (theta,
    step) that ``flows._advance_to`` reached it with, and the blocks of
    coefficients ``flows._stepped`` yields; returns both lists."""
    reached, blocks = [], []
    advance, stepped = flows._advance_to, flows._stepped

    def advance_seen(*args):
        out = advance(*args)
        reached.append(out[:2])
        return out

    def stepped_seen(*args):
        for coeffs in stepped(*args):
            blocks.append(coeffs.copy())
            yield coeffs

    monkeypatch.setattr(flows, "_advance_to", advance_seen)
    monkeypatch.setattr(flows, "_stepped", stepped_seen)
    return reached, blocks


class TestDenseOutput:
    """The stepped flow steps once to t_end and reads each sample inside a
    step off that step's order-3 continuous extension (``flows._dense``)."""

    #: (form, spec, datum, t_end): the benchmark w and fde runs, the README
    #: w and fde examples, and the three m <= 0 points of the form
    #: equivalence, at default settings
    RUNS = {
        "bench-w": (Form.POINTWISE, (5.0, 3.3, 1.2126712652), (64, 0.3), 0.02),
        "bench-fde": (Form.DENSITY, (5.0, 3.3, 1.2126712652), (64, 0.3), 0.02),
        "readme-w": (Form.POINTWISE, (5.0, 3.3, 1.2126712652), (128, 0.3), 0.4),
        "readme-fde": (Form.DENSITY, (3.0, 6.0, None), "random:2,6", 0.4),
        "m-0.04": (Form.POINTWISE, (1.0, 39.3, -0.04), (64, 0.1), 0.01),
        "m-2": (Form.POINTWISE, (2.0, 3.0, -2.0), (64, 0.1), 0.01),
        "m-6.665": (Form.POINTWISE, (1.8, 2.3, -6.665), (64, 0.05), 0.01),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_every_sample_matches_a_fine_run(self, run):
        # every one of the 50 samples' F within 1e-7 relative of a run at
        # dt_max = t_end/2000, which agrees with one at t_end/20000 to
        # 2.1e-12 at every sample.  Worst measured: 3.8e-8 on the README fde
        # example, 1.5e-8 on README w, 2.7e-10 and 3.8e-11 on the benchmark
        # fde and w, and 2.6e-9 to 2.9e-9 at the m <= 0 points, early in
        # the run.  Their last samples are 3.2e-13, 6.9e-11 and 4.6e-11 off
        # (the last two 6.8e-11 and 4.7e-11 off the pointwise oracle of
        # test_w_nonlinear_matches_fde_with_m_clock), where landing every
        # sample on a step kept them within 1e-11
        form, (d, p, beta), datum, t_end = self.RUNS[run]
        params = Params(d, p)
        if beta is None:  # the critical m = 2/3 to ten digits: infinite beta
            spec = FlowSpec.nonlinear_from_m(params, 0.6666666667)
            f0 = parse_init(datum, cached_quadrature(d, 64), params, form, spec.beta)
        else:
            spec, f0 = FlowSpec(params, beta), perturbed(d, *datum)
        state = make_state(form, spec, f0)
        dense = np.array(evolve(state, t_end).F)
        fine = np.array(evolve(state, t_end, dt_max=t_end / 2000).F)
        assert np.all(np.abs(dense - fine) <= 1e-7 * np.abs(fine))

    def test_extension_at_theta_one_is_the_step(self, rng):
        # the extension's weights at theta = 1 are the step's f1, 2 f2 and
        # f3, summed from phi1..phi3 instead of in closed form, for one
        # step's stages and for the three steps' stages as one stack
        quad = cached_quadrature(5.0, 64)
        spec = FlowSpec(Params(5.0, 3.3), 1.2126712652)
        c = random_positive(quad, rng, modes=8, amplitude=0.5).coeffs
        dts = np.array([1e-5, 1e-3, 1e-1])
        steps = [flows._imex_step(Form.DENSITY, spec, quad, c, dt) for dt in dts]
        stack = [np.array(x) for x in zip(*(stages for _, _, stages in steps))]
        ends = flows._dense(stack, dts[:, None], np.ones((3, 1)))
        for dt, (step, _, stages), end_of_stack in zip(dts, steps, ends):
            for end in (flows._dense(stages, dt, 1.0), end_of_stack):
                assert np.max(np.abs(end - step)) <= 1e-15 * np.max(np.abs(step))

    @pytest.mark.parametrize("flow", ["fde", "w"])
    def test_every_sample_keeps_mode_zero(self, flow, rng, monkeypatch):
        # mode 0 has z = 0 and N = 0: every sample, inside a step or at its
        # end, carries the datum's mass coefficient bit for bit
        form, beta = FLOWS[flow]
        quad = cached_quadrature(5.0, 64)
        state = make_state(form, FlowSpec(Params(5.0, 3.3), beta),
                           random_positive(quad, rng, modes=6, amplitude=0.4))
        samples = []
        stepped = flows._stepped

        def seen(*args):
            for coeffs in stepped(*args):
                samples.extend(coeffs[0].tolist())
                yield coeffs

        monkeypatch.setattr(flows, "_stepped", seen)
        evolve(state, 0.05, samples=40)
        assert len(samples) == 39
        assert samples == [flows._density(state).coeffs[0]] * 39

    def test_samples_before_a_failure_come_first(self, rng, monkeypatch):
        # the exact heat flow's fourth sample dips below the floor, and the w
        # flow's step to its fourth sample fails: either way evolve reports
        # the two samples before it, as one block after the datum, and then
        # raises at the time of the failure, so that an earlier failure of
        # the report wins
        form, beta = FLOWS["w"]
        w_state = make_state(form, FlowSpec(Params(5.0, 3.3), beta), random_positive(
            cached_quadrature(5.0, 64), rng, modes=6, amplitude=0.4))
        advance, report = flows._advance_to, flows._sample_report
        for state, t_end in ((TestExactSamples._dipping_datum(), 0.0025), (w_state, 0.01)):
            targets, seen = [], []

            def failing(spec, step, s_target, *args):
                targets.append(s_target)
                if len(targets) == 3:
                    raise PositivityLossError("step size underflow", t=s_target)
                return advance(spec, step, s_target, *args)

            with monkeypatch.context() as patch:
                patch.setattr(flows, "_advance_to", failing)
                patch.setattr(flows, "_sample_report",
                              lambda st, rho: seen.append(rho.shape) or report(st, rho))
                with pytest.raises(PositivityLossError) as err:
                    evolve(state, t_end, samples=6)
            assert err.value.t == np.linspace(0.0, t_end, 6)[3]
            assert seen == [(state.f.quad.n,), (state.f.quad.n, 2)]
            assert len(targets) == (0 if flows.integrates_exactly(state.spec) else 3)

    def test_extension_weights_match_extended_precision(self):
        # phi1, phi2, phi3 from the Taylor branch below |x| = 1 and the
        # closed forms in 1/x beyond, against 50 digits, on a step's vector
        # and on a block's stack, whose rows split at different columns
        x = -np.concatenate([[0.0], np.logspace(-8.0, 4.0, 241)])

        def phis(v):
            with mpmath.workdps(50):
                v = mpmath.mpf(float(v))
                if v == 0:
                    return [1.0, 0.5, 1.0 / 6.0]
                e = mpmath.exp(v)
                return [float(w) for w in ((e - 1) / v, (e - 1 - v) / v**2,
                                           (e - 1 - v - v * v / 2) / v**3)]

        expected = np.array([phis(v) for v in x]).T
        for shape in ((242,), (2, 121)):
            got = np.array(flows._weights(x.reshape(shape), flows._PHI_ROWS)[1:]).reshape(3, -1)
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


class TestBlockExtension:
    """The stepped flow reads a block's samples inside their steps in
    evaluations of the continuous extension on 16 of them at a time
    (``flows._read_off``), on stacks of their steps' stages, one row per
    sample."""

    #: fde and w at the README point, both at beta = -2 (m = 1/11), and fde
    #: at a small m, all at (d, p) = (5, 3.3) from perturb:0.3,2
    RUNS = {"fde": (Form.DENSITY, 1.2126712652), "w": (Form.POINTWISE, 1.2126712652),
            "fde-beta-2": (Form.DENSITY, -2.0), "w-beta-2": (Form.POINTWISE, -2.0),
            "fde-m-0.05": (Form.DENSITY, None)}

    def _state(self, run, n=64):
        form, beta = self.RUNS[run]
        params = Params(5.0, 3.3)
        spec = (FlowSpec.nonlinear_from_m(params, 0.05) if beta is None
                else FlowSpec(params, beta))
        rho = perturbed(5.0, n, 0.3)
        return make_state(form, spec, flows._from_density(form, spec, rho))

    @pytest.mark.parametrize("run", list(RUNS))
    def test_every_sample_matches_the_per_sample_extension(self, run, monkeypatch):
        # each sample inside a step within 1e-15 of its column's largest
        # coefficient of that step's extension evaluated alone (2.2e-19
        # worst measured), each on a step's end that end's coefficients
        # and mode 0 the datum's, bit for bit, at sample counts on both
        # sides of the block size
        state = self._state(run)
        c0 = flows._density(state).coeffs[0]
        for samples in (2, 5, 50, 65, 200):
            with monkeypatch.context() as patch:
                reached, blocks = recorded_samples(patch)
                evolve(state, 0.02, samples=samples)
            coeffs = np.hstack(blocks)
            assert coeffs.shape[1] == len(reached) == samples - 1
            assert np.all(coeffs[0] == c0)
            inside = [theta is not None for theta, _ in reached]
            assert not inside[-1] and (samples == 2 or sum(inside) > samples // 2)
            for column, (theta, (_, dt, stages, rho)) in zip(coeffs.T, reached):
                if theta is None:
                    assert np.array_equal(column, rho.coeffs)
                    continue
                expected = dense_sample(stages, dt, theta)
                assert np.max(np.abs(column - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_extension_runs_once_per_block(self, monkeypatch):
        # 199 later samples are four blocks: the extension runs once for
        # each chunk of 16 of a block's samples inside a step (all but the
        # last sample, which the last step ends on), so four times for each
        # full block and once for the last block's 6
        extension, stacks = flows._dense, []

        def counted(stages, dt, theta):
            stacks.append(np.shape(stages[0]))
            return extension(stages, dt, theta)

        monkeypatch.setattr(flows, "_dense", counted)
        evolve(self._state("fde"), 0.02, samples=200)
        n = 64
        assert stacks == [(16, n)] * (3 * flows._BLOCK // 16) + [(199 - 3 * flows._BLOCK - 1, n)]

    def test_stepped_command_memory_is_bounded_by_the_chunk(self, tmp_path, monkeypatch):
        # the benchmark's fde command at N = 128, with its tables built
        # beforehand, peaks at 0.5-0.7 MiB; the extension on a block's
        # whole (64, 128) stack of samples peaked at 1.4-1.6 MiB
        quad = Quadrature(5.0, 128)
        quad._pad_tables()
        monkeypatch.setattr(cli, "Quadrature", lambda d, n: quad)
        argv = ("flow --form fde --d 5 --p 3.3 --beta 1.2126712652 --init perturb:0.3,2"
                f" --t-end 0.02 --out {tmp_path}").split()
        code, peak = traced_peak(lambda: cli.main(argv))
        assert code == 0
        assert peak < 1.3 * 2**20, peak

    @pytest.mark.parametrize("run", ["fde", "w-beta-2"])
    def test_sample_does_not_depend_on_its_block(self, run, monkeypatch):
        # the steps do not depend on the samples, so the 49 later samples
        # of a 50-sample run are every other later sample of a 99-sample
        # run, read off the same steps at the same theta; only the other
        # samples in their blocks differ (4e-28 worst measured, of the
        # column's largest coefficient)
        state, runs = self._state(run), []
        for samples in (50, 99):
            with monkeypatch.context() as patch:
                reached, blocks = recorded_samples(patch)
                runs.append((evolve(state, 0.02, samples=samples).times, reached,
                             np.hstack(blocks)))
        (times, reached, coeffs), (times2, reached2, coeffs2) = runs
        assert times == times2[::2]
        assert [r[0] for r in reached] == [r[0] for r in reached2[1::2]]
        scale = np.max(np.abs(coeffs), axis=0)
        assert np.all(np.abs(coeffs - coeffs2[:, 1::2]) <= 1e-15 * scale)

    @pytest.mark.parametrize("rows", ["step", "extension"])
    def test_weights_of_a_stack_are_the_rows_weights(self, rows):
        # 40 rows of z = -h lam, h from 1e-8 to 1e2, split per element at
        # |z| = 1, against one vector call per row: the same values but
        # for the order of the series' sums (4.0e-15 relative worst
        # measured, in f1..f3, and 8.4e-16 in phi1..phi3), and e^(z/2)
        # bit for bit
        rows = flows._STEP_ROWS if rows == "step" else flows._PHI_ROWS
        rng = np.random.default_rng(5)
        for n in (16, 128):
            z = -np.outer(10.0 ** rng.uniform(-8.0, 2.0, 40), cached_quadrature(5.0, n).eigenvalues)
            got = np.array(flows._weights(z, rows))
            expected = np.array([flows._weights(row, rows) for row in z]).transpose(1, 0, 2)
            assert np.array_equal(got[0], expected[0])
            assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


class TestSampleRule:
    """``evolve`` checks, records and fails the samples of every flow: the
    first column of a stack that is not positive, or whose conserved
    quantity drifts past TOL_CONS of the datum's, fails at its time, after
    the samples before it are recorded."""

    @staticmethod
    def _fde(rng):
        form, beta = FLOWS["fde"]
        return make_state(form, FlowSpec(Params(5.0, 3.3), beta), random_positive(
            cached_quadrature(5.0, 64), rng, modes=6, amplitude=0.4))

    @staticmethod
    def _fails_at_the_first_drifting_sample(state, t_end, monkeypatch):
        # mode 0 carries the mass bit for bit, so the drift is the rounding
        # of the synthesis alone: a TOL_CONS below it, relative to the
        # datum's conserved quantity, fails the first sample whose recorded
        # conserved quantity exceeds it
        traj = evolve(state, t_end)
        drift = np.abs(np.array(traj.conserved) - state.conserved0)
        tol = drift.max() / state.conserved0 / 2.0
        assert 0.0 < tol < 1e-15
        k = int(np.argmax(drift > tol * state.conserved0))
        monkeypatch.setattr(flows, "TOL_CONS", tol)
        with pytest.raises(ConservationError) as err:
            evolve(state, t_end)
        assert k > 0 and err.value.t == traj.times[k]

    def test_drift_fails_at_the_first_drifting_sample(self, rng, monkeypatch):
        self._fails_at_the_first_drifting_sample(self._fde(rng), 0.02, monkeypatch)

    @pytest.mark.parametrize("form", [Form.DENSITY, Form.POINTWISE])
    def test_the_exact_flow_is_not_exempt(self, form, rng, monkeypatch):
        # the heat flow keeps c0 to the bit as well, and its drift is
        # checked against the same relative TOL_CONS
        state = heat_state(None, 5.0, 3.0, random_positive(
            cached_quadrature(5.0, 64), rng, modes=6, amplitude=0.4), form)
        self._fails_at_the_first_drifting_sample(state, 0.5, monkeypatch)

    @pytest.mark.parametrize("form", [Form.DENSITY, Form.POINTWISE])
    def test_rise_of_F_is_judged_against_the_datums_p_norm(self, form, rng):
        # rise_tol is TOL_MONO ||u0||_p^2, of degree 2 in u as F is: a
        # datum whose density is scaled by 2^(3k) (u by 2^k at p = 3) moves
        # F and the tolerance by 4^k, and keeps the verdict
        quad, p = cached_quadrature(5.0, 64), 3.0
        rho = random_positive(quad, rng, modes=6, amplitude=0.4).values
        u2 = (quad.weights @ rho) ** (2.0 / p)
        for k in (0, 60, -5):
            values = rho * 2.0 ** (3 * k) if form is Form.DENSITY else rho ** (1.0 / p) * 2.0**k
            traj = evolve(heat_state(None, 5.0, p, GridFn.from_values(quad, values), form), 0.5)
            assert traj.rise_tol() == pytest.approx(flows.TOL_MONO * u2 * 4.0**k, rel=1e-14)
            assert traj.monotone_decreasing_F()

    @pytest.mark.parametrize("negative, error", [(False, ConservationError),
                                                 (True, PositivityLossError)])
    def test_positivity_is_checked_before_the_drift(self, negative, error, rng, monkeypatch):
        # the second sample gains 1e-6 of its mass, and with ``negative`` a
        # first mode that takes it below the floor: that sample fails, on
        # its positivity when it has lost it, else on the drift
        state = self._fde(rng)
        stepped = flows._stepped

        def spoiled(*args):
            (coeffs,) = stepped(*args)  # the four later samples are one block
            c = coeffs[:, 1]
            c *= 1.0 + 1e-6
            c[1] += 10.0 * c[0] * negative
            assert (state.f.quad.to_values(c).min() < 0.0) == negative
            yield coeffs

        monkeypatch.setattr(flows, "_stepped", spoiled)
        with pytest.raises(error) as err:
            evolve(state, 0.02, samples=5)
        assert type(err.value) is error and err.value.t == np.linspace(0.0, 0.02, 5)[2]

    def test_step_size_underflow_reports_the_flow_time(self, monkeypatch):
        # fde at m = 0.5 runs on the clock s = t/2: a step that fails from
        # its fourth attempt on halves until the step size underflows, at
        # the end of the third, s = the sum of their steps, which is the
        # flow time 2 s
        quad = cached_quadrature(5.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3
        spec = FlowSpec.nonlinear_from_m(Params(5.0, 3.3), 0.5)
        state = make_state(Form.DENSITY, spec, GridFn.from_coeffs(quad, coeffs))
        imex_step, dts = flows._imex_step, []

        def failing(form, spec, quad, c, dt):
            if len(dts) == 3:
                raise PositivityError("forced")
            dts.append(dt)
            return imex_step(form, spec, quad, c, dt)

        monkeypatch.setattr(flows, "_imex_step", failing)
        with pytest.raises(PositivityLossError) as err:
            evolve(state, 0.02)
        t = sum(dts) / spec.m
        assert err.value.t == t and f"(t={t:.6g})" in str(err.value)

    def test_overflow_in_a_later_step_reports_the_flow_time(self, monkeypatch):
        # fde at m = 2 runs on the clock s = 2 t: after three accepted
        # steps, one from the state times 1e300, whose square overflows,
        # fails in _full_rhs, which knows no time; the error reads the flow
        # time of the step's start, s / 2
        quad = cached_quadrature(5.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[2] = 1.0, 0.3
        spec = FlowSpec.nonlinear_from_m(Params(5.0, 3.3), 2.0)
        state = make_state(Form.DENSITY, spec, GridFn.from_coeffs(quad, coeffs))
        imex_step, dts = flows._imex_step, []

        def overflowing(form, spec, quad, c, dt):
            if len(dts) == 3:
                c = c * 1e300
            else:
                dts.append(dt)
            return imex_step(form, spec, quad, c, dt)

        monkeypatch.setattr(flows, "_imex_step", overflowing)
        with pytest.raises(FlowError, match="a power of the state overflows") as err:
            evolve(state, 0.02)
        t = sum(dts) / spec.m
        assert type(err.value) is FlowError
        assert err.value.t == t and f"(t={t:.6g})" in str(err.value)


class TestTrajectoryCsv:
    def test_bytes_are_the_per_cell_repr(self, tmp_path):
        # each column formatted once gives the bytes of repr(float(x)) per
        # cell, joined per row, on rows with -0.0, infinities, NaN,
        # subnormals and numpy scalars
        cells = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1 / 3,
                 np.float64(-2.5), 0.1 + 0.2, 1e-17, 7.0]
        columns = [[cells[(i + 5 * j) % len(cells)] for i in range(len(cells))]
                   for j in range(6)]
        traj = flows.Trajectory(*columns, final_state=None)
        traj.to_csv(tmp_path / "t.csv")
        expected = "t,F,E_p,I_p,conserved,moment_z\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in zip(*columns))
        assert (tmp_path / "t.csv").read_text() == expected


class TestTablesOnFirstUse:
    def test_flows_build_only_the_tables_they_read(self, rng):
        # no flow takes a derivative: the exact heat flow builds no padded
        # rule, and the w form steps its density, as fde does
        params = Params(5.0, 3.3)
        runs = [(256, Form.DENSITY, FlowSpec.heat(params)),
                (64, Form.DENSITY, FlowSpec(params, beta_roots(params).minus)),
                (64, Form.POINTWISE, FlowSpec(params, beta_roots(params).minus))]
        built = []
        for n, form, spec in runs:
            quad = Quadrature(5.0, n)
            f0 = random_positive(quad, rng, modes=8, amplitude=0.4)
            evolve(make_state(form, spec, f0), 0.1, samples=5)
            built.append(quad._padded is not None)
        assert built == [False, True, True]


class TestFormEquivalence:
    def test_u_linear_matches_heat_density(self, rng):
        quad = cached_quadrature(4.0, 96)
        u0 = random_positive(quad, rng, modes=8, amplitude=0.5)
        st_u = heat_state(quad, 4.0, 3.0, u0, form=Form.POINTWISE)
        traj_u = evolve(st_u, 0.25, samples=5)
        rho0 = GridFn.from_values(quad, u0.values**3)
        st_r = heat_state(quad, 4.0, 3.0, rho0)
        traj_r = evolve(st_r, 0.25, samples=5)
        diff = np.sqrt(
            np.sum(quad.weights * (traj_u.final_state.f.values**3 - traj_r.final_state.f.values) ** 2)
        )
        assert diff <= 1e-13

    def test_w_nonlinear_matches_fde_with_m_clock(self, rng):
        # w is the density flow read through w = rho^(1/(beta p)): at m > 0
        # it is fde at the clock t = s/m, sample by sample.  At m <= 0,
        # inside the admissible region when d < 2, fde does not run forward;
        # the final F of w there is that of the earlier integrator of the
        # pointwise equation itself (mobility and gradient term, to 2e-13
        # at these points), an independent oracle that agrees with a run at
        # dt_max = 2e-6 to 7e-14.  The steps are capped at 2e-4 so that the
        # forms, not the default controller, are compared (1.2e-13 to
        # 3.8e-13 measured; the default run's error is in
        # TestDenseOutput::test_every_sample_matches_a_fine_run)
        quad = cached_quadrature(5.0, 96)
        params = Params(5.0, 3.3)
        spec = FlowSpec(params, beta_roots(params).minus)
        w0 = random_positive(quad, rng, modes=6, amplitude=0.4)
        t_rho = 0.1
        traj_w = evolve(make_state(Form.POINTWISE, spec, w0), spec.m * t_rho, samples=5)
        rho0 = GridFn.from_values(quad, w0.values ** (spec.beta * params.p))
        traj_r = evolve(make_state(Form.DENSITY, spec, rho0), t_rho, samples=5)
        assert traj_w.F == pytest.approx(traj_r.F, rel=1e-13, abs=0.0)
        assert traj_w.conserved == pytest.approx(traj_r.conserved, rel=1e-13, abs=0.0)

        for d, p, beta, eps, f_last in [(1.0, 39.3, -0.04, 0.1, 4.5145809331863946e-05),
                                        (2.0, 3.0, -2.0, 0.1, 0.06792010843203321),
                                        (1.8, 2.3, -6.665, 0.05, 0.21097795243167355)]:
            quad = cached_quadrature(d, 64)
            spec = FlowSpec(Params(d, p), beta)
            assert spec.m <= 0.0 and classify_region(spec.params, beta).admissible
            coeffs = np.zeros(quad.n)
            coeffs[0], coeffs[2] = 1.0, eps  # perturb:eps,2
            state = make_state(Form.POINTWISE, spec, GridFn.from_coeffs(quad, coeffs))
            f = evolve(state, 0.01, dt_max=2e-4).F[-1]
            assert f == pytest.approx(f_last, rel=1e-11, abs=0.0)

    def test_density_form_report_carries_clock_factor(self, rng):
        # the analytic dissipation lives on the rescaled-flow clock; on a
        # density-form trajectory it must be scaled by m to match the
        # finite difference of the recorded deficit
        quad = cached_quadrature(5.0, 96)
        params = Params(5.0, 3.3)
        spec = FlowSpec(params, beta_roots(params).minus)
        rho0 = random_positive(quad, rng, modes=6, amplitude=0.4)
        state = make_state(Form.DENSITY, spec, rho0)
        numeric, analytic = central_difference_and_analytic(state, 0.08, 81, 40)
        assert numeric == pytest.approx(analytic, rel=1e-2)

    def test_rhs_next_to_m_zero(self, rng):
        # L phi_m(rho), phi_m = expm1(m log rho)/m, next to m = 0 (d = 2,
        # p = 3, beta = -2) agrees with L log rho at m = 0 to rounding, on
        # either side
        quad = cached_quadrature(2.0, 128)
        params = Params(2.0, 3.0)
        c = random_positive(quad, rng, modes=10, amplitude=0.6).coeffs
        spec0 = FlowSpec(params, -2.0)
        assert spec0.m == 0.0
        g0, sigma0 = _full_rhs(spec0, quad, c)
        for beta in (-2.0 * (1.0 - 1e-14), -2.0 * (1.0 + 1e-14)):
            spec = FlowSpec(params, beta)
            assert 0.0 < abs(spec.m) < 1e-14
            g, sigma = _full_rhs(spec, quad, c)
            assert sigma == pytest.approx(sigma0, rel=1e-13)
            assert np.max(np.abs(g - g0)) <= 1e-13 * np.max(np.abs(g0))

    def test_conversion_helpers_roundtrip(self, quad5, rng):
        params = Params(5.0, 3.3)
        beta = beta_roots(params).minus
        spec = FlowSpec(params, beta)
        # evolve reads w through rho = w^(beta p), steps rho on the clock s,
        # which is w's own and m times the density form's t, and reads the
        # final rho back as w
        w0 = random_positive(quad5, rng, modes=6, amplitude=0.4)
        st_w = make_state(Form.POINTWISE, spec, w0)
        rho = flows._density(st_w)
        st_rho = make_state(Form.DENSITY, spec, rho)
        assert (flows._clock_rate(st_w), flows._clock_rate(st_rho)) == (1.0, spec.m)
        assert flows._from_density(Form.DENSITY, spec, rho) is rho
        back = flows._from_density(Form.POINTWISE, spec, rho)
        assert np.max(np.abs(back.values - w0.values)) < 1e-12
        # the heat pair shares its clock (m = 1), and rho = u^p bitwise
        st_heat = make_state(Form.POINTWISE, FlowSpec.heat(params), w0)
        assert flows._clock_rate(st_heat) == 1.0
        assert np.array_equal(flows._density(st_heat).values, w0.values**params.p)


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
        spec = FlowSpec(Params(5.0, 3.3), beta)
        return make_state(form, spec, random_positive(quad, rng, modes=6, amplitude=0.4))

    @pytest.mark.parametrize("flow", list(FLOWS))
    def test_trajectory_values_are_the_reports(self, flow, rng, monkeypatch):
        # every sample reports from its density, with the datum's rule and p:
        # bitwise the report of that density at the datum.  The later
        # samples, one block on every flow, are the stacked report of the
        # block the recorder passes to _sample_report, bitwise; the exact
        # flow's block is the synthesis of _exact's stack.  The final state, read back in
        # the run's form, agrees with the last sample to rounding: a column
        # of the stacked product sums in another order than the report of
        # one vector, and w = rho^(1/(beta p)) is rounded once more
        state = self._state(flow, rng)
        seen = []
        report = flows._sample_report
        monkeypatch.setattr(flows, "_sample_report",
                            lambda st, rho: seen.append((st, rho)) or report(st, rho))
        traj = evolve(state, 0.004, samples=4, dt_max=2e-4)
        assert all(st is state for st, _ in seen)
        quad, p, beta = state.f.quad, state.params.p, state.spec.beta
        rho0 = flows._density_values(state.form, state.spec, state.f)
        rep = density_report(quad, rho0, p, beta)
        assert (traj.E_p[0], traj.I_p[0], traj.F[0]) == (rep.E_p, rep.I_p, rep.F)
        assert len(seen) == 2 and seen[1][1].shape == (quad.n, 3)
        e, i = _sample_report(state, seen[1][1])
        assert (traj.E_p[1:], traj.I_p[1:], traj.F[1:]) == (list(e), list(i), list(i / 5.0 - e))
        if flows.integrates_exactly(state.spec):
            coeffs, = flows._exact(flows._density(state), np.array(traj.times[1:]) - state.t)
            assert np.array_equal(quad.to_values(coeffs), seen[1][1])
        rep = report_at(traj.final_state)
        last = np.array([traj.E_p[-1], traj.I_p[-1], traj.F[-1]])
        assert np.all(np.abs(last - (rep.E_p, rep.I_p, rep.F)) <= 5e-14 * traj.I_p[0])

    @pytest.mark.parametrize("flow", ["heat", "u"])
    def test_stacked_report_is_the_single_one_to_rounding(self, flow):
        # the last sample of the exact flow's stack against the report of one
        # vector at its final state: within 5e-14 of the datum's I_p over
        # n = 64..512 and 40 seeds (3.2e-14 measured, on I_p at n = 512)
        for n in (64, 128, 256, 512):
            for seed in range(40):
                state = self._state(flow, np.random.default_rng(seed), n=n)
                traj = evolve(state, 0.004, samples=4)
                rep = report_at(traj.final_state)
                last = np.array([traj.E_p[-1], traj.I_p[-1], traj.F[-1]])
                assert np.all(np.abs(last - (rep.E_p, rep.I_p, rep.F)) <= 5e-14 * traj.I_p[0])

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

    @pytest.mark.parametrize("flow, per_sample", [("heat", 1), ("fde", 1), ("u", 1), ("w", 1)])
    def test_sample_transforms_through_evolve(self, flow, per_sample, rng, monkeypatch):
        # transforms outside the stepping: a sample of one vector analyses
        # u = rho^(1/p) once and differentiates nothing, which is the
        # datum's cost.  The later samples are one block on every flow:
        # evolve synthesizes its coefficients in one product, and reports
        # it with one stacked analysis of u = rho^(1/p).  A stepped flow
        # then synthesizes its final state alone, where the heat flow takes
        # it from the block.  A pointwise form adds the analysis of
        # rho0 = w0^(beta p) before the datum's and of the final w after the
        # last sample
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
        later = {"heat": ["to_values", "to_coeffs"],
                 "fde": ["to_values", "to_coeffs", "to_values"],
                 "u": ["to_coeffs", "to_values", "to_coeffs", "to_coeffs"],
                 "w": ["to_coeffs", "to_values", "to_coeffs", "to_values", "to_coeffs"]}
        expected = ["to_coeffs"] * per_sample + later[flow]
        assert calls == expected, calls

    @pytest.mark.parametrize("flow", list(FLOWS))
    def test_unresolved_datum_raises_on_every_flow(self, flow):
        # the top mode carries 100x the resolution tolerance: every sample
        # reads I_p off u's coefficients under the resolution check, so
        # evolve refuses the datum at its first sample
        form, beta = FLOWS[flow]
        quad = cached_quadrature(5.0, 64)
        coeffs = np.zeros(quad.n)
        coeffs[0], coeffs[-1] = 1.0, 100.0 * RESOLUTION_TOL
        state = make_state(form, FlowSpec(Params(5.0, 3.3), beta),
                           GridFn.from_coeffs(quad, coeffs))
        with pytest.raises(ResolutionError):
            evolve(state, 0.002, samples=3, dt_max=2e-4)

    @pytest.mark.parametrize("flow", ["fde", "w"])
    def test_each_step_synthesizes_its_trial_once(self, flow, rng, monkeypatch):
        # every completed step synthesizes its trial once, for its
        # positivity check; the continuous extension synthesizes nothing.
        # The samples, inside a step or where one ends, are synthesized
        # once, in their block's one product, which the positivity guard,
        # the drift check and the report read, and the final state once
        # more, alone; nothing else is synthesized
        state = self._state(flow, rng)
        steps = dense = 0
        imex_step, extension = flows._imex_step, flows._dense

        def counted(*args):
            nonlocal steps
            out = imex_step(*args)
            steps += 1
            return out

        def counted_dense(*args):
            nonlocal dense
            dense += 1
            return extension(*args)

        monkeypatch.setattr(flows, "_imex_step", counted)
        monkeypatch.setattr(flows, "_dense", counted_dense)
        calls = self._counted_transforms(monkeypatch)
        evolve(state, 0.002, samples=5, dt_max=2e-4)
        assert steps >= 10 and dense >= 1
        assert calls.count("to_values") == steps + 2, (calls.count("to_values"), steps, dense)

    # 1.212671265218024 is beta_- of (d, p) = (5, 3.3) to 14 digits, written
    # out so the case id does not move with the last bits of beta_roots
    @pytest.mark.parametrize("beta", [1.212671265218024, 1e4, 1e7])
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
        assert np.max(np.abs(evolve(st, 1.0, samples=26).moment_z)) <= 1e-11

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
        assert np.max(np.abs(evolve(st, 1.0, samples=26).moment_z)) <= 1e-10

    def test_check_takes_few_steps(self, monkeypatch):
        # the heat flow runs exactly: no step at all
        attempts = 0
        imex_step = flows._imex_step

        def counted(*args):
            nonlocal attempts
            attempts += 1
            return imex_step(*args)

        monkeypatch.setattr(flows, "_imex_step", counted)
        holds(checks.moment_decay())
        assert attempts == 0

    @pytest.mark.parametrize("d", [5.0, 12.0, 30.0])
    def test_law_at_p_one(self, d):
        # the heat flow runs exactly, and at p = 1 its u is rho itself:
        # 2.4e-17 at most measured
        ((_, passed, dev),) = checks.moment_decay(d=d, p=1.0)
        assert passed and dev <= 1e-15, dev


class TestExactSolution:
    def test_hyperbolic_identity(self):
        for t in np.linspace(0.0, 2.0, 7):
            a, b = conformal_coefficients(4.0, 1.3, 0.4, float(t))
            assert a * a - b * b == pytest.approx(1.3**2, rel=1e-13)
            assert a > abs(b)

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
        with pytest.raises(PositivityError):
            flows._imex_step(Form.DENSITY, spec, quad, rho0.coeffs, spec.m * 1e-4)
        with pytest.raises((PositivityLossError, PositivityError)):
            flows._advance_to(spec, (0.0, 0.0, None, rho0), 0.5 * spec.m, 0.5 * spec.m,
                              0.5 * spec.m / 64, math.inf)
