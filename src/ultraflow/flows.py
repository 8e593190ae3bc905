"""Time integration of the nonlinear-diffusion family in its two forms, with
conservation and monotonicity instrumentation.

Every flow is a member of the family selected by a ``FlowSpec`` (beta, with
m and kappa derived from it).  Each member has a density form and a
pointwise form:

    DENSITY    d rho/dt = L rho^m                              int rho
    POINTWISE  d w/ds   = w^(2-2b) (L w + k nu |w'|^2 / w)     int w^(b p)

The heat flow is the beta = 1 member (m = 1, kappa = p - 1, w = u):

    DENSITY    d rho/dt = L rho                                int rho
    POINTWISE  d u/dt   = L u + (p-1) nu |u'|^2 / u            int u^p

The CLI names these four cases fde, w, heat and u.  The pointwise form
carries the gradient weight nu = 1 - z^2 (the intrinsic gradient squared);
this is what makes its first integral exact and maps it onto the density
form by one rule, rho = w^(beta p) with the clock t = s / m, which
``convert`` applies in either direction.

The density form at beta = 1 integrates exactly in coefficient space
(diagonal exponential of L); ``integrates_exactly`` says when.  Every other
case uses a two-stage, second-order IMEX scheme whose implicit half is
sigma*L with a scalar stiffness bound sigma frozen per step, so every
implicit solve is diagonal; dt adapts under a conservation-drift budget and
a positivity guard (steps are rejected, never clamped).

The pointwise right-hand side branches on beta = 1, an input it reads, not
a separate flow.  There the mobility w^(2-2b) is 1 and sigma is 1, so L w
stays in coefficient space instead of costing a padded synthesis, and no
power is taken.  The general branch just above beta = 1 agrees with it to
rounding, and a test pins that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import FlowSpec, Params
from .discretization import EPS_POS, GridFn, Quadrature
from .errors import (
    ConservationError,
    DomainError,
    PositivityError,
    PositivityLossError,
)
from .functionals import (DissipationReport, dissipation_nonlinear, dissipation_report,
                          entropy, fisher)

#: defaults for the adaptive controller
TOL_CONS = 1e-9
TOL_MONO = 1e-9
DT_MIN = 1e-12

_IMEX_GAMMA = 1.0 - math.sqrt(0.5)
_IMEX_DELTA = 1.0 - 1.0 / (2.0 * _IMEX_GAMMA)


class Form(enum.Enum):
    DENSITY = "density"
    POINTWISE = "pointwise"
    # the name perfbench/workloads.py reads; the benchmark change of ROADMAP
    # item 1 drops it
    U_LINEAR = "pointwise"


@dataclass(frozen=True)
class FlowState:
    """One snapshot of a flow: time, evolved function, its interpretation."""

    t: float
    f: GridFn
    form: Form
    spec: FlowSpec
    conserved0: float

    @property
    def params(self) -> Params:
        return self.spec.params


def integrates_exactly(form: Form, spec: FlowSpec) -> bool:
    """The heat density form steps by the exact diagonal exponential of L;
    every other case by ARS(2,2,2)."""
    return form is Form.DENSITY and spec.beta == 1.0


def _density_values(form: Form, spec: FlowSpec, f: GridFn) -> np.ndarray:
    """Nodal density: rho itself, or w^(beta p) for the pointwise form."""
    return f.values if form is Form.DENSITY else f.values ** (spec.beta * spec.params.p)


def conserved_quantity(quad: Quadrature, rho: np.ndarray) -> float:
    """Integral of the nodal density rho."""
    return float(np.sum(quad.weights * rho))


def make_state(form: Form, spec: FlowSpec, f0: GridFn, t: float = 0.0) -> FlowState:
    """Validated initial state; computes the conserved quantity."""
    if form is Form.POINTWISE and spec.beta_is_infinite:
        raise DomainError(
            "the rescaled pointwise form does not exist for infinite beta; "
            "run the density form with m = 1 - 2/p instead"
        )
    f0.require_positive(what="initial datum")
    return FlowState(t, f0, form, spec,
                     conserved_quantity(f0.quad, _density_values(form, spec, f0)))


def convert(state: FlowState, form: Form) -> FlowState:
    """The same solution in another form of its flow: rho = w^(beta p), and
    the density clock t is the pointwise clock s divided by m."""
    spec, f = state.spec, state.f
    t = state.t if state.form is Form.DENSITY else state.t / spec.m
    if form is not state.form:
        e = spec.beta * spec.params.p
        f = GridFn.from_values(f.quad, f.values ** (e if form is Form.DENSITY else 1.0 / e))
    return make_state(form, spec, f, t if form is Form.DENSITY else spec.m * t)


# -- right-hand sides in coefficient space ---------------------------------


def _full_rhs(state_form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray):
    """(G(c), stiffness bound sigma) for the IMEX-stepped flows.

    Nonlinearities are evaluated pointwise on the padded grid and projected
    back (dealiasing).  Raises PositivityError if the padded values touch
    the floor.
    """
    lam = quad.eigenvalues
    vals = quad.padded_values(c)
    if vals.min() <= EPS_POS:
        raise PositivityError("state lost positivity on the evaluation grid")
    if state_form is Form.DENSITY:
        m = spec.m
        g = -lam * quad.project_padded(vals**m)
        sigma = m * float(np.max(vals ** (m - 1.0)))
        return g, sigma
    nl = spec.kappa * quad.padded_nu() * quad.padded_derivative(c) ** 2 / vals
    if spec.beta == 1.0:
        return -lam * c + quad.project_padded(nl), 1.0
    mobility = vals ** (2.0 - 2.0 * spec.beta)
    g = quad.project_padded(mobility * (quad.padded_values(-lam * c) + nl))
    return g, float(np.max(mobility))


def _imex_step(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, dt: float):
    """One ARS(2,2,2) step; implicit part sigma*L with sigma frozen over the
    whole step (a per-stage sigma would break the splitting consistency and
    drop the scheme to first order), so every solve is diagonal."""
    lam = quad.eigenvalues
    g0, sigma = _full_rhs(form, spec, quad, c)
    k1e = g0 + sigma * lam * c
    solve = 1.0 / (1.0 + dt * _IMEX_GAMMA * sigma * lam)
    c1 = (c + dt * _IMEX_GAMMA * k1e) * solve
    k1i = -sigma * lam * c1
    g1, _ = _full_rhs(form, spec, quad, c1)
    k2e = g1 + sigma * lam * c1
    c2 = (c + dt * (_IMEX_DELTA * k1e + (1.0 - _IMEX_DELTA) * k2e + (1.0 - _IMEX_GAMMA) * k1i)) * solve
    return c2


def step(state: FlowState, dt: float) -> FlowState:
    """Advance one step, exactly or by one IMEX step (``integrates_exactly``).
    Raises if positivity is lost."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    quad = state.f.quad
    if integrates_exactly(state.form, state.spec):
        c = state.f.coeffs * np.exp(-quad.eigenvalues * dt)
    else:
        c = _imex_step(state.form, state.spec, quad, state.f.coeffs, dt)
    f = GridFn.from_coeffs(quad, c)
    if not f.is_positive():
        raise PositivityLossError("step lost positivity", t=state.t + dt)
    return replace(state, t=state.t + dt, f=f)


# -- adaptive segment integrator --------------------------------------------


def _advance_to(
    state: FlowState,
    t_target: float,
    dt: float,
    dt_max: float,
    tol_cons: float,
    horizon: float,
) -> tuple[FlowState, float]:
    quad = state.f.quad
    if integrates_exactly(state.form, state.spec):
        # exact in one hop
        c = state.f.coeffs * np.exp(-quad.eigenvalues * (t_target - state.t))
        return replace(state, t=t_target, f=GridFn.from_coeffs(quad, c)), dt
    noise_floor = 1e-15 * max(1.0, abs(state.conserved0))
    t, c = state.t, state.f.coeffs
    c_prev = conserved_quantity(quad, _density_values(state.form, state.spec, state.f))
    while t < t_target - 1e-14 * max(1.0, abs(t_target)):
        h = min(dt, dt_max, t_target - t)
        try:
            c_new = _imex_step(state.form, state.spec, quad, c, h)
            trial = GridFn.from_coeffs(quad, c_new)
            ok = trial.is_positive()
        except PositivityError:
            ok = False
            trial = None
        budget = 0.5 * tol_cons * h / horizon + noise_floor
        if ok:
            c_now = conserved_quantity(quad, _density_values(state.form, state.spec, trial))
            local = abs(c_now - c_prev)
            cumulative = abs(c_now - state.conserved0)
            if local > budget:
                ok = False
            elif cumulative > tol_cons:
                raise ConservationError(
                    f"conserved quantity drifted by {cumulative:.3e} > {tol_cons:.1e}",
                    t=t + h,
                )
        if not ok:
            dt *= 0.5
            if dt < DT_MIN:
                raise PositivityLossError(
                    "step size underflow (positivity or drift unreachable)", t=t
                )
            continue
        t += h
        c = c_new
        c_prev = c_now
        if local < 0.1 * budget and h >= dt:
            dt = min(dt * 1.3, dt_max)
    f = GridFn.from_coeffs(quad, c)
    return replace(state, t=t_target, f=f), dt


@dataclass
class Trajectory:
    """Recorded samples of one flow run.  F is the normalized deficit; the
    dF_dt_numeric injected into the reports is the central difference of the
    unnormalized deficit d*F, matching dF_dt_analytic's convention."""

    form: Form
    times: list[float]
    F: list[float]
    E_p: list[float]
    I_p: list[float]
    conserved: list[float]
    moment_z: list[float]
    reports: list[DissipationReport]
    final_state: FlowState

    def monotone_decreasing_F(self, tol: float = TOL_MONO) -> bool:
        return all(f1 <= f0 + tol for f0, f1 in zip(self.F, self.F[1:]))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,F,E_p,I_p,conserved,moment_z\n")
            for row in zip(self.times, self.F, self.E_p, self.I_p, self.conserved, self.moment_z):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _sample_report(state: FlowState, rho: np.ndarray, clock_factor: float) -> DissipationReport:
    """Report at a sample from its nodal density rho: with u = rho^(1/p) for
    the density form, from w for the pointwise form."""
    p, beta = state.params.p, state.spec.beta
    if state.form is Form.DENSITY:
        u = GridFn.from_values(state.f.quad, rho ** (1.0 / p))
        rep = dissipation_report(rho, u, p, beta)
    else:
        rep = dissipation_nonlinear(state.f, p, beta, rho)
    if clock_factor != 1.0:
        rep = replace(rep, dF_dt_analytic=clock_factor * rep.dF_dt_analytic)
    return rep


def evolve(
    state: FlowState,
    t_end: float,
    samples: int = 50,
    dt_max: float = math.inf,
    tol_cons: float = TOL_CONS,
    with_reports: bool = True,
) -> Trajectory:
    """Integrate to t_end, recording ``samples`` evenly spaced snapshots
    (endpoints included).  Step errors propagate with the failing time
    attached."""
    if not (math.isfinite(t_end) and t_end > state.t):
        raise DomainError(f"t_end must be finite and exceed the current time, got {t_end}")
    if samples < 2:
        raise DomainError("need at least 2 samples (both endpoints)")
    if not dt_max > 0.0:
        raise DomainError(f"dt_max must be positive, got {dt_max}")
    if not 0.0 < tol_cons < math.inf:
        raise DomainError(f"tol_cons must be positive and finite, got {tol_cons}")
    horizon = t_end - state.t
    clock_factor = state.spec.m if state.form is Form.DENSITY else 1.0
    times = np.linspace(state.t, t_end, samples)
    dt = min(dt_max, horizon / max(8 * (samples - 1), 64))
    d, p = state.f.quad.d, state.params.p
    traj = Trajectory(state.form, [], [], [], [], [], [], [], state)

    def record(st: FlowState):
        rho = _density_values(st.form, st.spec, st.f)
        if with_reports:
            rep = _sample_report(st, rho, clock_factor)
            e, i = rep.E_p, rep.I_p
        else:
            rep = None
            density = st.f if st.form is Form.DENSITY else GridFn.from_values(st.f.quad, rho)
            e, i = entropy(density, p), fisher(density, p)
        f_val = i / d - e
        cons = conserved_quantity(st.f.quad, rho)
        mom = float(np.sum(st.f.quad.z_weights * rho))
        traj.times.append(st.t)
        traj.F.append(f_val)
        traj.E_p.append(e)
        traj.I_p.append(i)
        traj.conserved.append(cons)
        traj.moment_z.append(mom)
        traj.reports.append(rep)

    record(state)
    current = state
    for t_next in times[1:]:
        current, dt = _advance_to(current, float(t_next), dt, dt_max, tol_cons, horizon)
        record(current)
    traj.final_state = current
    if with_reports and samples >= 3:
        dt_samp = traj.times[1] - traj.times[0]
        for i in range(1, samples - 1):
            numeric = d * (traj.F[i + 1] - traj.F[i - 1]) / (2.0 * dt_samp)
            traj.reports[i] = traj.reports[i].with_numeric(numeric)
    return traj


# -- moment decay ------------------------------------------------------------


def moment_decay_check(
    state: FlowState,
    t_end: float,
    samples: int = 26,
    dt_max: float = 2e-4,
    tol_cons: float = TOL_CONS,
) -> dict:
    """Track M(t) = int z u^p along the pointwise heat flow and compare with
    the exponential law M(0) e^(-d t)."""
    if state.form is not Form.POINTWISE or state.spec.beta != 1.0:
        raise DomainError("moment decay check runs on the pointwise heat form")
    d = state.f.quad.d
    traj = evolve(
        state, t_end, samples=samples, dt_max=dt_max, tol_cons=tol_cons, with_reports=False
    )
    m0 = traj.moment_z[0]
    ts = np.asarray(traj.times)
    ms = np.asarray(traj.moment_z)
    law = m0 * np.exp(-d * (ts - ts[0]))
    return {
        "times": ts.tolist(),
        "moment": ms.tolist(),
        "M0": m0,
        "max_dev_from_law": float(np.max(np.abs(ms - law))),
        "max_abs_moment": float(np.max(np.abs(ms))),
    }


# -- exact solution of the critical fast-diffusion flow ----------------------


def conformal_coefficients(d: float, omega: float, t0: float, t: float) -> tuple[float, float]:
    """a(t) = w coth((d-1) w (t+t0)), b(t) = w csch(...): the separable
    solution of the a' = -(d-1) b^2, b' = -(d-1) a b system."""
    if omega <= 0.0 or t0 <= 0.0:
        raise DomainError("omega and t0 must be positive")
    arg = (d - 1.0) * omega * (t + t0)
    a = omega / math.tanh(arg)
    b = omega / math.sinh(arg)
    return a, b


def verify_exact_solution(
    d: float, omega: float, t0: float, t_end: float, n: int = 128, n_times: int = 9
) -> dict:
    """Residual of the (a + b z)^(-d) family under the critical fast
    diffusion (m = 1 - 1/d) and under the plain heat operator.

    The time derivative is analytic from the ODE system; the spatial
    operator is evaluated spectrally.  Residuals are measured in the norm of
    L^2 of the measure (the natural norm here; it also damps the spectral
    roundoff that the vanishing boundary weight amplifies at the outermost
    nodes).  Returns the max residual over the time grid under fast
    diffusion (small), the min residual under the heat operator (order one:
    the family is not heat-invariant), and the worst error in the first
    integral a^2 - b^2 = omega^2.
    """
    if d < 3.0:
        raise DomainError("the exact family needs d >= 3")
    quad = Quadrature(d, n)
    z = quad.nodes
    m = 1.0 - 1.0 / d
    fde_resids, heat_resids, ident = [], [], []
    for t in np.linspace(0.0, t_end, n_times):
        a, b = conformal_coefficients(d, omega, t0, float(t))
        ident.append(abs(a * a - b * b - omega * omega))
        if a <= abs(b):
            raise PositivityError("family left the positivity cone a > |b|")
        base = a + b * z
        drho_dt = d * (d - 1.0) * b * (b + a * z) * base ** (-(d + 1.0))
        rho_m = GridFn.from_values(quad, base ** (-(d - 1.0)))
        lrho_m = GridFn.from_coeffs(quad, -quad.eigenvalues * rho_m.coeffs)
        fde_resids.append(
            float(np.sqrt(np.sum(quad.weights * (drho_dt - lrho_m.values) ** 2)))
        )
        rho = GridFn.from_values(quad, base ** (-float(d)))
        lrho = GridFn.from_coeffs(quad, -quad.eigenvalues * rho.coeffs)
        heat_resids.append(float(np.sqrt(np.sum(quad.weights * (drho_dt - lrho.values) ** 2))))
    return {
        "d": d,
        "omega": omega,
        "t0": t0,
        "max_fde_residual": max(fde_resids),
        "min_heat_residual": min(heat_resids),
        "max_identity_error": max(ident),
        "fde_residuals": fde_resids,
        "heat_residuals": heat_resids,
    }
