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
case takes third-order macro steps: the two-stage, second-order IMEX scheme
ARS(2,2,2), whose implicit half is sigma*L with a scalar stiffness bound
sigma frozen per step (so every implicit solve is diagonal), taken once with
dt and twice with dt/2 and combined by local Richardson extrapolation.  The
extrapolation is damped mode by mode with the half step's diagonal solve.
On c' = -a lam c with implicit part sigma lam and r = a/sigma in (0, 1],
plain ARS(2,2,2) keeps |R| < 1, but the undamped combination grows a stiff
mode: for r in [0.38, 0.79] |R| exceeds 1 once z = dt sigma lam is large
(from z = 45 at r = 0.58, where |R| reaches 1.67, and from z = 91 at
r = 0.76).  The damped one keeps |R| <= 1 and the local error O(dt^4).
dt adapts under a conservation-drift budget and a positivity guard (steps
are rejected, never clamped).

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


def _ars222(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, g0: np.ndarray,
            sigma: float, dt: float):
    """One ARS(2,2,2) step of dt from c, given (g0, sigma) = G(c) and its
    stiffness bound; returns the new coefficients and the diagonal solve."""
    lam = quad.eigenvalues
    k1e = g0 + sigma * lam * c
    solve = 1.0 / (1.0 + dt * _IMEX_GAMMA * sigma * lam)
    c1 = (c + dt * _IMEX_GAMMA * k1e) * solve
    k1i = -sigma * lam * c1
    g1, _ = _full_rhs(form, spec, quad, c1)
    k2e = g1 + sigma * lam * c1
    c2 = (c + dt * (_IMEX_DELTA * k1e + (1.0 - _IMEX_DELTA) * k2e + (1.0 - _IMEX_GAMMA) * k1i)) * solve
    return c2, solve


def _imex_step(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, dt: float):
    """One third-order macro step of dt: ARS(2,2,2) doubled, with damped
    local Richardson extrapolation.

    ``full`` is one ARS(2,2,2) step of dt and ``two`` two steps of dt/2; both
    start from G(c), evaluated once, so a macro step costs five right-hand
    sides.  Each step freezes sigma over its stages (a per-stage sigma would
    break the splitting consistency and drop it to first order), so every
    solve is diagonal.  The result is ``two + damp (two - full) / 3`` with
    ``damp`` the first half step's solve 1 / (1 + (dt/2) gamma sigma lam):
    1 - O(dt) on resolved modes, so the local error stays O(dt^4), and
    O(1 / (dt sigma lam)) on stiff ones, where the plain correction would
    amplify them (see the module docstring).
    """
    g0, sigma = _full_rhs(form, spec, quad, c)
    full, _ = _ars222(form, spec, quad, c, g0, sigma, dt)
    half, damp = _ars222(form, spec, quad, c, g0, sigma, 0.5 * dt)
    two, _ = _ars222(form, spec, quad, half, *_full_rhs(form, spec, quad, half), 0.5 * dt)
    return two + damp * (two - full) / 3.0


def step(state: FlowState, dt: float) -> FlowState:
    """Advance one step, exactly or by one IMEX macro step
    (``integrates_exactly``).  Raises if positivity is lost."""
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
    c_prev: float | None,
) -> tuple[FlowState, float, float | None]:
    """Step from state to t_target, exactly in one hop or by IMEX macro steps
    under the drift budget; returns the state at t_target, the next dt and
    the drift baseline for the next segment.

    The baseline ``c_prev`` is the conserved quantity of the last accepted
    step, or None on the first segment.  It is then synthesized from the
    coefficients, as every trial is, so the datum's values -> coeffs ->
    values error is not counted as drift.  A rejected attempt is retried
    from the same state, so it passes the same coefficient array to the
    step again.
    """
    if integrates_exactly(state.form, state.spec):
        return replace(step(state, t_target - state.t), t=t_target), dt, c_prev
    quad = state.f.quad
    noise_floor = 1e-15 * max(1.0, abs(state.conserved0))
    if c_prev is None:
        c_prev = conserved_quantity(
            quad, _density_values(state.form, state.spec, GridFn.from_coeffs(quad, state.f.coeffs)))
    while state.t < t_target - 1e-14 * max(1.0, abs(t_target)):
        h = min(dt, dt_max, t_target - state.t)
        budget = 0.5 * tol_cons * h / horizon + noise_floor
        try:
            trial = step(state, h)
        except (PositivityError, PositivityLossError):
            trial = None
        if trial is not None:
            c_now = conserved_quantity(quad, _density_values(state.form, state.spec, trial.f))
            local = abs(c_now - c_prev)
            cumulative = abs(c_now - state.conserved0)
            if local > budget:
                trial = None
            elif cumulative > tol_cons:
                raise ConservationError(
                    f"conserved quantity drifted by {cumulative:.3e} > {tol_cons:.1e}",
                    t=trial.t,
                )
        if trial is None:
            dt *= 0.5
            if dt < DT_MIN:
                raise PositivityLossError(
                    "step size underflow (positivity or drift unreachable)", t=state.t
                )
            continue
        state, c_prev = trial, c_now
        if local < 0.1 * budget and h >= dt:
            dt = min(dt * 1.3, dt_max)
    return replace(state, t=t_target), dt, c_prev


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

    def monotone_decreasing_F(self) -> bool:
        return all(f1 <= f0 + TOL_MONO for f0, f1 in zip(self.F, self.F[1:]))

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
    current, c_prev = state, None
    for t_next in times[1:]:
        current, dt, c_prev = _advance_to(current, float(t_next), dt, dt_max, tol_cons, horizon,
                                          c_prev)
        record(current)
    traj.final_state = current
    if with_reports and samples >= 3:
        dt_samp = traj.times[1] - traj.times[0]
        for i in range(1, samples - 1):
            numeric = d * (traj.F[i + 1] - traj.F[i - 1]) / (2.0 * dt_samp)
            traj.reports[i] = traj.reports[i].with_numeric(numeric)
    return traj


# -- moment decay ------------------------------------------------------------


def moment_decay_check(state: FlowState, t_end: float) -> dict:
    """Track M(t) = int z u^p at 26 samples along the pointwise heat flow and
    compare with the exponential law M(0) e^(-d t).

    The default step controller chooses the steps.  At p = 1 the conserved
    quantity is the mass, which every step keeps exactly, so the drift
    budget never limits dt and only the sample spacing does: the law then
    holds with a 3-6x margin on 1e-7 (1.7e-8 to 3.1e-8 at d = 5, 12 and 30),
    until the step controller controls the local error itself.
    """
    if state.form is not Form.POINTWISE or state.spec.beta != 1.0:
        raise DomainError("moment decay check runs on the pointwise heat form")
    d = state.f.quad.d
    traj = evolve(state, t_end, samples=26, with_reports=False)
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
