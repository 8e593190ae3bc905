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
from .errors import ConservationError, DomainError, FlowError, PositivityError, PositivityLossError
from .functionals import _dirichlet, _entropy

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
    return float(quad.weights @ rho)


def make_state(form: Form, spec: FlowSpec, f0: GridFn, t: float = 0.0) -> FlowState:
    """Validated initial state; computes the conserved quantity, which must
    be finite (ConservationError)."""
    if form is Form.POINTWISE and spec.beta_is_infinite:
        raise DomainError(
            "the rescaled pointwise form does not exist for infinite beta; "
            "run the density form with m = 1 - 2/p instead"
        )
    f0.require_positive(what="initial datum")
    with np.errstate(over="ignore"):  # w^(beta p) past the float range: refused below
        conserved = conserved_quantity(f0.quad, _density_values(form, spec, f0))
    if not math.isfinite(conserved):
        raise ConservationError(
            f"the initial datum's conserved quantity is {conserved}, not finite", t=t)
    return FlowState(t, f0, form, spec, conserved)


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
    the floor, and FlowError if sigma is not finite: a power of the state
    (rho^m, or the mobility w^(2-2 beta)) passed the float range.
    """
    lam = quad.eigenvalues
    vals = quad.padded_values(c)
    if vals.min() <= EPS_POS:
        raise PositivityError("state lost positivity on the evaluation grid")
    if state_form is Form.DENSITY:
        m = spec.m
        power = vals**m
        sigma = m * (power / vals).max()
    else:
        nl = spec.kappa * quad.padded_nu() * quad.padded_derivative(c) ** 2 / vals
        if spec.beta == 1.0:
            return quad.project_padded(nl) - lam * c, 1.0
        power = vals ** (2.0 - 2.0 * spec.beta)  # the mobility
        sigma = power.max()
    if not sigma < math.inf:  # also NaN, from inf / inf
        raise FlowError(f"the stiffness bound is {sigma}: a power of the state overflows")
    if state_form is Form.DENSITY:
        return -lam * quad.project_padded(power), sigma
    return quad.project_padded(power * (nl - quad.padded_values(lam * c))), sigma


def _ars222(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, g0: np.ndarray,
            sl: np.ndarray, dt: float):
    """One ARS(2,2,2) step of dt from c, given g0 = G(c) and the implicit
    diagonal sl = sigma lam of its stiffness bound; returns the new
    coefficients and the diagonal solve.

    The second stage's implicit terms fold into one: with the explicit
    stages k1e = g0 + sl c, k2e = g1 + sl c1 and the implicit k1i = -sl c1,
    (1 - delta) k2e + (1 - gamma) k1i = (1 - delta) g1 + (gamma - delta) sl c1,
    and gamma - delta = 1 exactly for this tableau."""
    solve = 1.0 / (1.0 + dt * _IMEX_GAMMA * sl)
    k1e = g0 + sl * c
    c1 = (c + dt * _IMEX_GAMMA * k1e) * solve
    g1, _ = _full_rhs(form, spec, quad, c1)
    return (c + dt * (_IMEX_DELTA * k1e + (1.0 - _IMEX_DELTA) * g1 + sl * c1)) * solve, solve


def _imex_step(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, dt: float):
    """One third-order macro step of dt: ARS(2,2,2) doubled, with damped
    local Richardson extrapolation.

    ``full`` is one ARS(2,2,2) step of dt and ``two`` two steps of dt/2; both
    start from G(c), evaluated once, so a macro step costs five right-hand
    sides.  Each step freezes sigma over its stages (a per-stage sigma would
    break the splitting consistency and drop it to first order), so every
    solve is diagonal, and sigma lam is formed once per start point: at c,
    shared by ``full`` and the first half step, and at the half step.  The
    result is ``two + damp (two - full) / 3`` with ``damp`` the first half
    step's solve 1 / (1 + (dt/2) gamma sigma lam): 1 - O(dt) on resolved
    modes, so the local error stays O(dt^4), and O(1 / (dt sigma lam)) on
    stiff ones, where the plain correction would amplify them (see the
    module docstring).
    """
    lam = quad.eigenvalues
    g0, sigma = _full_rhs(form, spec, quad, c)
    sl = sigma * lam
    full, _ = _ars222(form, spec, quad, c, g0, sl, dt)
    half, damp = _ars222(form, spec, quad, c, g0, sl, 0.5 * dt)
    g1, sigma1 = _full_rhs(form, spec, quad, half)
    two, _ = _ars222(form, spec, quad, half, g1, sigma1 * lam, 0.5 * dt)
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
    return FlowState(state.t + dt, f, state.form, state.spec, state.conserved0)


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
    step again.  An accepted step whose top modes carry more than the
    resolution tolerance raises ResolutionError: a smaller dt cannot
    resolve them, and an unresolved flow can drive dt toward DT_MIN over
    hundreds of thousands of attempts.
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
            with np.errstate(over="ignore"):  # a power past the float range: _full_rhs refuses it
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
        trial.f.require_resolved()
        state, c_prev = trial, c_now
        if local < 0.1 * budget and h >= dt:
            dt = min(dt * 1.3, dt_max)
    return replace(state, t=t_target), dt, c_prev


@dataclass
class Trajectory:
    """Recorded samples of one flow run: at each, the normalized deficit
    F = I_p/d - E_p, its two terms, the conserved quantity and the z-moment
    of the density."""

    form: Form
    times: list[float]
    F: list[float]
    E_p: list[float]
    I_p: list[float]
    conserved: list[float]
    moment_z: list[float]
    final_state: FlowState

    def monotone_decreasing_F(self) -> bool:
        return all(f1 <= f0 + TOL_MONO for f0, f1 in zip(self.F, self.F[1:]))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,F,E_p,I_p,conserved,moment_z\n")
            for row in zip(self.times, self.F, self.E_p, self.I_p, self.conserved, self.moment_z):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _sample_report(state: FlowState, rho: np.ndarray) -> tuple[float, float]:
    """(E_p, I_p) at a sample from its nodal density rho.  I_p is the
    Dirichlet form of u = rho^(1/p) on the density form and of u = w^beta
    (w itself at beta = 1) on the pointwise form, read off u's coefficients
    under the resolution check."""
    quad, p, beta = state.f.quad, state.params.p, state.spec.beta
    if state.form is Form.DENSITY:
        u = GridFn.from_values(quad, rho ** (1.0 / p))
    else:
        u = state.f if beta == 1.0 else GridFn.from_values(quad, state.f.values**beta)
    u.require_resolved()
    return _entropy(quad.weights, rho, p), _dirichlet(quad, u.coeffs)


def evolve(
    state: FlowState,
    t_end: float,
    samples: int = 50,
    dt_max: float = math.inf,
    tol_cons: float = TOL_CONS,
) -> Trajectory:
    """Integrate to t_end, recording ``samples`` evenly spaced snapshots
    (endpoints included); each evaluates E_p and I_p once.  Step errors
    propagate with the failing time attached, and a sample whose top modes
    carry more than the resolution tolerance raises ResolutionError."""
    if not (math.isfinite(t_end) and t_end > state.t):
        raise DomainError(f"t_end must be finite and exceed the current time, got {t_end}")
    if samples < 2:
        raise DomainError("need at least 2 samples (both endpoints)")
    if not dt_max > 0.0:
        raise DomainError(f"dt_max must be positive, got {dt_max}")
    if not 0.0 < tol_cons < math.inf:
        raise DomainError(f"tol_cons must be positive and finite, got {tol_cons}")
    horizon = t_end - state.t
    times = np.linspace(state.t, t_end, samples)
    dt = min(dt_max, horizon / max(8 * (samples - 1), 64))
    d = state.f.quad.d
    traj = Trajectory(state.form, [], [], [], [], [], [], state)

    def record(st: FlowState):
        rho = _density_values(st.form, st.spec, st.f)
        e, i = _sample_report(st, rho)
        traj.times.append(st.t)
        traj.F.append(i / d - e)
        traj.E_p.append(e)
        traj.I_p.append(i)
        traj.conserved.append(conserved_quantity(st.f.quad, rho))
        traj.moment_z.append(float(st.f.quad.z_weights @ rho))

    record(state)
    current, c_prev = state, None
    for t_next in times[1:]:
        current, dt, c_prev = _advance_to(current, float(t_next), dt, dt_max, tol_cons, horizon,
                                          c_prev)
        record(current)
    traj.final_state = current
    return traj
