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

The heat flow integrates exactly in either form (``integrates_exactly``):
``_exact`` runs its density form, from rho0 = u0^p on the pointwise form,
and synthesizes the requested times in blocks of at most _BLOCK, one
product each; ``evolve`` reports each block with one analysis of the
stacked u = rho^(1/p) (``_sample_report``).  Every other case
takes fourth-order ETDRK4 steps (Cox and Matthews 2002) on the split
c' = G(c) = -sigma lam c + N(c), whose diagonal linear part is exact with
the scalar stiffness bound sigma frozen per step.  A scan of c' = -r sigma
lam c over r in [0.01, 1] and z = -dt sigma lam in [-1e9, -1e-3] keeps the
amplification factor |R| <= 1.  dt adapts under a conservation-drift budget
and a positivity guard (steps are rejected, never clamped).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import FlowSpec, Params
from .discretization import EPS_POS, GridFn, Quadrature, require_resolved
from .errors import ConservationError, DomainError, FlowError, PositivityError, PositivityLossError
from .functionals import _dirichlet, _entropy

#: defaults for the adaptive controller
TOL_CONS = 1e-9
TOL_MONO = 1e-9
DT_MIN = 1e-12
#: the exact flow synthesizes and records its samples in blocks of at most
#: this many, which bounds its working memory whatever the sample count
_BLOCK = 64

#: Taylor coefficients of phi1(z/2) and the ETDRK4 weights f1, f2, f3 in z^k,
#: k = 0..17, each the p(k) listed below over (k + 3)!
_SERIES = np.array([[0.5**k * (k + 2) * (k + 3), (k + 1) ** 2, k + 1, 1 - k]
                    for k in range(18)]).T / [math.factorial(k + 3) for k in range(18)]
#: the same in closed form over y, y^2, y^3 (y = 1/z), these times e^z, and
#: y e^(z/2): f1 = -y^2 - 4 y^3 + e^z (y - 3 y^2 + 4 y^3), and so on
_CLOSED = np.array([[-2, 0, 0, 0, 0, 0, 2], [0, -1, -4, 1, -3, 4, 0],
                    [0, 1, 2, 0, 1, -2, 0], [-1, -3, -4, 0, -1, 4, 0]], dtype=float)


class Form(enum.Enum):
    DENSITY = "density"
    POINTWISE = "pointwise"
    # the name perfbench/workloads.py reads; the benchmark change of ROADMAP
    # item 2 drops it
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
    """The heat flow (beta = 1) in either form runs the exact diagonal
    exponential of L (``_exact``); every other case takes ETDRK4 steps."""
    return spec.beta == 1.0


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
    """(G(c), stiffness bound sigma) for the ETDRK4-stepped flows.

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
        power = vals ** (2.0 - 2.0 * spec.beta)  # the mobility
        sigma = power.max()
    if not sigma < math.inf:  # also NaN, from inf / inf
        raise FlowError(f"the stiffness bound is {sigma}: a power of the state overflows")
    if state_form is Form.DENSITY:
        return -lam * quad.project_padded(power), sigma
    return quad.project_padded(power * (nl - quad.padded_values(lam * c))), sigma


def _etdrk4_weights(z: np.ndarray):
    """(e^(z/2), phi1(z/2), f1, f2, f3) at z <= 0 of ascending |z|, with
    phi1(x) = (e^x - 1)/x and the ETDRK4 weights f1 = (-4 - z + e^z (4 - 3z +
    z^2))/z^3, f2 = (2 + z + e^z (z - 2))/z^3, f3 = (-4 - 3z - z^2 + e^z (4 - z))/z^3:
    Taylor series on the prefix |z| < 1, closed forms in 1/z beyond it."""
    j = int(np.count_nonzero(z > -1.0))
    e_half = np.exp(0.5 * z)
    powers = np.empty((_SERIES.shape[1], j))
    powers[0], powers[1:] = 1.0, z[:j]
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    basis = np.empty((7, z.size - j))
    basis[:3] = 1.0 / z[j:]
    np.multiply.accumulate(basis[:3], axis=0, out=basis[:3])
    basis[3:6], basis[6] = basis[:3] * e_half[j:] ** 2, basis[0] * e_half[j:]
    # closed forms in 1/z stay finite where z^2 e^z is 0 * inf; stacked
    # vector-matrix products are one BLAS gemv each, no buffered gemm
    rows = np.concatenate((_SERIES[:, None] @ powers, _CLOSED[:, None] @ basis), axis=2)
    return (e_half, *rows[:, 0])


def _imex_step(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, dt: float):
    """One ETDRK4 step of dt from c (Cox and Matthews 2002): four right-hand
    sides, all split by the first one's sigma.  With E = e^(z/2), phi =
    phi1(z/2) and z = -dt sigma lam, the stages a = E c + (dt/2) phi N(c),
    b = E c + (dt/2) phi N(a), d = E a + (dt/2) phi (2 N(b) - N(c)) give
    E^2 c + dt (f1 N(c) + 2 f2 (N(a) + N(b)) + f3 N(d)).  The name is kept
    for perfbench/tracer.py, which wraps it."""
    g0, sigma = _full_rhs(form, spec, quad, c)
    sl = sigma * quad.eigenvalues
    e_half, phi, f1, f2, f3 = _etdrk4_weights(-dt * sl)
    half = 0.5 * dt * phi
    n0 = g0 + sl * c
    ec = e_half * c
    a = ec + half * n0
    na = _full_rhs(form, spec, quad, a)[0] + sl * a
    b = ec + half * na
    nb = _full_rhs(form, spec, quad, b)[0] + sl * b
    d = e_half * a + half * (2.0 * nb - n0)
    nd = _full_rhs(form, spec, quad, d)[0] + sl * d
    return e_half * ec + dt * (f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nd)


def _exact(state: FlowState, times: np.ndarray):
    """The heat flow's density at the increasing times, in blocks of at most
    _BLOCK samples: each block's coefficients c0 e^(-lam (t - state.t)) are
    one stack, synthesized in one product.  A block yields its samples up to
    the first one that is not positive, as their times, the (n, k) stack of
    their nodal values and the coefficients of the last one; the first
    non-positive sample raises PositivityLossError when the iterator passes
    them, so an earlier failure of the caller wins."""
    quad, pointwise = state.f.quad, state.form is Form.POINTWISE
    c0 = quad.to_coeffs(state.f.values**state.params.p) if pointwise else state.f.coeffs
    for start in range(0, times.size, _BLOCK):
        ts = times[start : start + _BLOCK]
        with np.errstate(over="ignore"):  # at a huge time the exponent is -inf: e^(-inf) = 0
            coeffs = np.multiply.outer(quad.eigenvalues, state.t - ts)
        np.exp(coeffs, out=coeffs)
        coeffs *= c0[:, None]
        values = quad.to_values(coeffs)
        positive = values.min(axis=0) > EPS_POS
        k = ts.size if positive.all() else int(positive.argmin())
        if k:  # the block keeps only the last column of its coefficients
            last, coeffs = coeffs[:, k - 1].copy(), None
            yield ts[:k], values[:, :k], last
        if k < ts.size:
            raise PositivityLossError("the flow lost positivity", t=float(ts[k]))


def _exact_state(state: FlowState, t: float, rho: np.ndarray, c: np.ndarray) -> FlowState:
    """The exact flow's state at t from its density's nodal values (a column
    of a block) and coefficients, read as u = rho^(1/p) on the pointwise
    form."""
    # a strided column rounds the sample's sums differently
    f = GridFn(state.f.quad, np.ascontiguousarray(rho), c)
    if state.form is Form.POINTWISE:
        f = GridFn.from_values(f.quad, f.values ** (1.0 / state.params.p))
    return FlowState(float(t), f, state.form, state.spec, state.conserved0)


def step(state: FlowState, dt: float) -> FlowState:
    """Advance one step, exactly or by one ETDRK4 step
    (``integrates_exactly``).  Raises if positivity is lost."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    if integrates_exactly(state.form, state.spec):
        ts, rho, c = next(_exact(state, np.array([state.t + dt])))
        return _exact_state(state, ts[0], rho[:, 0], c)
    quad = state.f.quad
    f = GridFn.from_coeffs(quad, _imex_step(state.form, state.spec, quad, state.f.coeffs, dt))
    if not f.is_positive():
        raise PositivityLossError("the flow lost positivity", t=state.t + dt)
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
    """Step from state to t_target by ETDRK4 steps under the drift budget;
    returns the state at t_target, the next dt and the drift baseline for
    the next segment.  The exact flow never comes here (``evolve``).

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

    def columns(self) -> tuple[list[float], ...]:
        return self.times, self.F, self.E_p, self.I_p, self.conserved, self.moment_z

    def monotone_decreasing_F(self) -> bool:
        return all(f1 <= f0 + TOL_MONO for f0, f1 in zip(self.F, self.F[1:]))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,F,E_p,I_p,conserved,moment_z\n")
            for row in zip(*self.columns()):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _sample_report(state: FlowState, rho: np.ndarray):
    """(E_p, I_p) from a sample's nodal density rho, or two arrays of s from
    an (n, s) stack of the exact flow's densities.  I_p is the Dirichlet form
    of u = rho^(1/p), read off u's coefficients under the resolution check
    (per column: the first unresolved one raises).  A single pointwise
    sample forms u = w^beta from its state instead (w itself at beta = 1);
    a stack is analysed in one product."""
    quad, p, beta = state.f.quad, state.params.p, state.spec.beta
    e = _entropy(quad.weights, rho, p)  # first, so its temporaries and u are not held at once
    if rho.ndim == 2 or state.form is Form.DENSITY:
        c = quad.to_coeffs(rho ** (1.0 / p))
    else:
        c = state.f.coeffs if beta == 1.0 else quad.to_coeffs(state.f.values**beta)
    require_resolved(c)
    return e, _dirichlet(quad, c)


def evolve(
    state: FlowState,
    t_end: float,
    samples: int = 50,
    dt_max: float = math.inf,
    tol_cons: float = TOL_CONS,
) -> Trajectory:
    """Integrate to t_end, recording ``samples`` evenly spaced snapshots
    (endpoints included); each evaluates E_p and I_p once.  The heat flow,
    in either form, synthesizes its later samples in blocks of at most
    _BLOCK (``_exact``) and records each block with one stacked report;
    every other flow steps from sample to sample and records each one
    alone, as it does the datum.  Step errors propagate with the failing
    time attached, and a sample whose top modes carry more than the
    resolution tolerance raises ResolutionError: the first failing sample
    decides, and at one sample positivity is checked first."""
    if not (math.isfinite(t_end) and t_end > state.t):
        raise DomainError(f"t_end must be finite and exceed the current time, got {t_end}")
    if samples < 2:
        raise DomainError("need at least 2 samples (both endpoints)")
    if not dt_max > 0.0:
        raise DomainError(f"dt_max must be positive, got {dt_max}")
    if not 0.0 < tol_cons < math.inf:
        raise DomainError(f"tol_cons must be positive and finite, got {tol_cons}")
    times = np.linspace(state.t, t_end, samples)
    quad = state.f.quad
    traj = Trajectory(state.form, [], [], [], [], [], [], state)

    def record(ts, st: FlowState, rho: np.ndarray):
        """Appends the samples at ts: one (rho a vector) or a stack's columns."""
        e, i = _sample_report(st, rho)
        rows = np.array([ts, i / quad.d - e, e, i, quad.weights @ rho, quad.z_weights @ rho])
        for column, x in zip(traj.columns(), rows.reshape(6, -1).tolist()):
            column.extend(x)

    record(state.t, state, _density_values(state.form, state.spec, state.f))
    if integrates_exactly(state.form, state.spec):
        for ts, rho, c in _exact(state, times[1:]):
            record(ts, state, rho)
        traj.final_state = _exact_state(state, ts[-1], rho[:, -1], c)
        return traj
    current, horizon, c_prev = state, t_end - state.t, None
    dt = min(dt_max, horizon / max(8 * (samples - 1), 64))
    for t in times[1:].tolist():
        current, dt, c_prev = _advance_to(current, t, dt, dt_max, tol_cons, horizon, c_prev)
        record(t, current, _density_values(current.form, current.spec, current.f))
    traj.final_state = current
    return traj
