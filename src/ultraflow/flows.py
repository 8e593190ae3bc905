"""Time integration of the nonlinear-diffusion family in its two forms, with
conservation and monotonicity instrumentation.

Every flow is a member of the family selected by a ``FlowSpec`` (beta, with
m derived from it).  Each member has a density form and a pointwise form:

    DENSITY    d rho/dt = L rho^m                              int rho
    POINTWISE  d w/ds   = w^(2-2b) (L w + k nu |w'|^2 / w)     int w^(b p)

The heat flow is the beta = 1 member (m = 1, kappa = p - 1, w = u).  The
CLI names these four cases fde, w, heat and u.  The pointwise form, with
the gradient weight nu = 1 - z^2, is the density form read through
rho = w^(beta p) on the clock s = m t (``_clock_rate``).  So one flow runs
both, on the family's own clock s:

    rho_s = L phi_m(rho),    phi_m(rho) = expm1(m log rho) / m    (log rho at m = 0),

forward-parabolic for every m, since phi_m' = rho^(m-1) > 0.  A pointwise
state reads its density through w = rho^(1/(beta p)) at the same s; a
density state reads it at t = s / m, so at m = 0 it stands still, and at
m < 0, where d rho/dt = L rho^m runs backward, it is refused (DomainError).
A run converts its datum to rho once and its final state back once, and
every sample reports from rho.

The heat flow (beta = 1, s = t) integrates exactly (``integrates_exactly``):
``_exact`` hands out the coefficients c0 e^(-lam s) at the requested clock
times.  Every other member steps once to the last time (``_stepped``) and
reads each sample inside a step off that step's order-3 continuous
extension (``_dense``), which takes no right-hand side; only the last step
is cut, to land on the last time.  Either flow only hands ``evolve`` its
samples' coefficients, in stacks of at most _BLOCK, and ``evolve`` alone
holds the rule for samples: one synthesis per stack, the positivity guard
and, on a stepped flow, the drift check per column, one report of the
columns before the first failure (``_sample_report``), then the failure at
that column's time.
The steps are fourth-order ETDRK4 (Cox and Matthews 2002) on the split
c' = G(c) = -sigma lam c + N(c), whose diagonal linear part is exact with
the scalar stiffness bound sigma = max phi_m' frozen per step.  A scan of
c' = -r sigma lam c over r in [0.01, 1] and z = -dt sigma lam in
[-1e9, -1e-3] keeps the amplification factor |R| <= 1.  The step size
comes from a local-error estimate (Hairer and Wanner, Solving ODEs II,
IV.8), and a positivity guard rejects steps (never clamps them).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import FlowSpec, Params
from .discretization import EPS_POS, GridFn, Quadrature, require_resolved
from .errors import (ConservationError, DomainError, FlowError, PositivityError,
                     PositivityLossError, ResolutionError)
from .functionals import _dirichlet, _entropy

#: defaults: the drift of the conserved quantity a run may show, the rise of
#: F that still counts as nonincreasing, a step's local-error estimate
#: relative to the state's coefficient 2-norm, and the step size (on the
#: clock s) below which the controller gives up
TOL_CONS = 1e-9
TOL_MONO = 1e-9
TOL_STEP = 1e-7
DT_MIN = 1e-12
#: both flows hand out their later samples in stacks of at most this many,
#: which bounds a run's working memory whatever the sample count
_BLOCK = 64

#: Taylor coefficients in z^k, k = 0..17, each the p(k) listed below over
#: (k + 3)!: first of phi1(z/2) and the ETDRK4 weights f1, f2, f3, then of
#: phi1, phi2, phi3 at z (phi_j(z) = sum_k z^k / (k + j)!)
_SERIES = np.array([[0.5**k * (k + 2) * (k + 3), (k + 1) ** 2, k + 1, 1 - k,
                     (k + 2) * (k + 3), k + 3, 1]
                    for k in range(18)]).T / [math.factorial(k + 3) for k in range(18)]
#: the same in closed form over y, y^2, y^3 (y = 1/z), these times e^z, and
#: y e^(z/2): f1 = -y^2 - 4 y^3 + e^z (y - 3 y^2 + 4 y^3), and so on, then
#: phi3 = -y/2 - y^2 - y^3 + y^3 e^z, and so on
_CLOSED = np.array([[-2, 0, 0, 0, 0, 0, 2], [0, -1, -4, 1, -3, 4, 0],
                    [0, 1, 2, 0, 1, -2, 0], [-1, -3, -4, 0, -1, 4, 0],
                    [-1, 0, 0, 1, 0, 0, 0], [-1, -1, 0, 0, 1, 0, 0],
                    [-0.5, -1, -1, 0, 0, 1, 0]])
#: the rows of the two tables that a step reads, phi1(z/2) and the ETDRK4
#: weights f1 = (-4 - z + e^z (4 - 3z + z^2))/z^3, f2 = (2 + z + e^z (z - 2))/z^3
#: and f3 = (-4 - 3z - z^2 + e^z (4 - z))/z^3, and those its continuous
#: extension reads
_STEP_ROWS, _PHI_ROWS = slice(0, 4), slice(4, 7)


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


def integrates_exactly(spec: FlowSpec) -> bool:
    """The heat flow (beta = 1) in either form runs the exact diagonal
    exponential of L (``_exact``); every other case takes ETDRK4 steps."""
    return spec.beta == 1.0


def _density_values(form: Form, spec: FlowSpec, f: GridFn) -> np.ndarray:
    """Nodal density: rho itself, or w^(beta p) for the pointwise form."""
    return f.values if form is Form.DENSITY else f.values ** (spec.beta * spec.params.p)


def make_state(form: Form, spec: FlowSpec, f0: GridFn) -> FlowState:
    """Validated initial state at t = 0; computes the conserved quantity,
    which must be finite (ConservationError)."""
    if form is Form.POINTWISE and spec.beta_is_infinite:
        raise DomainError(
            "the rescaled pointwise form does not exist for infinite beta; "
            "run the density form with m = 1 - 2/p instead"
        )
    f0.require_positive(what="initial datum")
    with np.errstate(over="ignore"):  # w^(beta p) past the float range: refused below
        conserved = float(f0.quad.weights @ _density_values(form, spec, f0))
    if not math.isfinite(conserved):
        raise ConservationError(
            f"the initial datum's conserved quantity is {conserved}, not finite", t=0.0)
    return FlowState(0.0, f0, form, spec, conserved)


def _clock_rate(state: FlowState) -> float:
    """ds/dt: 1 on the pointwise form, m on the density form (not m < 0)."""
    rate = 1.0 if state.form is Form.POINTWISE else state.spec.m
    if rate < 0.0:
        raise DomainError(f"d rho/dt = L rho^m runs backward at m = {rate} < 0; "
                          "the pointwise form runs this member forward")
    return rate


def _density(state: FlowState) -> GridFn:
    f = state.f
    return f if state.form is Form.DENSITY else GridFn.from_values(
        f.quad, _density_values(state.form, state.spec, f))


def _from_density(form: Form, spec: FlowSpec, rho: GridFn) -> GridFn:
    """What a state of this form holds for the density rho: rho, or w."""
    if form is Form.DENSITY:
        return rho
    return GridFn.from_values(rho.quad, rho.values ** (1.0 / (spec.beta * spec.params.p)))


# -- right-hand sides in coefficient space ---------------------------------


def _full_rhs(spec: FlowSpec, quad: Quadrature, c: np.ndarray):
    """(G(c), stiffness bound sigma) of rho_s = L phi_m(rho) in coefficients:
    phi_m on the padded grid, projected back (dealiasing), and sigma the
    largest phi_m' = rho^(m-1), at an end of the range.  Raises
    PositivityError if the padded values touch the floor, and FlowError if
    rho^m <= sigma max rho is not finite: a power of the state overflows."""
    vals = quad.padded_values(c)
    lo, hi = vals.min(), vals.max()
    if lo <= EPS_POS:
        raise PositivityError("state lost positivity on the evaluation grid")
    m = spec.m
    sigma = max(lo ** (m - 1.0), hi ** (m - 1.0))
    if not sigma * hi < math.inf:  # also NaN
        raise FlowError(f"the stiffness bound is {sigma}: a power of the state overflows")
    log_rho = np.log(vals)
    phi = np.expm1(m * log_rho) / m if m else log_rho
    return -quad.eigenvalues * quad.project_padded(phi), sigma


def _weights(z: np.ndarray, rows: slice):
    """e^(z/2) and the table rows at z <= 0 of ascending |z|: Taylor series
    on the prefix |z| < 1, closed forms in 1/z beyond it."""
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
    rows = np.concatenate((_SERIES[rows, None] @ powers, _CLOSED[rows, None] @ basis), axis=2)
    return (e_half, *rows[:, 0])


def _imex_step(form: Form, spec: FlowSpec, quad: Quadrature, c: np.ndarray, dt: float):
    """One ETDRK4 step of dt from c (Cox and Matthews 2002), the 2-norm of
    its local-error estimate and the stages its continuous extension reads
    (``_dense``).  Four right-hand sides, all split by the first one's
    sigma: with E = e^(z/2), phi = phi1(z/2) and z = -dt sigma lam, the
    stages a = E c + (dt/2) phi N(c), b = E c + (dt/2) phi N(a), d = E a +
    (dt/2) phi (2 N(b) - N(c)) give E^2 c + dt (f1 N(c) + 2 f2 (N(a) +
    N(b)) + f3 N(d)).  The embedded ETD2 value E^2 c + dt (phi1(z) N(c) +
    phi2(z) (N(d) - N(c))) differs from it by 2 dt f2 (N(a) + N(b) - N(c) -
    N(d)), as f1 - phi1 + phi2 = f3 - phi2 = -2 f2.  ``form`` is not read;
    perfbench/tracer.py wraps the step by this name and signature."""
    g0, sigma = _full_rhs(spec, quad, c)
    sl = sigma * quad.eigenvalues
    z = -dt * sl
    e_half, phi, f1, f2, f3 = _weights(z, _STEP_ROWS)
    half = 0.5 * dt * phi
    n0 = g0 + sl * c
    ec = e_half * c
    a = ec + half * n0
    na = _full_rhs(spec, quad, a)[0] + sl * a
    b = ec + half * na
    nb = _full_rhs(spec, quad, b)[0] + sl * b
    d = e_half * a + half * (2.0 * nb - n0)
    nd = _full_rhs(spec, quad, d)[0] + sl * d
    ab, w2 = na + nb, 2.0 * dt * f2
    error = w2 * (ab - n0 - nd)
    return (e_half * ec + dt * (f1 * n0 + f3 * nd) + w2 * ab, math.sqrt(error @ error),
            (c, z, n0, ab, nd))


def _dense(stages, dt: float, theta: float) -> np.ndarray:
    """The coefficients at theta dt into the ETDRK4 step of dt with these
    stages: its order-3 continuous extension (Hochbruck and Ostermann, Acta
    Numerica 2010), e^x c + dt (b1 N(c) + b2 (N(a) + N(b)) + b4 N(d)) at
    x = theta z, with b1 = theta phi1 - 3 theta^2 phi2 + 4 theta^3 phi3,
    b2 = 2 theta^2 phi2 - 4 theta^3 phi3 and b4 = -theta^2 phi2 + 4 theta^3
    phi3 at x.  At theta = 1 these are the step's f1, 2 f2 and f3; it takes
    no right-hand side, and mode 0 (z = 0, N = 0) keeps c's."""
    c, z, n0, ab, nd = stages
    e_half, phi1, phi2, phi3 = _weights(theta * z, _PHI_ROWS)
    t2, t3 = theta**2 * phi2, theta**3 * phi3
    b4 = 4.0 * t3 - t2  # so b1 = theta phi1 + b4 - 2 t2 and b2 = t2 - b4
    return e_half * (e_half * c) + dt * ((theta * phi1 + b4 - 2.0 * t2) * n0
                                         + (t2 - b4) * ab + b4 * nd)


def _exact(rho: GridFn, s: np.ndarray):
    """The heat flow's coefficients c0 e^(-lam s) from the density rho at
    the increasing clock times s, as (n, k) stacks of at most _BLOCK
    columns, one outer product each."""
    for start in range(0, s.size, _BLOCK):
        with np.errstate(over="ignore"):  # at a huge time the exponent is -inf: e^(-inf) = 0
            coeffs = np.multiply.outer(rho.quad.eigenvalues, -s[start : start + _BLOCK])
        np.exp(coeffs, out=coeffs)
        coeffs *= rho.coeffs[:, None]
        yield coeffs


# -- adaptive stepping ------------------------------------------------------


def _advance_to(spec: FlowSpec, step: tuple, s_target: float, s_end: float, h: float,
                h_max: float) -> tuple[np.ndarray, tuple, float]:
    """The density's coefficients at s_target on the clock s, the last
    accepted step and the next step size.  ``step`` is the last accepted
    step as (its start, dt, stages, the density it ends at); the datum is a
    step of dt = 0.  While it ends before s_target, ETDRK4 steps of at most
    h_max follow; only one that would pass s_end is cut, to end there.  The
    coefficients at s_target are those of the end of the step that reaches
    it, where they meet (to 1e-14), or else that step's continuous
    extension (``_dense``).  The exact flow never comes here (``evolve``).

    A step is accepted when its local-error estimate, the distance of the
    embedded ETD2 value in the coefficient 2-norm (the L2(nu) norm), is at
    most TOL_STEP times the norm of the state it starts from.  The next
    step scales by 0.9 (tol/error)^(1/3) (Hairer and Wanner, IV.8) within
    [0.2, 5], not above 1 after a rejection; a step that loses positivity
    (or whose estimate is NaN) halves.  A rejected attempt passes the same
    coefficient array to the step again.  An accepted step whose top modes
    carry more than the resolution tolerance raises ResolutionError: a
    smaller step cannot resolve them.  A step size below DT_MIN raises
    PositivityLossError at the clock time s where it starts, which
    ``evolve`` reports as a flow time."""
    start, size, stages, rho = step
    quad, s, grow = rho.quad, start + size, 5.0
    slack = 1e-14 * max(1.0, abs(s_target))
    while s < s_target - slack:
        dt = min(h, h_max, s_end - s)
        try:
            with np.errstate(over="ignore"):  # a power past the float range: _full_rhs refuses it
                c, error, trial_stages = _imex_step(Form.DENSITY, spec, quad, rho.coeffs, dt)
            trial = GridFn.from_coeffs(quad, c)
        except PositivityError:
            trial, error = None, math.inf
        tol = TOL_STEP * math.sqrt(rho.coeffs @ rho.coeffs)
        scale = 0.9 * (tol / error) ** (1.0 / 3.0) if error else math.inf
        positive = trial is not None and trial.is_positive()
        if positive and error <= tol:
            trial.require_resolved()
            h, grow = dt * min(grow, scale), 5.0
            start, size, stages, rho, s = s, dt, trial_stages, trial, s + dt
            continue
        h, grow = dt * (max(0.2, scale) if positive and error > tol else 0.5), 1.0
        if h < DT_MIN:
            raise PositivityLossError(
                "step size underflow (positivity or local error unreachable)", t=s)
    step = (start, size, stages, rho)
    if s <= s_target + slack:
        return rho.coeffs, step, h
    return _dense(stages, size, (s_target - start) / size), step, h


def _stepped(spec: FlowSpec, rho: GridFn, s: np.ndarray, h_max: float):
    """The stepped flow's coefficients from the density rho at the
    increasing clock times s > 0, as (n, k) stacks of at most _BLOCK
    columns: one step sequence to s[-1], steps of at most h_max, each
    sample read off the step that reaches it (``_advance_to``).  A step
    that fails yields the samples before it first, then raises."""
    s = s.tolist()
    step, h, columns = (0.0, 0.0, None, rho), min(h_max, s[-1] / 64), []
    for j, s_k in enumerate(s, start=1):
        try:
            c, step, h = _advance_to(spec, step, s_k, s[-1], h, h_max)
        except (FlowError, ResolutionError):
            if columns:
                yield np.column_stack(columns)
            raise
        columns.append(c)
        if len(columns) == _BLOCK or j == len(s):
            yield np.column_stack(columns)
            columns = []


@dataclass
class Trajectory:
    """Recorded samples of one flow run: at each, the normalized deficit
    F = I_p/d - E_p, its two terms, the conserved quantity and the z-moment
    of the density."""

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
    an (n, s) stack of a flow's densities; ``state`` is the run's
    datum, which gives the rule and p.  I_p is the Dirichlet form of
    u = rho^(1/p), read off u's coefficients under the resolution check
    (per column: the first unresolved one raises)."""
    quad, p = state.f.quad, state.params.p
    e = _entropy(quad.weights, rho, p)  # first, so its temporaries and u are not held at once
    c = quad.to_coeffs(rho ** (1.0 / p))
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
    (endpoints included); each evaluates E_p and I_p once, from the density.
    The datum is recorded alone.  The heat flow, in either form, hands out
    the later samples' coefficients in closed form (``_exact``); every
    other flow steps its density on the clock s once to t_end and reads
    them off its steps (``_stepped``; dt_max caps the steps on the state's
    clock, and a cap below DT_MIN on the clock s is refused, DomainError).

    This is the one rule for samples.  Each stack of at most _BLOCK is
    synthesized in one product.  Its first column that is not positive
    (PositivityLossError), or, on a stepped flow, whose conserved quantity
    is not within tol_cons of the datum's (ConservationError), fails;
    positivity is checked first.  The columns before it are recorded with
    one stacked report, where the first column with top modes above the
    resolution tolerance raises ResolutionError, and then the failure
    raises at its column's time: the first failing sample decides.  A
    failing step raises after the samples before it, and a step size
    underflow at the flow time where it happened.  On the density form at
    m = 0 the clock stands still, and every row repeats the datum's."""
    if not (math.isfinite(t_end) and 0.0 < t_end - state.t < math.inf):
        raise DomainError(f"t_end must be finite and exceed the current time, got {t_end}")
    if samples < 2:
        raise DomainError("need at least 2 samples (both endpoints)")
    if not dt_max > 0.0:
        raise DomainError(f"dt_max must be positive, got {dt_max}")
    if not 0.0 < tol_cons < math.inf:
        raise DomainError(f"tol_cons must be positive and finite, got {tol_cons}")
    rate = _clock_rate(state)
    if not rate * (t_end - state.t) < math.inf:
        raise DomainError(f"the flow's clock s = {rate} t passes the float range at t_end = {t_end}")
    # at rate 0 no step is taken
    h_max = rate * dt_max if rate else math.inf
    if h_max < DT_MIN:  # the controller gives up below DT_MIN
        raise DomainError(f"dt_max caps the steps on the clock s at {h_max:.3e} < {DT_MIN:.0e}")
    with np.errstate(over="ignore"):  # in the last time only, which linspace sets to t_end
        times = np.linspace(state.t, t_end, samples)
    rho = _density(state)
    quad = rho.quad
    traj = Trajectory([], [], [], [], [], [], state)

    def record(ts, values: np.ndarray):
        """Appends the samples at ts: one (values a vector) or a stack's columns."""
        e, i = _sample_report(state, values)
        rows = np.array([ts, i / quad.d - e, e, i, quad.weights @ values, quad.z_weights @ values])
        for column, x in zip(traj.columns(), rows.reshape(6, -1).tolist()):
            column.extend(x)

    record(state.t, rho.values)
    if rate:
        s, exact = rate * (times[1:] - state.t), integrates_exactly(state.spec)
        tol = math.inf if exact else tol_cons  # the exact flow keeps the mass c0 to the bit
        done, failure = 1, None
        try:
            for coeffs in _exact(rho, s) if exact else _stepped(state.spec, rho, s, h_max):
                ts, values = times[done : done + coeffs.shape[1]], quad.to_values(coeffs)
                done += ts.size
                positive = values.min(axis=0) > EPS_POS
                drift = np.abs(quad.weights @ values - state.conserved0)
                passed = positive & (drift <= tol)
                k = ts.size if passed.all() else int(passed.argmin())
                if k:
                    record(ts[:k], values[:, :k])
                if k < ts.size:
                    t = float(ts[k])
                    failure = (PositivityLossError("the flow lost positivity", t=t) if not positive[k]
                               else ConservationError(f"conserved quantity drifted by "
                                                      f"{drift[k]:.3e} > {tol_cons:.1e}", t=t))
                    break
        except PositivityLossError as exc:  # a step size underflow, at a time on the clock s
            exc.t = state.t + exc.t / rate
            raise
        if failure is not None:
            raise failure
        # the last sample: the exact flow's as its stack synthesized it, a
        # stepped flow's synthesized alone, as its steps are, so that its
        # final state does not depend on how the samples were stacked
        c = coeffs[:, -1].copy()
        rho = (GridFn(quad, np.ascontiguousarray(values[:, -1]), c) if exact
               else GridFn.from_coeffs(quad, c))
    else:  # m = 0 on the density form: s stands still, and so does the state
        traj.times.extend(times[1:].tolist())
        for column in traj.columns()[1:]:
            column.extend(column * (samples - 1))
    traj.final_state = replace(state, t=float(t_end), f=_from_density(state.form, state.spec, rho))
    return traj
