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
``_exact`` synthesizes the requested times in blocks of at most _BLOCK, one
product each, and ``evolve`` reports each block with one analysis of the
stacked u = rho^(1/p) (``_sample_report``).  Every other member takes
fourth-order ETDRK4 steps (Cox and Matthews 2002) on the split
c' = G(c) = -sigma lam c + N(c), whose diagonal linear part is exact with
the scalar stiffness bound sigma = max phi_m' frozen per step.  A scan of
c' = -r sigma lam c over r in [0.01, 1] and z = -dt sigma lam in
[-1e9, -1e-3] keeps the amplification factor |R| <= 1.  The step size
comes from a local-error estimate (Hairer and Wanner, Solving ODEs II,
IV.8), a positivity guard rejects steps (never clamps them), and the drift
of the conserved quantity is checked at each sample.
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

#: defaults: the drift of the conserved quantity a run may show, the rise of
#: F that still counts as nonincreasing, a step's local-error estimate
#: relative to the state's coefficient 2-norm, and the step size (on the
#: clock s) below which the controller gives up
TOL_CONS = 1e-9
TOL_MONO = 1e-9
TOL_STEP = 1e-7
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
    """One ETDRK4 step of dt from c (Cox and Matthews 2002) and the 2-norm
    of its local-error estimate.  Four right-hand sides, all split by the
    first one's sigma: with E = e^(z/2), phi = phi1(z/2) and z = -dt sigma
    lam, the stages a = E c + (dt/2) phi N(c), b = E c + (dt/2) phi N(a),
    d = E a + (dt/2) phi (2 N(b) - N(c)) give E^2 c + dt (f1 N(c) + 2 f2
    (N(a) + N(b)) + f3 N(d)).  The embedded ETD2 value E^2 c + dt (phi1(z)
    N(c) + phi2(z) (N(d) - N(c))) differs from it by 2 dt f2 (N(a) + N(b) -
    N(c) - N(d)), as f1 - phi1 + phi2 = f3 - phi2 = -2 f2.  ``form`` is not
    read; perfbench/tracer.py wraps the step by this name and signature."""
    g0, sigma = _full_rhs(spec, quad, c)
    sl = sigma * quad.eigenvalues
    e_half, phi, f1, f2, f3 = _etdrk4_weights(-dt * sl)
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
    return e_half * ec + dt * (f1 * n0 + f3 * nd) + w2 * ab, math.sqrt(error @ error)


def _exact(rho: GridFn, t0: float, times: np.ndarray):
    """The heat flow's density from rho at t0, at the increasing times, in
    blocks of at most _BLOCK samples: each block's coefficients
    c0 e^(-lam (t - t0)) are one stack, synthesized in one product.  A
    block yields its samples up to the first one that is not positive, as
    their times, the (n, k) stack of their nodal values and the density of
    the last one; the first non-positive sample raises
    PositivityLossError when the iterator passes them, so an earlier
    failure of the caller wins."""
    quad = rho.quad
    for start in range(0, times.size, _BLOCK):
        ts = times[start : start + _BLOCK]
        with np.errstate(over="ignore"):  # at a huge time the exponent is -inf: e^(-inf) = 0
            coeffs = np.multiply.outer(quad.eigenvalues, t0 - ts)
        np.exp(coeffs, out=coeffs)
        coeffs *= rho.coeffs[:, None]
        values = quad.to_values(coeffs)
        positive = values.min(axis=0) > EPS_POS
        k = ts.size if positive.all() else int(positive.argmin())
        if k:  # the block keeps only the last column of its coefficients; a
            # strided column rounds the sample's sums differently
            last = GridFn(quad, np.ascontiguousarray(values[:, k - 1]), coeffs[:, k - 1].copy())
            coeffs = None
            yield ts[:k], values[:, :k], last
        if k < ts.size:
            raise PositivityLossError("the flow lost positivity", t=float(ts[k]))


# -- adaptive segment integrator --------------------------------------------


def _advance_to(spec: FlowSpec, rho: GridFn, s: float, s_target: float, h: float,
                h_max: float) -> tuple[GridFn, float]:
    """Step the density rho from s to s_target on the clock s by ETDRK4
    steps of at most h_max; returns the density at s_target and the next
    step size.  The exact flow never comes here (``evolve``).

    A step is accepted when its local-error estimate, the distance of the
    embedded ETD2 value in the coefficient 2-norm (the L2(nu) norm), is at
    most TOL_STEP times the norm of the state it starts from.  The next
    step scales by 0.9 (tol/error)^(1/3) (Hairer and Wanner, IV.8) within
    [0.2, 5], not above 1 after a rejection; a step that loses positivity
    (or whose estimate is NaN) halves, and one cut short to land on s_target
    keeps the size it was cut from unless its own estimate allows more.  A rejected attempt passes
    the same coefficient array to the step again.  An accepted step whose
    top modes carry more than the resolution tolerance raises
    ResolutionError: a smaller step cannot resolve them."""
    quad, grow = rho.quad, 5.0
    while s < s_target - 1e-14 * max(1.0, abs(s_target)):
        full = min(h, h_max)
        dt = min(full, s_target - s)
        try:
            with np.errstate(over="ignore"):  # a power past the float range: _full_rhs refuses it
                c, error = _imex_step(Form.DENSITY, spec, quad, rho.coeffs, dt)
            trial = GridFn.from_coeffs(quad, c)
        except PositivityError:
            trial, error = None, math.inf
        tol = TOL_STEP * math.sqrt(rho.coeffs @ rho.coeffs)
        scale = 0.9 * (tol / error) ** (1.0 / 3.0) if error else math.inf
        positive = trial is not None and trial.is_positive()
        if positive and error <= tol:
            trial.require_resolved()
            h = max(dt * min(grow, scale), h if dt < full else 0.0)
            rho, s, grow = trial, s + dt, 5.0
            continue
        h, grow = dt * (max(0.2, scale) if positive and error > tol else 0.5), 1.0
        if h < DT_MIN:
            raise PositivityLossError(
                "step size underflow (positivity or local error unreachable)", t=s)
    return rho, h


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
    an (n, s) stack of the exact flow's densities; ``state`` is the run's
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
    The heat flow, in either form, synthesizes its later samples in blocks
    of at most _BLOCK (``_exact``) and records each block with one stacked
    report; every other flow steps its density on the clock s from sample
    to sample (dt_max caps the steps on the state's clock; a cap below
    DT_MIN on the clock s is refused, DomainError) and records each
    one alone, as it does the datum, once its conserved quantity is within
    tol_cons of the datum's.  Step errors propagate with the failing time
    attached, and a sample whose top modes carry more than the resolution
    tolerance raises ResolutionError: the first failing sample decides, and
    at one sample positivity is checked first."""
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
    # m = 0 on the density form: s stands still, and so does the state
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
    if integrates_exactly(state.spec):
        for ts, values, rho in _exact(rho, state.t, times[1:]):
            record(ts, values)
    else:
        s = (rate * (times - state.t)).tolist()
        h = min(h_max, s[-1] / 64)
        for k, t in enumerate(times[1:].tolist(), start=1):
            rho, h = _advance_to(state.spec, rho, s[k - 1], s[k], h, h_max)
            record(t, rho.values)
            drift = abs(traj.conserved[-1] - state.conserved0)
            if drift > tol_cons:
                raise ConservationError(
                    f"conserved quantity drifted by {drift:.3e} > {tol_cons:.1e}", t=t)
    traj.final_state = replace(state, t=float(t_end), f=_from_density(state.form, state.spec, rho))
    return traj
