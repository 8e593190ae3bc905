"""Explicit witness functions and the two obstructions to heat-flow
monotonicity of the deficit.

First obstruction (at the critical exponent): the conformal family
u = (a + b z)^(-(d-2)/2) consists of minimizers of the deficit, the critical
nonlinear flow moves inside the family, but the heat flow moves off it, so
the deficit cannot decrease monotonically from such data.

Second obstruction (between the two thresholds): with beta the lower root of
the dissipation quadratic and alpha = (d-1) beta (p-1)/(d+2), the power-law
function w = (a + b z)^(1/(1-alpha)) satisfies w'' = alpha |w'|^2 / w
pointwise, and at f = w^beta the heat-flow derivative of the deficit is a
strictly positive multiple of the quartic-ratio integral.

Factor conventions.  With G(t) = (d/2) * F[rho(t)] along the heat flow
(F the normalized deficit), the exact identity at the witness reads

    G'(0) = (A / beta^2) * int |f'|^4 / f^2 nu^2,   f = w^beta,

where A = A(p, beta) is the closed-form quadratic from the constants module.
``second_obstruction`` reports that value as ``rhs`` alongside the raw A and
the quartic integral; statements of the identity that absorb the positive
factors beta^2 and 2/d differ from this one only by those factors and agree
in sign.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    FlowSpec,
    Params,
    beta_roots,
    counterexample_coefficient,
    two_sharp,
    two_star,
)
from .discretization import GridFn, Quadrature, derivative, second_derivative
from .errors import DomainError, PositivityError
from .flows import Form, conformal_coefficients, evolve, make_state
from .functionals import cdc_triple, deficit, dissipation_nonlinear, nonlinear_bracket


class FamilyKind(enum.Enum):
    CONFORMAL = "conformal"
    POWERLAW = "powerlaw"


@dataclass(frozen=True)
class ExplicitFamily:
    """Closed-form witness family on (-1, 1).

    CONFORMAL: u(z) = (a + b z)^(-(d-2)/2), the non-constant optimizers at
    the critical exponent.  POWERLAW: w(z) = (a + b z)^(1/(1-alpha)) with
    alpha = (d-1) beta (p-1)/(d+2) and beta the lower dissipation root,
    the function with w'' = alpha |w'|^2 / w used by the second obstruction.
    Requires a > |b| so the base is positive on the closed interval.
    """

    kind: FamilyKind
    a: float
    b: float
    params: Params
    beta: float = math.nan
    alpha: float = math.nan

    def __post_init__(self):
        if not self.a > abs(self.b):
            raise PositivityError(
                f"need a > |b| for positivity on (-1, 1); got a={self.a}, b={self.b}"
            )
        if self.kind is FamilyKind.CONFORMAL and self.params.d <= 2.0:
            raise DomainError("the conformal family needs d > 2")

    @classmethod
    def conformal(cls, params: Params, a: float, b: float) -> "ExplicitFamily":
        return cls(FamilyKind.CONFORMAL, a, b, params)

    @classmethod
    def powerlaw(cls, params: Params, a: float, b: float) -> "ExplicitFamily":
        beta = beta_roots(params).minus
        alpha = (params.d - 1.0) * beta * (params.p - 1.0) / (params.d + 2.0)
        if abs(alpha - 1.0) < 1e-12:
            raise DomainError("power-law exponent is singular at alpha = 1")
        return cls(FamilyKind.POWERLAW, a, b, params, beta=beta, alpha=alpha)

    def exponent(self) -> float:
        if self.kind is FamilyKind.CONFORMAL:
            return -(self.params.d - 2.0) / 2.0
        return 1.0 / (1.0 - self.alpha)


def materialize(family: ExplicitFamily, quad: Quadrature) -> GridFn:
    """Nodal evaluation of the family member; certified positive."""
    if quad.d != family.params.d:
        raise DomainError(
            f"quadrature dimension {quad.d} differs from family dimension {family.params.d}"
        )
    base = family.a + family.b * quad.nodes
    f = GridFn.from_values(quad, base ** family.exponent())
    f.require_positive(what="explicit family")
    f.require_resolved(1e-8)
    return f


def ode_residual(w: GridFn, ratio: float) -> float:
    """Max nodal residual of w'' = ratio * |w'|^2 / w, weighted by nu^2.

    The nu^2 weight is the one under which the residual enters every
    dissipation integral; it also suppresses the basis-derivative roundoff
    that inflates the raw residual at the outermost nodes.
    """
    q = w.quad
    wp = derivative(w, check=False)
    wpp = second_derivative(w, check=False)
    return float(np.max(q.nu**2 * np.abs(wpp - ratio * wp**2 / w.values)))


def _heat_flow_deficit_curve(rho0: GridFn, params: Params, t_end: float, samples: int):
    spec = FlowSpec.heat(params)
    state = make_state(Form.DENSITY, spec, rho0)
    traj = evolve(state, t_end, samples=samples, with_reports=False)
    return traj.times, traj.F


def first_obstruction(
    d: float, a: float, b: float, n: int = 128, t_end: float = 0.25, samples: int = 26
) -> dict:
    """Zero dissipation on the conformal family at the critical exponent
    versus non-invariance under the heat flow.

    Reports (i) the nonlinear-flow dissipation at the conformal datum
    (zero: for d >= 4 via the pure-square identity at the double root
    beta = (d-2)/(d-3); for d = 3 via the deficit staying zero along the
    exact m = 2/3 family), (ii) the heat-flow dissipation at the same datum
    (zero: the datum minimizes the deficit), (iii) the L2 mismatch between
    the family's own time derivative and the heat operator (strictly
    positive), and a short heat-flow run showing the deficit rising from
    zero.
    """
    if d < 3.0:
        raise DomainError("needs d >= 3")
    p = two_star(d)
    params = Params(d, p)
    quad = Quadrature(d, n)
    fam = ExplicitFamily.conformal(params, a, b)
    u = materialize(fam, quad)
    rho = GridFn.from_values(quad, u.values**p)

    report: dict = {"d": d, "p": p, "a": a, "b": b, "N": n}

    # (ii) heat dissipation (the beta = 1 member) at the conformal datum
    report["heat_dissipation"] = dissipation_nonlinear(u, p, 1.0).dF_dt_analytic

    # (i) nonlinear dissipation at the same datum
    if d >= 4.0:
        beta = (d - 2.0) / (d - 3.0)
        w = GridFn.from_values(quad, u.values ** (1.0 / beta))
        report["beta"] = beta
        report["nonlinear_dissipation"] = dissipation_nonlinear(w, p, beta).dF_dt_analytic
        report["ode_residual"] = ode_residual(w, (d - 1.0) / (d - 3.0))
    else:
        # d = 3: beta is infinite; the m = 2/3 flow moves inside the family,
        # so the deficit stays at zero along the exact solution
        omega = math.sqrt(a * a - b * b)
        arg = abs(b) / omega if omega > 0 else math.inf
        t0 = math.asinh(1.0 / arg) / ((d - 1.0) * omega)
        devs = []
        for t in np.linspace(0.0, 0.2, 6):
            at, bt = conformal_coefficients(d, omega, t0, float(t))
            rho_t = GridFn.from_values(quad, (at + bt * quad.nodes) ** (-float(d)))
            devs.append(abs(deficit(rho_t, p)))
        report["beta"] = math.inf
        report["nonlinear_dissipation"] = max(devs)
        report["ode_residual"] = math.nan

    # (iii) mismatch between the family's time derivative and the heat operator
    z = quad.nodes
    base = a + b * z
    drho_dt_family = d * (d - 1.0) * b * (b + a * z) * base ** (-(d + 1.0))
    lrho = GridFn.from_coeffs(quad, -quad.eigenvalues * rho.coeffs)
    mismatch = float(np.sqrt(np.sum(quad.weights * (drho_dt_family - lrho.values) ** 2)))
    report["heat_mismatch"] = mismatch

    # heat flow started at the conformal datum: the deficit leaves zero
    times, fvals = _heat_flow_deficit_curve(rho, params, t_end, samples)
    report["F_initial"] = fvals[0]
    report["F_max"] = max(fvals)
    report["F_increases"] = bool(max(fvals) > fvals[0] + 1e-9)
    report["F_curve"] = {"t": list(times), "F": list(fvals)}
    return report


def second_obstruction(
    d: float,
    p: float,
    a: float,
    b: float,
    n: int = 128,
    fd_dt: float = 1e-4,
) -> dict:
    """Strictly positive deficit derivative under the heat flow for p between
    the two thresholds.

    Three independent evaluations of G'(0), G = (d/2) F[rho] along the heat
    flow from rho = f^p, f = w^beta the power-law witness:

      rhs            closed form (A / beta^2) * J_cc(f)
      dFdt_analytic  minus the expanded carre-du-champ bracket at f
      dFdt_numeric   Richardson-extrapolated central difference of G along
                     the exactly integrated heat flow

    All three must agree and be positive; b = 0 degenerates to the constant
    witness where everything vanishes (flagged).
    """
    params = Params(d, p)
    lo, hi = two_sharp(d), two_star(d)
    if not (lo < p < hi):
        raise DomainError(f"need p strictly between {lo:.6g} and {hi:.6g}, got {p}")
    quad = Quadrature(d, n)
    fam = ExplicitFamily.powerlaw(params, a, b)
    w = materialize(fam, quad)
    beta = fam.beta
    f = GridFn.from_values(quad, w.values**beta)

    a_closed = counterexample_coefficient(params, beta)
    j_ff, j_fc, j_cc = cdc_triple(f)
    rhs = a_closed * j_cc / beta**2
    expanded, _ = nonlinear_bracket(f, p, 1.0)
    analytic = -expanded

    rho0 = GridFn.from_values(quad, f.values**p)
    numeric = _heat_derivative_of_halfd_deficit(rho0, params, fd_dt)

    degenerate = b == 0.0
    report = {
        "d": d,
        "p": p,
        "a": a,
        "b": b,
        "N": n,
        "beta_minus": beta,
        "alpha": fam.alpha,
        "A_closed_form": a_closed,
        "J_cc": j_cc,
        "rhs": rhs,
        "dFdt_analytic": analytic,
        "dFdt_numeric": numeric,
        "degenerate_constant_witness": degenerate,
        "positive": bool(rhs > 0.0) and not degenerate,
    }
    return report


def _heat_derivative_of_halfd_deficit(rho0: GridFn, params: Params, dt: float) -> float:
    """d/dt [(d/2) F(rho(t))] at t = 0 under the exactly integrated heat flow,
    via a 4-point central stencil with one Richardson halving.

    The stencil looks a short distance backward in time, where the diagonal
    exponential amplifies mode k by exp(+lam_k t); the width is capped so
    that even the top mode's roundoff floor is amplified by at most e^4.
    """
    quad = rho0.quad
    dt = min(dt, 2.0 / float(quad.eigenvalues[-1]))
    half_d = quad.d / 2.0

    def g_at(t: float) -> float:
        if t == 0.0:
            rho = rho0
        else:
            rho = GridFn.from_coeffs(quad, rho0.coeffs * np.exp(-quad.eigenvalues * t))
        return half_d * deficit(rho, params.p)

    def stencil(h: float) -> float:
        return (-g_at(2 * h) + 8 * g_at(h) - 8 * g_at(-h) + g_at(-2 * h)) / (12 * h)

    d1, d2 = stencil(dt), stencil(dt / 2.0)
    # 4th-order stencil: one halving removes the leading error term
    return (16.0 * d2 - d1) / 15.0


def sign_certificate(d: float, n_points: int = 100) -> list[tuple]:
    """Rows (d, p, beta_minus, A) over a p-grid strictly inside the
    obstruction window; A must be positive throughout."""
    lo, hi = two_sharp(d), two_star(d)
    if not math.isfinite(hi) or lo >= hi:
        raise DomainError(f"no obstruction window for d={d}")
    rows = []
    for i in range(n_points):
        p = lo + (hi - lo) * (i + 0.5) / n_points
        params = Params(d, p)
        beta = beta_roots(params).minus
        rows.append((d, p, beta, counterexample_coefficient(params, beta)))
    return rows


def sign_certificate_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("d,p,beta_minus,A\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
