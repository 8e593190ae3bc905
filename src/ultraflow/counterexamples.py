"""Explicit witness functions and the two obstructions to heat-flow
monotonicity of the deficit.

Every witness is a power (a + b z)^s on a rule's nodes (``witness``, behind
the one test a > |b| of ``require_base``); s is a ``conformal_exponent`` or
the ``powerlaw`` one.

First obstruction (at the critical exponent): the conformal family
u = (a + b z)^(-(d-2)/2) consists of minimizers of the deficit, the critical
nonlinear flow moves inside the family, but the heat flow moves off it, so
the deficit cannot decrease monotonically from such data.  The family is
written once here: its coth/csch motion under critical fast diffusion
(``conformal_coefficients``), the rate of that motion and its residual
against L of a density, which ``checks.exact_solution`` and the first
obstruction share.

Second obstruction (between the two thresholds): with beta the lower root of
the dissipation quadratic and alpha = (d-1) beta (p-1)/(d+2), the power-law
function w = (a + b z)^(1/(1-alpha)) satisfies w'' = alpha |w'|^2 / w
pointwise, and at f = w^beta the heat-flow derivative of the deficit is a
strictly positive multiple of the quartic-ratio integral.  Its finite
difference is ``deficit_rate``: it reads F off one ``evolve`` run, so the
exact heat flow has one integrator (flows._exact), and the same difference
runs along the stepped members, which cannot run backward.

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

import math

import numpy as np

from .constants import (
    FlowSpec,
    Params,
    beta_roots,
    counterexample_coefficient,
    two_sharp,
    two_star,
)
from .discretization import GridFn, Quadrature, derivative
from .errors import DomainError
from .flows import Form, FlowState, evolve, make_state
from .functionals import deficit, dissipation_nonlinear


def require_base(a: float, b: float):
    """The witnesses are powers of a + b z: positive on the closed interval
    exactly when a > |b|; a must be finite."""
    if not (math.isfinite(a) and a > abs(b)):
        raise DomainError(f"need a finite a > |b| for a + b z > 0 on (-1, 1); got a={a}, b={b}")


def witness(quad: Quadrature, a: float, b: float, exponent: float) -> GridFn:
    """(a + b z)^exponent on the nodes of ``quad``, certified positive and resolved."""
    require_base(a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # at large d; refused below
        f = GridFn.from_values(quad, (a + b * quad.nodes) ** exponent)
    f.require_positive(what="explicit family")
    f.require_resolved()
    return f


def conformal_exponent(d: float) -> float:
    """-(d-2)/2: (a + b z)^(-(d-2)/2) are the non-constant optimizers at the
    critical exponent."""
    if d <= 2.0:
        raise DomainError("the conformal family needs d > 2")
    return -(d - 2.0) / 2.0


def powerlaw(params: Params) -> tuple[float, float, float]:
    """(beta, alpha, exponent) of the power-law witness (a + b z)^exponent:
    beta the lower dissipation root, alpha = (d-1) beta (p-1)/(d+2) and
    exponent = 1/(1-alpha), the function with w'' = alpha |w'|^2 / w."""
    beta = beta_roots(params).minus
    alpha = (params.d - 1.0) * beta * (params.p - 1.0) / (params.d + 2.0)
    if abs(alpha - 1.0) < 1e-12:
        raise DomainError("power-law exponent is singular at alpha = 1")
    return beta, alpha, 1.0 / (1.0 - alpha)


def ode_residual(w: GridFn, ratio: float) -> float:
    """L^2(nu) norm of the residual of w'' = ratio * |w'|^2 / w, weighted by nu^2.

    The nu^2 weight is the one under which the residual enters every
    dissipation integral.  The norm of the measure discounts the outermost
    nodes, where the basis derivatives lose accuracy at large d (at d = 30,
    N = 128, z = +-0.991 carries the weight 2.4e-27)."""
    q, slopes = w.quad, derivative(w)
    r = q.nu**2 * (q.second_derivative_from(w.coeffs, slopes) - ratio * slopes**2 / w.values)
    return math.sqrt(q.weights @ r**2)


def conformal_coefficients(d: float, omega: float, t0: float, t: float) -> tuple[float, float]:
    """a(t) = w coth((d-1) w (t+t0)), b(t) = w csch(...): the separable
    solution of the a' = -(d-1) b^2, b' = -(d-1) a b system.  t0 = inf is
    the constant member b = 0."""
    if omega <= 0.0 or t0 <= 0.0:
        raise DomainError("omega and t0 must be positive")
    arg = (d - 1.0) * omega * (t + t0)
    a = omega / math.tanh(arg)
    b = omega / math.sinh(arg)
    return a, b


def _family_residual(quad: Quadrature, a: float, b: float, g: GridFn) -> float:
    """L^2(nu) norm of the rate of the member (a + b z)^(-d) of the conformal
    family moving by ``conformal_coefficients``,

        d rho/dt = d (d-1) b (b + a z) (a + b z)^(-(d+1)),

    minus L g for a nodal density g."""
    d, z = quad.d, quad.nodes
    rate = d * (d - 1.0) * b * (b + a * z) * (a + b * z) ** (-(d + 1.0))
    lg = GridFn.from_coeffs(quad, -quad.eigenvalues * g.coeffs)
    return math.sqrt(quad.weights @ (rate - lg.values) ** 2)


def first_obstruction(d: float, a: float, b: float, quad: Quadrature | None = None) -> dict:
    """Zero dissipation on the conformal family at the critical exponent
    versus non-invariance under the heat flow.

    Reports (i) the nonlinear-flow dissipation at the conformal datum
    (zero: for d > 3 via the pure-square identity at the finite double root
    beta = (d-2)/(d-3); for d = 3, where that root is infinite, via the
    deficit staying zero along the exact m = 2/3 family), (ii) the heat-flow
    dissipation at the same datum (zero: the datum minimizes the deficit),
    (iii) the L2 mismatch between the family's own time derivative and the
    heat operator (strictly positive unless b = 0, where the datum is
    constant), and a heat-flow run to t = 0.25 showing the deficit rising
    from zero.  ``quad``, a rule of dimension d, defaults to 128 nodes.
    """
    if d < 3.0:
        raise DomainError("needs d >= 3")
    p = two_star(d)
    params = Params(d, p)
    quad = Quadrature(d, 128) if quad is None else quad
    u = witness(quad, a, b, conformal_exponent(d))
    rho = GridFn.from_values(quad, u.values**p)

    report: dict = {"d": d, "p": p, "a": a, "b": b, "N": quad.n}

    # (ii) heat dissipation (the beta = 1 member) at the conformal datum
    report["heat_dissipation"] = dissipation_nonlinear(u, p, 1.0).dF_dt_analytic

    # (i) nonlinear dissipation at the same datum
    if d > 3.0:
        beta = (d - 2.0) / (d - 3.0)
        w = GridFn.from_values(quad, u.values ** (1.0 / beta))
        report["beta"] = beta
        report["nonlinear_dissipation"] = dissipation_nonlinear(w, p, beta).dF_dt_analytic
        report["ode_residual"] = ode_residual(w, (d - 1.0) / (d - 3.0))
    else:
        # d = 3: beta is infinite; the m = 2/3 flow moves inside the family,
        # so the deficit stays at zero along the exact solution (which stands
        # still at b = 0, the member with t0 = inf)
        omega = math.sqrt(a * a - b * b)
        t0 = math.asinh(omega / abs(b)) / ((d - 1.0) * omega) if b != 0.0 else math.inf
        devs = []
        for t in np.linspace(0.0, 0.2, 6):
            at, bt = conformal_coefficients(d, omega, t0, float(t))
            rho_t = witness(quad, at, bt, -float(d))
            devs.append(abs(deficit(rho_t, p)))
        report["beta"] = math.inf
        report["nonlinear_dissipation"] = max(devs)
        report["ode_residual"] = math.nan

    # (iii) mismatch between the family's time derivative and the heat operator
    report["heat_mismatch"] = _family_residual(quad, a, b, rho)

    # heat flow started at the conformal datum: the deficit leaves zero
    state = make_state(Form.DENSITY, FlowSpec.heat(params), rho)
    traj = evolve(state, 0.25, samples=26)
    report["F_initial"] = traj.F[0]
    report["F_max"] = max(traj.F)
    # the tolerance of the flow's monotonicity flag, scaled as F is
    report["F_increases"] = bool(report["F_max"] > traj.F[0] + traj.rise_tol())
    return report


def second_obstruction(d: float, p: float, a: float, b: float,
                       quad: Quadrature | None = None) -> dict:
    """Strictly positive deficit derivative under the heat flow for p between
    the two thresholds.

    Three independent evaluations of G'(0), G = (d/2) F[rho] along the heat
    flow from rho = f^p, f = w^beta the power-law witness:

      rhs            closed form (A / beta^2) * J_cc(f)
      dFdt_analytic  minus the expanded carre-du-champ bracket at f (heat report)
      dFdt_numeric   half of ``deficit_rate`` on the heat flow from f, a
                     forward difference of d F along one ``evolve`` run

    All three must agree and be positive; b = 0 degenerates to the constant
    witness where everything vanishes (flagged).  ``quad``, a rule of
    dimension d, defaults to 128 nodes.
    """
    if d < 3.0:
        raise DomainError("needs d >= 3")
    params = Params(d, p)
    lo, hi = two_sharp(d), two_star(d)
    if not (lo < p < hi):
        raise DomainError(f"need p strictly between {lo:.6g} and {hi:.6g}, got {p}")
    quad = Quadrature(d, 128) if quad is None else quad
    beta, alpha, exponent = powerlaw(params)
    w = witness(quad, a, b, exponent)
    f = GridFn.from_values(quad, w.values**beta)

    a_closed = counterexample_coefficient(params, beta)
    # the heat flow is the beta = 1 member; its report's dF_dt_analytic is
    # the derivative of d F = 2 G
    heat = dissipation_nonlinear(f, p, 1.0)
    rhs = a_closed * heat.J_cc / beta**2

    numeric = deficit_rate(make_state(Form.POINTWISE, FlowSpec.heat(params), f)) / 2.0

    degenerate = b == 0.0
    report = {
        "d": d,
        "p": p,
        "a": a,
        "b": b,
        "N": quad.n,
        "beta_minus": beta,
        "alpha": alpha,
        "A_closed_form": a_closed,
        "J_cc": heat.J_cc,
        "rhs": rhs,
        "dFdt_analytic": heat.dF_dt_analytic / 2.0,
        "dFdt_numeric": numeric,
        "degenerate_constant_witness": degenerate,
        "positive": bool(rhs > 0.0) and not degenerate,
    }
    return report


def deficit_rate(state: FlowState) -> float:
    """d/dt (d F) at ``state`` in its clock, the quantity a report's
    dF_dt_analytic gives, read off F along one ``evolve`` run to
    state.t + 4h at h = 1e-4, sampled every h/2: the five-point forward
    difference (-25, 48, -36, 16, -3)/12 at h and at h/2, and one Richardson
    step.  It looks only forward, so it runs along every member of the
    family, the stepped ones too, and it reads F through the flows' one
    sample path, with its positivity and resolution checks."""
    h = 1e-4
    f = np.array(evolve(state, state.t + 4.0 * h, samples=9).F)
    stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
    d1, d2 = stencil @ f[::2] / (12.0 * h), stencil @ f[:5] / (6.0 * h)
    # a fourth-order stencil: one halving removes the leading error term
    return state.f.quad.d * (16.0 * d2 - d1) / 15.0
