"""Explicit witness functions and the two obstructions to heat-flow
monotonicity of the deficit.

First obstruction (at the critical exponent): the conformal family
u = (a + b z)^(-(d-2)/2) consists of minimizers of the deficit, the critical
nonlinear flow moves inside the family, but the heat flow moves off it, so
the deficit cannot decrease monotonically from such data.  The family is
written once here: its coth/csch motion under critical fast diffusion
(``conformal_coefficients``), the rate of that motion and its residual
against L of a density, which ``verify_exact_solution`` and the first
obstruction share.

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
from .flows import Form, evolve, make_state
from .functionals import _bracket, cdc_triple, deficit, dissipation_nonlinear


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
    f.require_resolved()
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
    return float(np.sqrt(np.sum(quad.weights * (rate - lg.values) ** 2)))


def verify_exact_solution(d: float, omega: float, t0: float, t_end: float) -> dict:
    """Residual of the (a + b z)^(-d) family under the critical fast
    diffusion (m = 1 - 1/d) and under the plain heat operator, at 9 times on
    128 nodes.

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
    quad = Quadrature(d, 128)
    fde_resids, heat_resids, ident = [], [], []
    for t in np.linspace(0.0, t_end, 9):
        a, b = conformal_coefficients(d, omega, t0, float(t))
        ident.append(abs(a * a - b * b - omega * omega))
        if a <= abs(b):
            raise PositivityError("family left the positivity cone a > |b|")
        base = a + b * quad.nodes
        rho = GridFn.from_values(quad, base ** (-float(d)))
        rho_m = GridFn.from_values(quad, base ** (-(d - 1.0)))
        fde_resids.append(_family_residual(quad, a, b, rho_m))
        heat_resids.append(_family_residual(quad, a, b, rho))
    return {
        "d": d,
        "omega": omega,
        "t0": t0,
        "max_fde_residual": max(fde_resids),
        "min_heat_residual": min(heat_resids),
        "max_identity_error": max(ident),
    }


def first_obstruction(d: float, a: float, b: float, n: int = 128) -> dict:
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
    from zero.
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
            rho_t = GridFn.from_values(quad, (at + bt * quad.nodes) ** (-float(d)))
            devs.append(abs(deficit(rho_t, p)))
        report["beta"] = math.inf
        report["nonlinear_dissipation"] = max(devs)
        report["ode_residual"] = math.nan

    # (iii) mismatch between the family's time derivative and the heat operator
    report["heat_mismatch"] = _family_residual(quad, a, b, rho)

    # heat flow started at the conformal datum: the deficit leaves zero
    state = make_state(Form.DENSITY, FlowSpec.heat(params), rho)
    fvals = evolve(state, 0.25, samples=26, with_reports=False).F
    report["F_initial"] = fvals[0]
    report["F_max"] = max(fvals)
    report["F_increases"] = bool(max(fvals) > fvals[0] + 1e-9)
    return report


def second_obstruction(d: float, p: float, a: float, b: float, n: int = 128) -> dict:
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
    triple = cdc_triple(f)
    j_cc = triple[2]
    rhs = a_closed * j_cc / beta**2
    # the heat flow is the beta = 1 member of the bracket
    analytic = -_bracket(triple, quad.d, p, 1.0)[0]

    rho0 = GridFn.from_values(quad, f.values**p)
    numeric = _heat_derivative_of_halfd_deficit(rho0, params)

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


def _heat_derivative_of_halfd_deficit(rho0: GridFn, params: Params) -> float:
    """d/dt [(d/2) F(rho(t))] at t = 0 under the exactly integrated heat flow,
    via a 4-point central stencil of width 1e-4 with one Richardson halving.

    The stencil looks a short distance backward in time, where the diagonal
    exponential amplifies mode k by exp(+lam_k t); the width is capped so
    that even the top mode's roundoff floor is amplified by at most e^4.
    """
    quad = rho0.quad
    dt = min(1e-4, 2.0 / float(quad.eigenvalues[-1]))
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


def sign_certificate(d: float) -> list[tuple]:
    """Rows (d, p, beta_minus, A) over a 100-point p-grid strictly inside the
    obstruction window; A must be positive throughout."""
    lo, hi = two_sharp(d), two_star(d)
    if not math.isfinite(hi) or lo >= hi:
        raise DomainError(f"no obstruction window for d={d}")
    rows = []
    for i in range(100):
        p = lo + (hi - lo) * (i + 0.5) / 100
        params = Params(d, p)
        beta = beta_roots(params).minus
        rows.append((d, p, beta, counterexample_coefficient(params, beta)))
    return rows
