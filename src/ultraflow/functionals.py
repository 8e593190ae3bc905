"""Entropy, Fisher-type information, deficit, quotient and the dissipation
integrals of the carre-du-champ computation.

Conventions.  With rho = u^p, the deficit stored in ``F`` is

    F[rho] = (1/d) int |u'|^2 nu  -  E_p[rho],

where E_p is the p-continuous entropy

    E_p[rho] = [ (int rho)^(2/p) - int rho^(2/p) ] / (p - 2),
    E_2[rho] = (1/2) int rho log(rho / int rho),

so F >= 0 is exactly the interpolation inequality and everything is
continuous across p = 2 (the p = 2 value is the p -> 2 limit; texts that
define the logarithmic entropy without the 1/2 differ from E_2 by a factor
of two and carry the compensating factor in the inequality).

``dF_dt_analytic`` in a DissipationReport is the time derivative of the
*unnormalized* deficit d*F (equivalently of
int |u'|^2 nu + d/(p-2) (||u||_2^2 - ||u||_p^2)) along the rescaled
nonlinear flow, in its own clock, evaluated at w with rho = w^(b p):

    -2 b^2 [ J_ff - 2 c1 (k+b-1) J_fc + (k(b-1) + d/(d+2)(k+b-1)) J_cc ]

with c1 = (d-1)/(d+2) and k = b(p-2) + 1.  The heat flow is the b = 1
member (k = p - 1, w = u = rho^(1/p)), where the bracket reads
J_ff - 2 c1 (p-1) J_fc + d/(d+2) (p-1) J_cc.  The numeric counterpart
produced by the flows module differentiates the same unnormalized deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import Params, gamma_of_beta, kappa_from_beta
from .discretization import GridFn, derivative, second_derivative
from .errors import DomainError

#: |p - 2| below this routes to the logarithmic branch
P_LOG_BRANCH_TOL = 1e-9


def entropy(rho: GridFn, p: float) -> float:
    """Entropy E_p[rho]; logarithmic branch within 1e-9 of p = 2."""
    rho.require_positive(what="density")
    return _entropy(rho.quad.weights, rho.values, p)


def _entropy(w: np.ndarray, rho: np.ndarray, p: float) -> float:
    if p < 1.0:
        raise DomainError(f"exponent must be >= 1, got {p}")
    mass = float(np.sum(w * rho))
    if abs(p - 2.0) < P_LOG_BRANCH_TOL:
        return 0.5 * float(np.sum(w * rho * np.log(rho / mass)))
    return (mass ** (2.0 / p) - float(np.sum(w * rho ** (2.0 / p)))) / (p - 2.0)


def fisher(rho: GridFn, p: float) -> float:
    """int |(rho^(1/p))'|^2 nu against the measure."""
    rho.require_positive(what="density")
    u = GridFn.from_values(rho.quad, rho.values ** (1.0 / p))
    return _dirichlet(rho.quad, derivative(u, check=False))


def _dirichlet(q, fp: np.ndarray) -> float:
    """The Dirichlet form I = int nu |f'|^2 from the nodal values of f'."""
    return float(np.sum(q.weights * q.nu * fp**2))


def deficit(rho: GridFn, p: float) -> float:
    """F[rho] = fisher/d - entropy; nonnegative exactly when the
    interpolation inequality holds."""
    return fisher(rho, p) / rho.quad.d - entropy(rho, p)


def quotient(u: GridFn, p: float, up: np.ndarray | None = None) -> float:
    """Rayleigh-type quotient I / E_p[|u|^p], whose infimum over nonconstant
    functions is d: (p-2) ||u'||^2_nu / (||u||_p^2 - ||u||_2^2) for p != 2,
    with the entropy denominator at p = 2 (``up``: u' at the nodes, if
    known).  Raises for (numerically) constant u: variance, the squared
    norm of the nonconstant modes, below 1e-14 max(1, ||u||_2^2).
    """
    c = u.coeffs
    variance = float(np.sum(c[1:] ** 2))
    if variance < 1e-14 * max(1.0, variance + c[0] ** 2):
        raise ZeroDivisionError("quotient undefined: input is constant")
    up = derivative(u) if up is None else up
    return _dirichlet(u.quad, up) / _entropy(u.quad.weights, np.abs(u.values) ** p, p)


def cdc_triple(u: GridFn) -> tuple[float, float, float]:
    """The three nu^2-weighted integrals entering the dissipation identity:

    J_ff = int |u''|^2 nu^2,   J_fc = int u'' |u'|^2/u nu^2,
    J_cc = int |u'|^4 / u^2 nu^2.
    """
    u.require_positive(what="carre-du-champ input")
    return _cdc_sums(u.quad, u.values, derivative(u, check=False),
                     second_derivative(u, check=False))


def _cdc_sums(q, f: np.ndarray, fp: np.ndarray, fpp: np.ndarray) -> tuple[float, float, float]:
    """J_ff, J_fc, J_cc from the nodal values of f, f' and f''."""
    w2 = q.weights * q.nu**2
    j_ff = float(np.sum(w2 * fpp**2))
    j_fc = float(np.sum(w2 * fpp * fp**2 / f))
    j_cc = float(np.sum(w2 * fp**4 / f**2))
    return j_ff, j_fc, j_cc


def nonlinear_bracket(w: GridFn, p: float, beta: float) -> tuple[float, float]:
    """Dissipation quadratic form of the rescaled nonlinear flow at w, in
    expanded and completed-square form; beta = 1 is the heat flow.

    Both are evaluated from the same three integrals; they agree exactly
    when the completed square's remainder coefficient is gamma(beta), so
    their agreement checks the closed form of gamma against the bracket.
    """
    return _bracket(cdc_triple(w), w.quad.d, p, beta)


def _bracket(triple, d: float, p: float, beta: float) -> tuple[float, float]:
    j_ff, j_fc, j_cc = triple
    params = Params(d, p)
    kappa = kappa_from_beta(params, beta)
    c = (d - 1.0) / (d + 2.0) * (kappa + beta - 1.0)
    expanded = (
        j_ff
        - 2.0 * c * j_fc
        + (kappa * (beta - 1.0) + d / (d + 2.0) * (kappa + beta - 1.0)) * j_cc
    )
    square = j_ff - 2.0 * c * j_fc + (c * c + gamma_of_beta(params, beta)) * j_cc
    return expanded, square


@dataclass(frozen=True)
class DissipationReport:
    """Functional values and dissipation integrals at one state.

    ``dF_dt_numeric`` is NaN until a flow trajectory injects the central
    finite difference of the unnormalized deficit; ``Q_p`` is NaN for
    constant input (0/0).
    """

    E_p: float
    I_p: float
    F: float
    Q_p: float
    J_ff: float
    J_fc: float
    J_cc: float
    dF_dt_analytic: float
    dF_dt_numeric: float
    d: float
    p: float
    beta: float
    N: int

    def to_dict(self) -> dict:
        return {
            "E_p": self.E_p,
            "I_p": self.I_p,
            "F": self.F,
            "Q_p": self.Q_p,
            "J_ff": self.J_ff,
            "J_fc": self.J_fc,
            "J_cc": self.J_cc,
            "dF_dt_analytic": self.dF_dt_analytic,
            "dF_dt_numeric": self.dF_dt_numeric,
            "config": {"d": self.d, "p": self.p, "beta": self.beta, "N": self.N},
        }

    def with_numeric(self, value: float) -> "DissipationReport":
        return replace(self, dF_dt_numeric=value)


def dissipation_heat(u: GridFn, p: float) -> DissipationReport:
    """Report at u for the heat flow acting on rho = u^p: the beta = 1 member."""
    return dissipation_nonlinear(u, p, 1.0)


def dissipation_nonlinear(w: GridFn, p: float, beta: float,
                          rho: np.ndarray | None = None) -> DissipationReport:
    """Report at w for the rescaled nonlinear flow (dissipation in the clock
    of that flow); u = w^beta and rho = w^(beta p), or the nodal ``rho`` a
    caller already formed from w."""
    w.require_positive(what="dissipation input")
    if math.isinf(beta) or beta == 0.0:
        raise DomainError("nonlinear dissipation needs finite nonzero beta")
    u = w if beta == 1.0 else GridFn.from_values(w.quad, w.values**beta)
    if rho is None:
        rho = w.values ** (beta * p)
    return dissipation_report(rho, u, p, beta)


def dissipation_report(rho: np.ndarray, u: GridFn, p: float, beta: float) -> DissipationReport:
    """Report from the nodal density rho and u = rho^(1/p); u is the only
    function differentiated.

    The J's belong to w = u^(1/beta) = rho^(1/(beta p)) and follow from u by
    the chain rule: with s = w/(beta u),

        w' = s u',   w'' = s (u'' + (1/beta - 1) u'^2/u),

    which keeps the shape of rho at any beta (w itself tends to 1 as beta
    grows and holds that shape only in its digits past 1/beta).  At
    beta = 1, s = 1 and the correction vanishes; at infinite beta the
    dissipation fields are NaN.  dF_dt_analytic = -2 beta^2 times the
    expanded bracket.
    """
    q = u.quad
    u.require_positive(what="dissipation input")
    up = derivative(u)
    i = _dirichlet(q, up)
    e = _entropy(q.weights, rho, p)
    try:
        qv = quotient(u, p, up)
    except ZeroDivisionError:
        qv = math.nan
    j_ff = j_fc = j_cc = analytic = math.nan
    if not math.isinf(beta):
        upp = second_derivative(u, check=False)
        w = u.values ** (1.0 / beta)
        s = w / (beta * u.values)
        j_ff, j_fc, j_cc = triple = _cdc_sums(
            q, w, s * up, s * (upp + (1.0 / beta - 1.0) * up**2 / u.values)
        )
        analytic = -2.0 * beta * beta * _bracket(triple, q.d, p, beta)[0]
    return DissipationReport(
        E_p=e, I_p=i, F=i / q.d - e, Q_p=qv,
        J_ff=j_ff, J_fc=j_fc, J_cc=j_cc,
        dF_dt_analytic=analytic, dF_dt_numeric=math.nan,
        d=q.d, p=p, beta=beta, N=q.n,
    )
