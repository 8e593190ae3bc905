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
of two and carry the compensating factor in the inequality).  On the nodes
E_p is taken against the rule as a probability measure (see _entropy): E_p
of a constant is 0, and the rounding defect sum w - 1 of the weights is not
entropy.  Every nodal integral is ``w @ x``, for a vector or an (n, s) stack.

``dF_dt_analytic`` in a DissipationReport is the time derivative of the
*unnormalized* deficit d*F (equivalently of
int |u'|^2 nu + d/(p-2) (||u||_2^2 - ||u||_p^2)) along the rescaled
nonlinear flow, in its own clock, evaluated at w with rho = w^(b p):

    -2 b^2 [ J_ff - 2 c1 (k+b-1) J_fc + (k(b-1) + d/(d+2)(k+b-1)) J_cc ]

with c1 = (d-1)/(d+2) and k = b(p-2) + 1.  The heat flow is the b = 1
member (k = p - 1, w = u = rho^(1/p)), where the bracket reads
J_ff - 2 c1 (p-1) J_fc + d/(d+2) (p-1) J_cc.  The J's of w are evaluated
once, by the chain rule from u = w^beta (_carre_du_champ), behind
cdc_triple and the reports, and the bracket once, expanded (_bracket).
Its J_cc coefficient is c^2 + gamma(b), c = c1 (k+b-1), which
tests/test_proofs.py proves exactly: the bracket is the square
int (w'' - c |w'|^2/w)^2 nu^2 plus gamma(b) J_cc.  Its sign is a fact about
one state, which the obstructions read; a flow sample evaluates only E_p and
I_p (flows._sample_report).  The Dirichlet form I = int |f'|^2 nu is read
off the coefficients (_dirichlet), so I_p itself differentiates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Params
from .discretization import GridFn
from .errors import DomainError, ResolutionError


def entropy(rho: GridFn, p: float) -> float:
    """Entropy E_p[rho], accurate uniformly in p across p = 2."""
    rho.require_positive(what="density")
    return _entropy(rho.quad.weights, rho.values, p)


def _entropy(w: np.ndarray, rho: np.ndarray, p: float):
    """E_p = mass^(2/p)/p sum w g(r) with r = rho/mass, k = (2-p)/p and

        g(r) = r expm1(k log r)/k - (r - 1)    (r log r - (r - 1) at k = 0),

    against the rule as a probability measure: sum w (r - 1) counts as 0, so
    E_p of a constant is 0 and sum w - 1 is not entropy.  g and g' vanish at
    r = 1: the mass's rounding enters at second order, and near p = 2 no
    nearly equal norms cancel.  A nodal zero adds w_i g(0) = w_i (log r is
    floored at log(tiny), and |k| <= 1)."""
    if p < 1.0:
        raise DomainError(f"exponent must be >= 1, got {p}")
    mass = w @ rho
    return mass ** (2.0 / p) / p * (w @ _g(rho / mass, (2.0 - p) / p))


def _g(r: np.ndarray, k: float) -> np.ndarray:
    """g(r) of _entropy per column: where max |s| < 1e-2, s = r - 1, the
    series s^2 sum_(j>=2) c_j s^(j-2), c_2 = (1+k)/2, c_(j+1) = c_j (k-j+1)/(j+1)
    to a truncation below 1e-17 (|c_j| decreases as |k| <= 1); elsewhere the
    direct form, whose cancellation costs about 1e-16/max|s| relative."""
    s = r - 1.0
    top = np.abs(s).max(axis=0)
    near = top < 1e-2
    if near.ndim and near.any() and not near.all():  # a stack of both kinds
        g = np.empty_like(r)
        g[:, near], g[:, ~near] = _g(r[:, near], k), _g(r[:, ~near], k)
        return g
    if not near.all():
        # r expm1(k log r)/k - s, in place: a stack's columns are large
        g = np.maximum(r, np.finfo(float).tiny)
        np.log(g, out=g)
        if k != 0.0:
            g *= k
            np.expm1(g, out=g)
            g /= k
        g *= r
        g -= s
        return g
    top, c = float(top.max()), [(1.0 + k) / 2.0]
    while abs(c[-1]) * top ** (len(c) - 1) > 1e-17 * abs(c[0]):
        c.append(c[-1] * (k - len(c)) / (len(c) + 2))
    return s * s * np.polynomial.polynomial.polyval(s, c)


def fisher(rho: GridFn, p: float) -> float:
    """int |(rho^(1/p))'|^2 nu against the measure."""
    rho.require_positive(what="density")
    u = GridFn.from_values(rho.quad, rho.values ** (1.0 / p))
    return _dirichlet(rho.quad, u.coeffs)


def _dirichlet(q, c: np.ndarray) -> float:
    """The Dirichlet form I = int nu |f'|^2 = <f, -L f> = sum lambda_k c_k^2
    from the coefficients c of f (per column for an (n, s) stack).  On the
    rule this is the quadrature of nu |f'|^2 without rounding: that integrand
    has degree 2n - 2 <= 2n - 1, so the rule integrates it exactly."""
    return q.eigenvalues @ c**2


def deficit(rho: GridFn, p: float) -> float:
    """F[rho] = fisher/d - entropy; nonnegative exactly when the
    interpolation inequality holds."""
    return fisher(rho, p) / rho.quad.d - entropy(rho, p)


def quotient(u: GridFn, p: float) -> float:
    """Rayleigh-type quotient I / E_p[|u|^p], whose infimum over nonconstant
    functions is d: (p-2) ||u'||^2_nu / (||u||_p^2 - ||u||_2^2) for p != 2,
    with the entropy denominator at p = 2.  Raises for (numerically)
    constant u: variance, the squared norm of the nonconstant modes, below
    1e-14 max(1, ||u||_2^2).
    """
    c = u.coeffs
    variance = float(np.sum(c[1:] ** 2))
    if variance < 1e-14 * max(1.0, variance + c[0] ** 2):
        raise ZeroDivisionError("quotient undefined: input is constant")
    u.require_resolved()
    return _dirichlet(u.quad, c) / _entropy(u.quad.weights, np.abs(u.values) ** p, p)


def cdc_triple(u: GridFn) -> tuple[float, float, float]:
    """The three nu^2-weighted integrals entering the dissipation identity:

    J_ff = int |u''|^2 nu^2,   J_fc = int u'' |u'|^2/u nu^2,
    J_cc = int |u'|^4 / u^2 nu^2.
    """
    u.require_positive(what="carre-du-champ input")
    u.require_resolved()
    return _carre_du_champ(u, 1.0)


def _carre_du_champ(u: GridFn, beta: float) -> tuple[float, float, float]:
    """J_ff, J_fc, J_cc of w = u^(1/beta) from u' and u'' (u positive and
    resolved; callers check), the only evaluation of the J's; u' is
    computed once, and u'' from it.

    The chain rule with s = w/(beta u) gives

        w' = s u',   w'' = s (u'' + (1/beta - 1) u'^2/u),

    which keeps the shape of u at any beta (w itself tends to 1 as beta
    grows and holds that shape only in its digits past 1/beta).  At
    beta = 1, s = 1 and the correction vanishes, to the bit.  A sum that is
    not finite (at large d the outermost nodes' |w'|^4 overflows) raises
    ResolutionError instead of entering a report."""
    q = u.quad
    up = q.derivative_values(u.coeffs)
    upp = q.second_derivative_from(u.coeffs, up)
    w2 = q.weights * q.nu**2
    with np.errstate(over="ignore", invalid="ignore"):
        w = u.values ** (1.0 / beta)
        s = w / (beta * u.values)
        wp, wpp = s * up, s * (upp + (1.0 / beta - 1.0) * up**2 / u.values)
        j_ff = float(w2 @ wpp**2)
        j_fc = float(w2 @ (wpp * wp**2 / w))
        j_cc = float(w2 @ (wp**4 / w**2))
    if not all(map(math.isfinite, (j_ff, j_fc, j_cc))):
        raise ResolutionError(f"the dissipation integrals (J_ff, J_fc, J_cc) = "
                              f"({j_ff:.3e}, {j_fc:.3e}, {j_cc:.3e}) are not finite at "
                              f"d={q.d}, N={q.n}")
    return j_ff, j_fc, j_cc


def _bracket(triple, d: float, p: float, beta: float):
    """The expanded bracket of the module docstring at finite beta; plain
    arithmetic, so that it also runs on symbols."""
    j_ff, j_fc, j_cc = triple
    kappa = beta * (p - 2.0) + 1.0
    c = (d - 1.0) / (d + 2.0) * (kappa + beta - 1.0)
    return (j_ff - 2.0 * c * j_fc
            + (kappa * (beta - 1.0) + d / (d + 2.0) * (kappa + beta - 1.0)) * j_cc)


@dataclass(frozen=True)
class DissipationReport:
    """Functional values and dissipation integrals at one state."""

    E_p: float
    I_p: float
    F: float
    J_ff: float
    J_fc: float
    J_cc: float
    dF_dt_analytic: float


def dissipation_heat(u: GridFn, p: float) -> DissipationReport:
    """Report at u for the heat flow acting on rho = u^p: the beta = 1 member."""
    return dissipation_nonlinear(u, p, 1.0)


def dissipation_nonlinear(w: GridFn, p: float, beta: float) -> DissipationReport:
    """Report at w for the rescaled nonlinear flow (dissipation in the clock
    of that flow); u = w^beta and rho = w^(beta p)."""
    w.require_positive(what="dissipation input")
    if math.isinf(beta) or beta == 0.0:
        raise DomainError("nonlinear dissipation needs finite nonzero beta")
    u = w if beta == 1.0 else GridFn.from_values(w.quad, w.values**beta)
    return dissipation_report(w.values ** (beta * p), u, p, beta)


def dissipation_report(rho: np.ndarray, u: GridFn, p: float, beta: float) -> DissipationReport:
    """Report from the nodal density rho and u = rho^(1/p); u is the only
    function differentiated (for the J's, which belong to
    w = u^(1/beta) = rho^(1/(beta p)) and follow from u by the chain rule in
    _carre_du_champ; I_p is read off u's coefficients), at finite beta.
    dF_dt_analytic = -2 beta^2 times the expanded bracket.
    """
    q = u.quad
    u.require_positive(what="dissipation input")
    u.require_resolved()
    i = _dirichlet(q, u.coeffs)
    e = _entropy(q.weights, rho, p)
    Params(q.d, p)  # the bracket's closed forms hold on the domain of (d, p)
    j_ff, j_fc, j_cc = triple = _carre_du_champ(u, beta)
    analytic = -2.0 * beta * beta * _bracket(triple, q.d, p, beta)
    return DissipationReport(E_p=e, I_p=i, F=i / q.d - e, J_ff=j_ff, J_fc=j_fc, J_cc=j_cc,
                             dF_dt_analytic=analytic)
