"""Closed-form exponents, roots and coefficients for the flow machinery.

Everything here is an explicit rational/algebraic expression in the real
dimension d >= 1 and the exponent p >= 1.  Infinite values (the critical
exponent for d <= 2, the degenerate root when the quadratic denominator
vanishes, the d = 3, p = 6 nonlinearity) are represented by ``math.inf``,
never by a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: values of gamma within this distance of 0 classify as admissible
#: (the admissible intervals are closed; this absorbs roundoff at the edges)
GAMMA_TIE_TOL = 1e-11

#: |delta| below this is treated as the degenerate (linear) case
DELTA_ZERO_TOL = 1e-12

#: |1 + p(m-1)/2| = 1/|beta| below this makes m the infinite-beta member
#: m = 1 - 2/p.  The pointwise variable w = rho^(1/(beta p)) = 1 + O(1/beta)
#: holds the shape of rho only in its digits past 1/beta, fewer than half of
#: them below this tolerance; so m = 2/3 given to ten digits at p = 6 is the
#: critical member, not beta = 1e10
M_CRITICAL_TOL = 1e-8


def two_star(d: float) -> float:
    """Critical exponent 2d/(d-2); infinite for d <= 2."""
    if d <= 2.0:
        return math.inf
    return 2.0 * d / (d - 2.0)


def two_sharp(d: float) -> float:
    """Heat-flow threshold exponent (2d^2+1)/(d-1)^2; infinite for d = 1."""
    if d == 1.0:
        return math.inf
    return (2.0 * d * d + 1.0) / (d - 1.0) ** 2


@dataclass(frozen=True)
class Params:
    """Ambient configuration (d, p) of every computation.

    d is a real dimension >= 1; p >= 1 must not exceed the critical exponent
    when that is finite.  p = 2 is valid and routes the functionals to their
    logarithmic branch.
    """

    d: float
    p: float

    def __post_init__(self):
        # written so that NaN fails them
        if not 1.0 <= self.d < math.inf:
            raise DomainError(f"dimension must be finite and >= 1, got {self.d}")
        if not 1.0 <= self.p < math.inf:
            raise DomainError(f"exponent must be finite and >= 1, got {self.p}")
        ts = two_star(self.d)
        if self.p > ts * (1.0 + 1e-14):
            raise DomainError(
                f"p={self.p} exceeds the critical exponent {ts:.6g} for d={self.d}"
            )

    @property
    def two_star(self) -> float:
        return two_star(self.d)

    @property
    def two_sharp(self) -> float:
        return two_sharp(self.d)


def ab_coefficients(params: Params) -> tuple[float, float]:
    """Coefficients (a, b) of the dissipation quadratic gamma(beta) =
    -1 + 2 b beta - a beta^2."""
    d, p = params.d, params.p
    a = ((d - 1.0) ** 2 * p * p - 3.0 * (d * d + 2.0) * p + 3.0 * (d * d + 2.0 * d + 3.0)) / (
        d + 2.0
    ) ** 2
    b = (d + 3.0 - p) / (d + 2.0)
    return a, b


def gamma_of_beta(params: Params, beta):
    """gamma(beta) = -1 + 2 b beta - a beta^2, the coefficient multiplying the
    quartic-ratio integral in the nonlinear-flow dissipation identity
    (elementwise for an ndarray of beta)."""
    a, b = ab_coefficients(params)
    return -1.0 + 2.0 * b * beta - a * beta * beta


def gamma_one(params: Params) -> float:
    """gamma(1), the heat-flow dissipation coefficient.

    Evaluated from the expansion (p-1) (2d^2 + 1 - p (d-1)^2) / (d+2)^2,
    which equals ((d-1)/(d+2))^2 (p-1) (2#-p) for d > 1 and (p-1)/3 at d = 1,
    with no indeterminate form at d = 1.
    """
    d, p = params.d, params.p
    return (p - 1.0) * (2.0 * d * d + 1.0 - p * (d - 1.0) ** 2) / (d + 2.0) ** 2


def gamma_discriminant(params: Params) -> float:
    """Discriminant (2b)^2 - 4a of the quadratic gamma; equals
    (4d/(d+2)^2) (p-1) (2d - p(d-2)).  Nonnegative on 1 <= p <= 2* when
    d >= 3, and for every p >= 1 when d < 3."""
    a, b = ab_coefficients(params)
    return 4.0 * (b * b - a)


@dataclass(frozen=True)
class BetaRoots:
    """Roots of gamma(beta) = 0 and the quadratic's (scaled) denominator."""

    minus: float
    plus: float
    delta: float


def delta_of(params: Params) -> float:
    """delta(p, d) = d^2 (p^2-3p+3) - 2d (p^2-3) + (p-3)^2 = a (d+2)^2."""
    d, p = params.d, params.p
    return d * d * (p * p - 3.0 * p + 3.0) - 2.0 * d * (p * p - 3.0) + (p - 3.0) ** 2


def beta_roots(params: Params) -> BetaRoots:
    """Both roots of gamma(beta) = 0.

    For d >= 3 this is the displayed closed form with radicand
    d (d-2) (p-1) (2*-p); for d < 3 the equivalent (b +- sqrt(b^2-a))/a route
    is used (the critical exponent is infinite there and the reduced
    discriminant (p-1)(2d - p(d-2))d/(d+2)^2 stays nonnegative for p >= 1).
    When delta = 0 the equation degenerates to a linear one: the finite root
    is returned in ``minus`` and ``plus`` is the signed infinity it escapes to.
    """
    d, p = params.d, params.p
    a, b = ab_coefficients(params)
    delta = delta_of(params)
    if abs(delta) <= DELTA_ZERO_TOL * max(1.0, d**2 * p**2):
        if b == 0.0:
            raise DomainError("gamma is constant: no roots")
        return BetaRoots(minus=1.0 / (2.0 * b), plus=math.copysign(math.inf, b), delta=0.0)
    if d >= 3.0:
        rad = d * (d - 2.0) * (p - 1.0) * (params.two_star - p)
        if rad < -1e-13 * max(1.0, d**4):
            raise DomainError(f"negative radicand at d={d}, p={p}")
        root = math.sqrt(max(rad, 0.0))
        num = d * d - d * (p - 5.0) - 2.0 * p + 6.0
        return BetaRoots(
            minus=(num - (d + 2.0) * root) / delta,
            plus=(num + (d + 2.0) * root) / delta,
            delta=delta,
        )
    red = b * b - a
    if red < 0.0:
        raise DomainError(f"negative discriminant at d={d}, p={p}")
    root = math.sqrt(red)
    return BetaRoots(minus=(b - root) / a, plus=(b + root) / a, delta=delta)


def _reciprocal(beta):
    """1/beta, with 1/0 = +inf (for either sign of zero); elementwise for an
    ndarray of beta."""
    if not isinstance(beta, np.ndarray):
        return math.inf if beta == 0.0 else 1.0 / beta
    with np.errstate(divide="ignore"):
        return 1.0 / np.where(beta == 0.0, 0.0, beta)


def m_from_beta(params: Params, beta):
    """Diffusion exponent m = 1 + (2/p)(1/beta - 1); +inf at beta = 0 and
    1 - 2/p at infinite beta.  Elementwise for an ndarray of beta."""
    return 1.0 + (2.0 / params.p) * (_reciprocal(beta) - 1.0)


def beta_from_m(params: Params, m: float) -> float:
    """Inverse of m_from_beta; returns inf when 1 + p(m-1)/2 vanishes
    (to M_CRITICAL_TOL), i.e. at m = 1 - 2/p."""
    denom = 1.0 + params.p * (m - 1.0) / 2.0
    if abs(denom) < M_CRITICAL_TOL:
        return math.inf
    return 1.0 / denom


def kappa_from_beta(params: Params, beta: float) -> float:
    """kappa = beta (p-2) + 1, the exponent combination conserving the
    beta*p-th moment of the rescaled flow."""
    if math.isinf(beta):
        return math.inf if params.p > 2.0 else (-math.inf if params.p < 2.0 else 1.0)
    return beta * (params.p - 2.0) + 1.0


def counterexample_coefficient(params: Params, beta):
    """Quadratic-in-beta coefficient A(p, beta) whose positivity makes the
    heat flow increase the deficit at the power-law witness.

    The cross term alpha = (d-1) beta (p-1) / (d+2) has been eliminated.
    Vanishes at beta = B_+-(p, d).  Elementwise for an ndarray of beta."""
    d, p = params.d, params.p
    if d < 3.0:
        raise DomainError("the counter-example coefficient needs d >= 3")
    lead = (
        (d - 1.0) ** 2 * p * p - (3.0 * d * d - 2.0 * d + 2.0) * p + d * d - 4.0 * d - 3.0
    ) / (d + 2.0) ** 2
    return lead * beta * beta + 2.0 * beta - 1.0


def counterexample_roots(params: Params) -> tuple[float, float]:
    """Roots B_-+ = (d+2)/(d+2 -+ (d-1) sqrt((p-1)(p-2#))) of A = 0
    (returned as (B_minus, B_plus)); real only for p >= 2#."""
    d, p = params.d, params.p
    if d < 3.0:
        raise DomainError("the counter-example roots need d >= 3")
    rad = (p - 1.0) * (p - params.two_sharp)
    if rad < -1e-13 * max(1.0, p * p):
        raise DomainError(f"B roots are complex for p={p} < 2#={params.two_sharp:.6g}")
    root = (d - 1.0) * math.sqrt(max(rad, 0.0))
    minus = math.inf if d + 2.0 - root == 0.0 else (d + 2.0) / (d + 2.0 - root)
    plus = (d + 2.0) / (d + 2.0 + root)
    return minus, plus


@dataclass(frozen=True)
class FlowSpec:
    """Member of the nonlinear-diffusion family, selected by beta: the
    exponent m = 1 + (2/p)(1/beta - 1) and kappa = beta (p-2) + 1 follow
    from it.  The heat flow is the beta = 1 member (m = 1, kappa = p - 1).

    The d = 3, p = 6 family is represented with beta = inf and m = 1 - 2/p
    (the pointwise rescaled form does not exist there; the density form does).
    """

    params: Params
    beta: float

    def __post_init__(self):
        if self.beta == 0.0 or math.isnan(self.beta):
            raise DomainError(f"beta must be nonzero, got {self.beta}")

    @property
    def m(self) -> float:
        return m_from_beta(self.params, self.beta)

    @property
    def kappa(self) -> float:
        return kappa_from_beta(self.params, self.beta)

    @property
    def beta_is_infinite(self) -> bool:
        return math.isinf(self.beta)

    @classmethod
    def heat(cls, params: Params) -> "FlowSpec":
        return cls.nonlinear(params, 1.0)

    @classmethod
    def nonlinear(cls, params: Params, beta: float) -> "FlowSpec":
        return cls(params, beta)

    @classmethod
    def nonlinear_from_m(cls, params: Params, m: float) -> "FlowSpec":
        return cls.nonlinear(params, beta_from_m(params, m))


@dataclass(frozen=True)
class RegionPoint:
    """Classification of a (p, beta) point, or of a row of points sharing p
    (then every field is an ndarray over beta)."""

    admissible: bool
    gamma: float
    A: float
    A_positive: bool
    m: float


def classify_region(params: Params, beta) -> RegionPoint:
    """Admissibility of (p, beta) for the nonlinear-flow dissipation: the
    sign test gamma(beta) >= -GAMMA_TIE_TOL.

    The admissible set is closed (ties at the roots of gamma count as
    admissible): beta in [beta_-, beta_+] when delta > 0, outside
    (beta_+, beta_-) when delta < 0, and the half-line beyond the finite root
    when delta = 0.  The test suite checks the sign test against that
    root-interval description.

    beta may be an ndarray: the same closed forms then run elementwise and
    give bitwise the values of the scalar calls.  A scalar beta gives Python
    floats and bools.  A is NaN below d = 3, where the witness does not
    exist.
    """
    gamma = gamma_of_beta(params, beta)
    try:
        a_val = counterexample_coefficient(params, beta)
    except DomainError:
        a_val = beta * math.nan
    return RegionPoint(
        admissible=gamma >= -GAMMA_TIE_TOL,
        gamma=gamma,
        A=a_val,
        A_positive=a_val > 0.0,
        m=m_from_beta(params, beta),
    )


REGION_CSV_HEADER = "p,beta,m,gamma,admissible,A,A_positive"


def region_sweep(
    d: float,
    p_range: tuple[float, float],
    beta_range: tuple[float, float],
    n_p: int,
    n_beta: int,
) -> tuple[list[tuple], dict]:
    """Rectangular (p, beta) sweep of classify_region, one call per p row.

    Returns (rows, summary); each row matches REGION_CSV_HEADER.
    """
    p_lo, p_hi = p_range
    if not all(math.isfinite(x) for x in (*p_range, *beta_range)):
        raise DomainError(f"the sweep needs finite ranges, got p {p_range}, beta {beta_range}")
    ts = two_star(d)
    if p_lo < 1.0 or (math.isfinite(ts) and p_hi > ts + 1e-12):
        raise DomainError(f"p range [{p_lo}, {p_hi}] outside [1, {ts:.6g}]")
    if n_p < 1 or n_beta < 1:
        raise DomainError(f"the sweep needs at least one point per axis, got {n_p} x {n_beta}")
    ps = np.linspace(p_lo, min(p_hi, ts) if math.isfinite(ts) else p_hi, n_p)
    betas = np.linspace(beta_range[0], beta_range[1], n_beta)
    beta_list = betas.tolist()
    rows = []
    n_admissible = 0
    for p in ps.tolist():
        pt = classify_region(Params(d, p), betas)
        adm = pt.admissible.astype(int).tolist()
        n_admissible += sum(adm)
        rows.extend(zip([p] * n_beta, beta_list, pt.m.tolist(), pt.gamma.tolist(), adm,
                        pt.A.tolist(), pt.A_positive.astype(int).tolist()))
    summary = {
        "d": d,
        "p_min": float(ps[0]),
        "p_max": float(ps[-1]),
        "beta_min": float(betas[0]),
        "beta_max": float(betas[-1]),
        "n_p": int(n_p),
        "n_beta": int(n_beta),
        "n_admissible": int(n_admissible),
        "notes": [],
    }
    if d == 1.0:
        summary["notes"].append(
            "d = 1: delta changes sign at p = 2; admissibility here is the sign of "
            "gamma(beta) for every p >= 1, which is the wider of the two "
            "published d = 1 conditions"
        )
    return rows, summary


def region_rows_to_csv(rows, path):
    """Write sweep rows with the canonical header (floats as repr, the two
    flags as integers)."""
    with open(path, "w") as fh:
        fh.write(REGION_CSV_HEADER + "\n")
        fh.writelines(f"{p!r},{beta!r},{m!r},{gamma!r},{adm},{a!r},{a_pos}\n"
                      for p, beta, m, gamma, adm, a, a_pos in rows)
