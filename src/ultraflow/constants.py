"""Closed-form exponents, roots and coefficients for the flow machinery.

Everything here is an explicit rational/algebraic expression in the real
dimension d >= 1 and the exponent p >= 1.  Infinite values (the critical
exponent for d <= 2, the degenerate root when the quadratic denominator
vanishes, the d = 3, p = 6 nonlinearity) are represented by ``math.inf``,
never by a large float.  The region's closed forms run elementwise over
ndarrays of p and beta in the body of the float calls, bitwise their values,
with NaN where a float call raises; floats give Python floats.
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


def _where(cond, x, y):
    """np.where for an ndarray cond, a plain choice for a bool; both x and y are evaluated."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _over(x, y):
    """x / y, +inf where y == 0 (either sign of zero); elementwise and silent for ndarrays."""
    if not isinstance(x, np.ndarray) and not isinstance(y, np.ndarray):
        return math.inf if y == 0.0 else x / y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(y == 0.0, math.inf, x / y)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


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
    when that is finite.  p = 2 is valid: the entropy there is the
    logarithmic one.  p may be an ndarray of exponents for the region's
    closed forms: each is checked, and the first bad one is named.
    """

    d: float
    p: float | np.ndarray

    def __post_init__(self):
        # written so that NaN fails them
        if not 1.0 <= self.d < math.inf:
            raise DomainError(f"dimension must be finite and >= 1, got {self.d}")
        ts = two_star(self.d)
        for p in self.p.ravel().tolist() if isinstance(self.p, np.ndarray) else (self.p,):
            if not 1.0 <= p < math.inf:
                raise DomainError(f"exponent must be finite and >= 1, got {p}")
            if p > ts * (1.0 + 1e-14):
                raise DomainError(f"p={p} exceeds the critical exponent {ts:.6g} for d={self.d}")

    @property
    def two_star(self) -> float:
        return two_star(self.d)

    @property
    def two_sharp(self) -> float:
        return two_sharp(self.d)


#: d or p above this overflow a float in the closed forms (d^4, d^2 p^2)
CLOSED_FORM_MAX = 1e75


def _closed_form_args(params: Params) -> tuple[float, float]:
    """(d, p), refused with the parameter (the largest p) named above CLOSED_FORM_MAX."""
    p = params.p.max() if isinstance(params.p, np.ndarray) else params.p
    for name, x in (("d", params.d), ("p", p)):
        if x > CLOSED_FORM_MAX:
            raise DomainError(f"{name}={x:g} exceeds {CLOSED_FORM_MAX:g}: closed forms overflow")
    return params.d, params.p


def ab_coefficients(params: Params) -> tuple[float, float]:
    """Coefficients (a, b) of the dissipation quadratic gamma(beta) =
    -1 + 2 b beta - a beta^2."""
    d, p = _closed_form_args(params)
    a = ((d - 1.0) ** 2 * p * p - 3.0 * (d * d + 2.0) * p + 3.0 * (d * d + 2.0 * d + 3.0)) / (
        d + 2.0
    ) ** 2
    b = (d + 3.0 - p) / (d + 2.0)
    return a, b


def gamma_of_beta(params: Params, beta):
    """gamma(beta) = -1 + 2 b beta - a beta^2, the coefficient multiplying the
    quartic-ratio integral in the nonlinear-flow dissipation identity
    (elementwise for ndarrays of p and beta)."""
    a, b = ab_coefficients(params)
    return -1.0 + 2.0 * b * beta - a * beta * beta


def two_sharp_gap(d: float, p: float) -> float:
    """(d-1)^2 (2# - p), evaluated as its expansion 2d^2 + 1 - p (d-1)^2:
    finite at d = 1, where 2# is infinite and the product has the limit 3."""
    return 2.0 * d * d + 1.0 - p * (d - 1.0) ** 2


def gamma_one(params: Params) -> float:
    """gamma(1), the heat-flow dissipation coefficient
    (p-1) (d-1)^2 (2#-p) / (d+2)^2, through ``two_sharp_gap``: (p-1)/3 at
    d = 1.  The factored form keeps its relative accuracy near p = 2#, where
    the quadratic's own -1 + 2b - a cancels."""
    d, p = _closed_form_args(params)
    return (p - 1.0) * two_sharp_gap(d, p) / (d + 2.0) ** 2


def _reduced_discriminant(d: float, p: float) -> float:
    """b^2 - a = d (p-1) (d-2)(2*-p) / (d+2)^2, exactly 0 at p = 2* and at
    p = 1; where 2* is infinite (d <= 2), (d-2)(2*-p) reads 2d - p(d-2)."""
    x = 2.0 * d - p * (d - 2.0) if d <= 2.0 else (d - 2.0) * (two_star(d) - p)
    return d * (p - 1.0) * x / (d + 2.0) ** 2


def gamma_discriminant(params: Params) -> float:
    """Discriminant (2b)^2 - 4a of the quadratic gamma; equals
    (4d/(d+2)^2) (p-1) (2d - p(d-2)).  Nonnegative on 1 <= p <= 2* when
    d >= 3, and for every p >= 1 when d < 3."""
    d, p = _closed_form_args(params)
    return 4.0 * _reduced_discriminant(d, p)


def _quadratic_roots(a, b, red):
    """(b -+ sqrt(red))/a, the roots of a x^2 - 2 b x + 1 = 0 with
    red = b^2 - a >= 0, as 1/q and q/a, q = b + sign(b) sqrt(red), so that
    neither subtracts nearly equal numbers; q/a is infinite at a = 0."""
    root, up = _sqrt(red), b >= 0.0
    q = b + _where(up, root, -root)
    near, far = _over(1.0, q), _over(q, a)
    return _where(up, near, far), _where(up, far, near)


@dataclass(frozen=True)
class BetaRoots:
    """Roots of gamma(beta) = 0 and the quadratic's (scaled) denominator."""

    minus: float
    plus: float
    delta: float


def delta_of(params: Params) -> float:
    """delta(p, d) = d^2 (p^2-3p+3) - 2d (p^2-3) + (p-3)^2 = a (d+2)^2."""
    return ab_coefficients(params)[0] * (params.d + 2.0) ** 2


def _factored_delta(d: float, p: float, root: float) -> float:
    """delta = (d-1)^2 (p - p1)(p - p2) for d <= 4, given root =
    sqrt(3d (4-d)): (d-1)^2 p1 = (3(d^2+2) + (d+2) root)/2 adds two terms of
    one sign, and p2 = 3(d^2+2d+3)/((d-1)^2 p1) is Vieta's product over it.
    Each factor subtracts a root from p itself, so delta keeps its digits
    next to its zeros, where the expanded polynomial cancels; at d = 1,
    where p1 is infinite, (d-1)^2 (p - p1) is -9."""
    lead, big = (d - 1.0) ** 2, 1.5 * (d * d + 2.0) + 0.5 * (d + 2.0) * root
    far = lead * (p - big / lead) if lead else -big
    return far * (p - 3.0 * (d * d + 2.0 * d + 3.0) / big)


def beta_roots(params: Params) -> BetaRoots:
    """Both roots (b -+ sqrt(b^2-a))/a of gamma(beta) = 0, for every d >= 1,
    from the factored b^2 - a: the finite root keeps its digits near
    delta = 0 and the double root at 2* stays double.  For d <= 4, where
    delta has real zeros in p, a comes from the factored delta, so the
    root that escapes to infinity keeps its digits too.  When delta = 0 the
    equation degenerates to a linear one: the finite root is returned in
    ``minus`` and ``plus`` is the signed infinity it escapes to.  An ndarray
    of p gives NaN roots where a float p raises."""
    a, b = ab_coefficients(params)
    d, p = params.d, params.p
    if d <= 4.0:
        delta = _factored_delta(d, p, math.sqrt(3.0 * d * (4.0 - d)))
        a = delta / (d + 2.0) ** 2
    else:
        delta = a * (d + 2.0) ** 2
    linear = abs(delta) <= DELTA_ZERO_TOL * _where(d**2 * p**2 > 1.0, d**2 * p**2, 1.0)
    red = _reduced_discriminant(d, p)
    none = _where(linear, b == 0.0, red < -1e-13 * max(1.0, d**4) / (d + 2.0) ** 2)
    if not isinstance(none, np.ndarray) and none:
        raise DomainError("gamma is constant: no roots" if linear
                          else f"negative discriminant at d={d}, p={p}")
    minus, plus = _quadratic_roots(a, b, _where(0.0 > red, 0.0, red))
    minus = _where(none, math.nan, _where(linear, _over(1.0, 2.0 * b), minus))
    plus = _where(none, math.nan, _where(linear, _where(b > 0.0, math.inf, -math.inf), plus))
    return BetaRoots(minus, plus, delta=_where(linear, 0.0, delta))


def m_from_beta(params: Params, beta):
    """Diffusion exponent m = 1 + (2/p)(1/beta - 1); +inf at beta = 0 and
    1 - 2/p at infinite beta.  Elementwise for ndarrays of p and beta."""
    return 1.0 + (2.0 / params.p) * (_over(1.0, beta) - 1.0)


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
    Vanishes at beta = B_+-(p, d).  Elementwise for ndarrays of p and beta."""
    d, p = _closed_form_args(params)
    if d < 3.0:
        raise DomainError("the counter-example coefficient needs d >= 3")
    lead = (
        (d - 1.0) ** 2 * p * p - (3.0 * d * d - 2.0 * d + 2.0) * p + d * d - 4.0 * d - 3.0
    ) / (d + 2.0) ** 2
    return lead * beta * beta + 2.0 * beta - 1.0


def counterexample_roots(params: Params) -> tuple[float, float]:
    """Roots B_-+ = 1/(1 -+ s), s = ((d-1)/(d+2)) sqrt((p-1)(p-2#)), of
    A = -1 + 2 beta + lead beta^2 = 0, whose lead is s^2 - 1 (returned as
    (B_minus, B_plus)); real only for p >= 2#."""
    d, p = _closed_form_args(params)
    if d < 3.0:
        raise DomainError("the counter-example roots need d >= 3")
    rad = (p - 1.0) * (p - two_sharp(d))
    if rad < -1e-13 * max(1.0, p * p):
        raise DomainError(f"B roots are complex for p={p} < 2#={two_sharp(d):.6g}")
    s2 = ((d - 1.0) / (d + 2.0)) ** 2 * max(rad, 0.0)
    plus, minus = _quadratic_roots(1.0 - s2, 1.0, s2)
    return minus, plus


@dataclass(frozen=True)
class FlowSpec:
    """Member of the nonlinear-diffusion family, selected by beta: the
    exponent m = 1 + (2/p)(1/beta - 1) follows from it.  The heat flow is
    the beta = 1 member (m = 1).

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
    def beta_is_infinite(self) -> bool:
        return math.isinf(self.beta)

    @classmethod
    def heat(cls, params: Params) -> "FlowSpec":
        return cls(params, 1.0)

    @classmethod
    def nonlinear_from_m(cls, params: Params, m: float) -> "FlowSpec":
        return cls(params, beta_from_m(params, m))


@dataclass(frozen=True)
class RegionPoint:
    """Classification of a (p, beta) point, or of ndarrays of p and beta
    (then every field is an ndarray of their broadcast shape: a (p, beta)
    array for a region map's grid)."""

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

    p and beta may be ndarrays: the same closed forms then run elementwise
    over their broadcast shape and give bitwise the values of the scalar
    calls.  Scalars give Python floats and bools.  A is NaN below d = 3,
    where the witness does not exist.
    """
    gamma = gamma_of_beta(params, beta)
    try:
        a_val = counterexample_coefficient(params, beta)
    except DomainError:
        a_val = gamma * math.nan
    return RegionPoint(
        admissible=gamma >= -GAMMA_TIE_TOL,
        gamma=gamma,
        A=a_val,
        A_positive=a_val > 0.0,
        m=m_from_beta(params, beta),
    )


REGION_CSV_HEADER = "p,beta,m,gamma,admissible,A,A_positive"


@dataclass(frozen=True)
class RegionMap:
    """A square (p, beta) sweep: the two axes and a RegionPoint whose fields
    are (len(p), len(beta)) arrays, row i at p[i]."""

    p: np.ndarray
    beta: np.ndarray
    point: RegionPoint


def region_sweep(
    d: float, p_range: tuple[float, float], beta_range: tuple[float, float], grid: int
) -> tuple[RegionMap, dict]:
    """Square (p, beta) sweep of classify_region with ``grid`` points per
    axis: one call on a column of p against the row of beta gives
    (grid, grid) arrays, every cell bitwise the scalar call at its (p, beta).

    Returns (region, summary).
    """
    p_lo, p_hi = p_range
    if not all(math.isfinite(x) for x in (*p_range, *beta_range)):
        raise DomainError(f"the sweep needs finite ranges, got p {p_range}, beta {beta_range}")
    ts = two_star(d)
    if p_lo < 1.0 or (math.isfinite(ts) and p_hi > ts + 1e-12):
        raise DomainError(f"p range [{p_lo}, {p_hi}] outside [1, {ts:.6g}]")
    if grid < 1:
        raise DomainError(f"the sweep needs at least one point per axis, got {grid}")
    ps = np.linspace(p_lo, min(p_hi, ts) if math.isfinite(ts) else p_hi, grid)
    betas = np.linspace(beta_range[0], beta_range[1], grid)
    # extreme betas overflow to the limits the scalar calls reach in floats
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        point = classify_region(Params(d, ps[:, None]), betas)
    summary = {
        "d": d,
        "p_min": float(ps[0]),
        "p_max": float(ps[-1]),
        "beta_min": float(betas[0]),
        "beta_max": float(betas[-1]),
        "n_p": int(grid),
        "n_beta": int(grid),
        "n_admissible": int(np.count_nonzero(point.admissible)),
        "notes": [],
    }
    if d == 1.0:
        summary["notes"].append(
            "d = 1: delta changes sign at p = 2; admissibility here is the sign of "
            "gamma(beta) for every p >= 1, which is the wider of the two "
            "published d = 1 conditions"
        )
    return RegionMap(ps, betas, point), summary


def region_rows_to_csv(region: RegionMap, path):
    """Write the sweep with the canonical header, one CSV line per (p, beta)
    cell in row order (floats as repr, the two flags as 0 or 1).

    The lines stream out one p row per write: each p and beta is formatted
    once, and the m, gamma and A cells through float.__repr__ of the row's
    list, which gives the bytes repr gives a Python float.
    """
    pt = region.point
    betas = list(map(float.__repr__, region.beta.tolist()))
    with open(path, "w") as fh:
        fh.write(REGION_CSV_HEADER + "\n")
        for i, p in enumerate(region.p.tolist()):
            head = repr(p)
            cells = zip(betas, *(map(float.__repr__, field[i].tolist())
                                 for field in (pt.m, pt.gamma, pt.A)),
                        pt.admissible[i].astype(int).tolist(),
                        pt.A_positive[i].astype(int).tolist())
            fh.write("".join(f"{head},{beta},{m},{gamma},{adm},{a},{a_pos}\n"
                             for beta, m, gamma, a, adm, a_pos in cells))
