"""Improved inequality constants under integral and symmetry constraints.

Three ingredients:

* a projected-descent estimate of the constrained infimum

      lambda* = inf  int (L v)^2 / int |v'|^2 nu
                over v >= 0, int v = 1, int z |v|^p = 0,

  which exceeds the unconstrained value d (attained only by the sign-
  changing direction z) and is bounded above by the next even eigenvalue
  2(d+1).  The descent takes its gradient in the metric of the numerator's
  weights (a Sobolev gradient, Neuberger 1997): in raw coefficients the
  weights lam_k^2 span about N^4 and the steps stall; in that metric a unit
  step is close to inverse iteration and a random start reaches 2(d+1) in
  about 30 steps.  Each start reports why it stopped;

* the affine transfer of that estimate into an improved constant
  d + (d-1)^2/(d(d+2)) (2# - p)(lambda* - d) for the moment-constrained
  interpolation inequality, with an empirical verifier over random
  moment-projected test functions, whose slack I - lambda E_p takes both
  sides of the inequality from the functionals module;

* closed-form constants: the explicit lower bound for the p = 2
  (logarithmic) case, and the two antipodal-symmetry constants with their
  guaranteed gap.

The reported lambda* is an achieved value, hence an upper bound on the true
infimum; constants derived from it are estimates and the verifier is the
empirical backstop.  Whether the interval infimum equals its full-sphere
analogue is open; only the interval quantity is computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import two_sharp, two_star
from .discretization import GridFn, Quadrature, _band_limited, random_band_limited
from .errors import ConvergenceError, DomainError
from .functionals import _dirichlet, _entropy

#: |p - 2| below this gives the antipodal constants' logarithmic limits
P_LOG_BRANCH_TOL = 1e-9

#: positivity floor used when clipping iterates
CLIP_FLOOR = 1e-10

#: a moment shift is accepted when |int z |v|^p| <= MOMENT_TOL int |v|^p
MOMENT_TOL = 1e-13
#: rounds of mass normalization, clipping and moment shift
FEASIBLE_ROUNDS = 6
#: a descent stops after DESCENT_MAX_ITER steps, or earlier once the dual
#: norm of its projected gradient in the descent metric is below DESCENT_GTOL;
#: the line search, which asks for a decrease of more than 1e-15, fails from
#: norms of about 2.6e-8 down, so a smaller tolerance is met by chance only
DESCENT_MAX_ITER = 400
DESCENT_GTOL = 4e-8


# -- quotients in coefficient space ------------------------------------------


def _quadratics(c: np.ndarray, num_w: np.ndarray, den_w: np.ndarray) -> tuple[float, float]:
    """Numerator and denominator sum(num_w c^2), sum(den_w c^2) of a ratio of
    diagonal quadratics."""
    c2 = c**2
    return float(num_w @ c2), float(den_w @ c2)


def rayleigh_quotient(v: GridFn) -> float:
    """int (L v)^2 / int |v'|^2 nu; diagonal in the spectral basis."""
    den = _dirichlet(v.quad, v.coeffs)
    if den <= 0.0:
        raise ZeroDivisionError("quotient undefined for constant input")
    return float(v.quad.eigenvalues**2 @ v.coeffs**2 / den)


# -- constraint projection ----------------------------------------------------


def moment_of(quad: Quadrature, values: np.ndarray, p: float):
    """int z |v|^p from nodal values; per column for an (n, s) stack."""
    return quad.z_weights @ np.abs(values) ** p


def project_moment(quad: Quadrature, coeffs: np.ndarray, p: float,
                   values: np.ndarray | None = None) -> GridFn:
    """Shift along the first eigenfunction until int z |v|^p = 0.

    Newton on v0 + r phi1 (v0 the input's nodal values: ``values`` if the
    caller holds them, else synthesized once), with a bisection fallback on
    an expanding bracket.  The shift is returned only if the moment of the
    synthesized result is within MOMENT_TOL of int |v0|^p; otherwise
    ConvergenceError (on strongly sign-changing input the bracket can grow
    until the moment is round-off, whose sign flips are no root).  With
    ``values`` given, that synthesis is the only transform.

    ``coeffs`` may be an (n, s) stack of s functions as columns: Newton then
    runs on all columns at once, the columns it leaves unconverged go one by
    one through the bisection, every column is verified, and the GridFn
    returned holds (n, s) coeffs and values.
    """
    phi1 = quad.phi1_values[:, None]
    v0 = (quad.to_values(coeffs) if values is None else values).reshape(quad.n, -1)
    limit = MOMENT_TOL * (quad.weights @ np.abs(v0) ** p + 1e-300)
    r = np.zeros(v0.shape[1])
    for _ in range(40):
        vals = v0 + r * phi1
        val = moment_of(quad, vals, p)
        todo = ~(np.abs(val) <= limit)
        if not np.count_nonzero(todo):
            break
        dg = p * (quad.z_weights @ (np.abs(vals) ** (p - 2.0) * vals * phi1))
        # a column stays where it is once its step is undefined
        step = todo & (dg > 0.0) & (dg < math.inf)
        if not np.count_nonzero(step):
            break
        r -= np.divide(val, dg, out=np.zeros_like(r), where=step)
    for j in todo.nonzero()[0]:
        r[j] = _bisect_moment(quad, v0[:, j], p, limit[j])
    shifted = coeffs.copy()
    shifted[1] += r.reshape(coeffs.shape[1:])
    f = GridFn(quad, quad.to_values(shifted), shifted)
    residual = np.abs(moment_of(quad, f.values.reshape(quad.n, -1), p))
    failed = ~(residual <= limit)
    if np.count_nonzero(failed):
        j = np.argmax(failed)
        raise ConvergenceError(f"moment projection left |int z |v|^p| = {residual[j]:.3e}"
                               f" > {limit[j]:.3e}")
    return f


def _bisect_moment(quad: Quadrature, v0: np.ndarray, p: float, limit: float) -> float:
    """A shift r with |int z |v0 + r phi1|^p| <= limit, by bisection on an
    expanding bracket (the fallback of project_moment)."""

    def g(r):
        return moment_of(quad, v0 + r * quad.phi1_values, p)

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if g(lo) < 0.0 < g(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ConvergenceError("moment projection failed to bracket a root")
    r = 0.5 * (lo + hi)
    while lo < r < hi and abs(val := g(r)) > limit:
        if val < 0.0:
            lo = r
        else:
            hi = r
        r = 0.5 * (lo + hi)
    return r


def project_feasible(quad: Quadrature, coeffs: np.ndarray, p: float) -> GridFn:
    """Alternate mass normalization (c_0 = 1), nodal clipping at the
    positivity floor, and the moment shift.  Returns the projected function,
    as project_moment does."""
    c = coeffs.copy()
    c[0] = 1.0
    vals = quad.to_values(c)
    for _ in range(FEASIBLE_ROUNDS):
        if vals.min() < CLIP_FLOOR:
            c = quad.to_coeffs(np.maximum(vals, CLIP_FLOOR))
            c[0] = 1.0
            vals = None
        # the shift moves c_1 only, so the mass stays exactly 1
        f = project_moment(quad, c, p, vals)
        c, vals = f.coeffs, f.values
        if vals.min() >= 0.0:
            break
    return f


def constraint_residuals(quad: Quadrature, coeffs: np.ndarray, p: float) -> dict:
    vals = quad.to_values(coeffs)
    return {
        "mass": abs(float(coeffs[0]) - 1.0),
        "moment": abs(moment_of(quad, vals, p)),
        "positivity_min": float(vals.min()),
    }


# -- constrained minimization --------------------------------------------------


@dataclass(frozen=True)
class ImprovementEstimate:
    """Outcome of the constrained minimization.

    lambda_star is the best achieved quotient (an upper bound on the true
    infimum); lambda_bound the improved constant derived from it (NaN when p
    is outside (2, 2#)); relaxed_value the achieved value of the weaker
    quotient from the same feasible set.  restart_values,
    restart_iterations and restart_reasons give each start's achieved
    quotient, descent steps and why it stopped, the two second-mode starts
    first: "gtol" (the gradient test was met), "line-search" (no trial step
    decreased the quotient), "positivity-clip" (the same, at an iterate with
    a nodal minimum at or below CLIP_FLOOR), "max-iter", or
    "projection-failed" (value NaN, 0 steps).
    """

    d: float
    p: float
    n: int
    restarts: int
    lambda_star: float
    lambda_bound: float
    relaxed_value: float
    upper_bound: float
    constraint_residuals: dict
    minimizer: GridFn
    iterations: int
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    restart_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "N": self.n,
            "restarts": self.restarts,
            "lambda_star": self.lambda_star,
            "lambda_bound": self.lambda_bound,
            "relaxed_value": self.relaxed_value,
            "upper_bound": self.upper_bound,
            "residuals": self.constraint_residuals,
            "iterations": self.iterations,
            "restart_values": list(self.restart_values),
            "restart_iterations": list(self.restart_iterations),
            "restart_reasons": list(self.restart_reasons),
            "note": (
                "lambda_star is an achieved value (upper bound on the infimum); "
                "lambda_bound inherits that status; the interval infimum "
                "dominates its full-sphere analogue and whether they coincide "
                "is open"
            ),
        }


def _descend(quad: Quadrature, coeffs: np.ndarray, p: float, objective):
    """Projected descent on log(objective), a ratio of diagonal quadratics
    given by the weight vectors (num_w, den_w), in the metric of the
    numerator: mode k >= 1 is scaled by P_k = num / (2 num_w_k), mode 0
    stays at 1.  Returns the iterate, its value, the steps taken and the
    reason it stopped (see ImprovementEstimate)."""
    num_w, den_w = objective
    f = project_feasible(quad, coeffs, p)
    c, vals = f.coeffs, f.values
    num, den = _quadratics(c, num_w, den_w)
    cur = num / den if den > 0.0 else math.inf
    inv_w = np.r_[0.0, 0.5 / num_w[1:]]
    step = 1.0
    reason = "max-iter"
    for iters in range(1, DESCENT_MAX_ITER + 1):
        grad = 2.0 * (num_w * c) / num - 2.0 * (den_w * c) / den
        metric = num * inv_w
        # P-orthogonal to the moment gradient; mode 0 is fixed by P_0 = 0
        direction = metric * grad
        mom_grad = p * quad.to_coeffs(quad.nodes * np.abs(vals) ** (p - 2.0) * vals)
        p_mom = metric * mom_grad
        mpm = float(mom_grad @ p_mom)
        if mpm > 0.0:
            direction -= p_mom * (float(mom_grad @ direction) / mpm)
        gnorm = math.sqrt(max(float(grad @ direction), 0.0))
        if gnorm < DESCENT_GTOL:
            reason = "gtol"
            break
        s = step
        for _ in range(25):
            trial = project_feasible(quad, c - s * direction, p)
            tnum, tden = _quadratics(trial.coeffs, num_w, den_w)
            if tden > 0.0 and tnum / tden < cur - 1e-15:
                c, vals = trial.coeffs, trial.values
                num, den, cur = tnum, tden, tnum / tden
                step = min(s * 1.5, 1.0)
                break
            s *= 0.5
        else:
            reason = "positivity-clip" if vals.min() <= CLIP_FLOOR else "line-search"
            break
    return c, cur, iters, reason


def estimate_lambda_star(
    d: float, p: float, n: int = 64, restarts: int = 16, seed: int = 0
) -> ImprovementEstimate:
    """Multi-start projected descent for the constrained curvature quotient.

    Starts from the pure even second-mode perturbation (whose quotient is
    exactly 2(d+1), the proven upper bound) and from random feasible
    band-limited perturbations of 1.  The result must exceed d by a strictly
    positive margin, which is asserted as an outcome check, never assumed.
    """
    if not (2.0 < p) or not (p < two_star(d)):
        raise DomainError(f"need 2 < p < 2* = {two_star(d):.6g}, got {p}")
    if n < 64:
        raise DomainError("need at least 64 modes")
    quad = Quadrature(d, n)
    lam = quad.eigenvalues
    rng = np.random.default_rng(seed)

    starts = []
    base = np.zeros(n)
    base[0] = 1.0
    for amp in (0.3, 0.6):
        c = base.copy()
        c[2] = amp
        starts.append(c)
    while len(starts) < max(restarts, 2):
        g = random_band_limited(quad, rng, modes=min(10, n // 4), amplitude=float(rng.uniform(0.2, 0.8)))
        starts.append(base + g.coeffs)

    best_c, best_val = None, math.inf
    values, iterations, reasons = [], [], []
    for c0 in starts:
        try:
            c, val, iters, reason = _descend(quad, c0, p, (lam**2, lam))
        except ConvergenceError:
            values.append(math.nan)
            iterations.append(0)
            reasons.append("projection-failed")
            continue
        values.append(val)
        iterations.append(iters)
        reasons.append(reason)
        if val < best_val:
            best_c, best_val = c, val
    if best_c is None:
        raise ConvergenceError("no start converged")

    _, relaxed_val, relaxed_iters, _ = _descend(
        quad, best_c.copy(), p, (lam, np.r_[0.0, np.ones(n - 1)])
    )

    if not best_val > d:
        raise ConvergenceError(
            f"achieved quotient {best_val:.8g} does not exceed d = {d}; "
            "the constrained minimization lost feasibility"
        )
    lam_bound = math.nan
    if 2.0 < p < two_sharp(d):
        lam_bound = improved_constant(d, p, best_val)
    return ImprovementEstimate(
        d=d,
        p=p,
        n=n,
        restarts=max(restarts, 2),
        lambda_star=best_val,
        lambda_bound=lam_bound,
        relaxed_value=relaxed_val,
        upper_bound=2.0 * (d + 1.0),
        constraint_residuals=constraint_residuals(quad, best_c, p),
        minimizer=GridFn.from_coeffs(quad, best_c),
        iterations=sum(iterations) + relaxed_iters,
        restart_values=tuple(values),
        restart_iterations=tuple(iterations),
        restart_reasons=tuple(reasons),
    )


def improved_constant(d: float, p: float, lambda_star: float) -> float:
    """d + (d-1)^2/(d(d+2)) (2# - p) (lambda* - d): the improved constant for
    the moment-constrained inequality; affine and increasing in lambda*."""
    if not (2.0 < p < two_sharp(d)):
        raise DomainError(f"need 2 < p < 2# = {two_sharp(d):.6g}, got {p}")
    if lambda_star < d:
        raise DomainError("lambda_star must be >= d")
    return d + (d - 1.0) ** 2 / (d * (d + 2.0)) * (two_sharp(d) - p) * (lambda_star - d)


def verify_improved_inequality(
    d: float,
    p: float,
    lam: float,
    samples: int = 500,
    seed: int = 1,
    even_only: bool = False,
) -> dict:
    """Empirical check of  I >= lam E_p[|f|^p], that is of
    int |f'|^2 nu >= lam/(p-2) (||f||_p^2 - ||f||_2^2), over random
    moment-projected test functions of 12 modes on 64 nodes; the slack is
    I - lam E_p with both sides from the functionals module.

    The samples are drawn one by one, in the order random_band_limited draws
    them (the amplitude, then the 12 normals), and evaluated as one
    (64, samples) column stack: the rescaling, the moment projection and
    both functionals take the stack through their vector code.

    A violated sample is reported, not raised.  With even_only the moment
    constraint holds by parity and the draw stays in the symmetric class.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    quad = Quadrature(d, 64)
    rng = np.random.default_rng(seed)
    amplitudes = np.empty(samples)
    draws = np.empty((12, samples))
    for i in range(samples):
        # amplitudes above 1 produce sign-changing test functions, which the
        # moment-constrained inequality also covers
        amplitudes[i] = rng.uniform(0.2, 1.3)
        draws[:, i] = rng.standard_normal(12)
    c = _band_limited(quad, draws, amplitudes, even_only)
    c[0] = 1.0
    if even_only:
        values = quad.to_values(c)
    else:
        f = project_moment(quad, c, p)
        c, values = f.coeffs, f.values
    slacks = _dirichlet(quad, c) - lam * _entropy(quad.weights, np.abs(values) ** p, p)
    return {
        "d": d,
        "p": p,
        "lambda": lam,
        "samples": samples,
        "min_slack": float(slacks.min()),
        "mean_slack": float(slacks.mean()),
        "violations": int(np.sum(slacks < 0.0)),
    }


# -- closed-form constants -----------------------------------------------------


def logsob_improvement(d: float) -> dict:
    """Explicit lower bound for the constrained logarithmic case.

    Returns the bound on the constrained spectral quotient, the crossing
    point b* of the two lower envelopes e(b/2 - 1) and
    e(2 sqrt(b^2 + b/(d+1)) - 2b) with e(c) = (d b + 2(d+1) c)/(b + c), the
    residual of the crossing equation at b* (zero in exact arithmetic), and
    the resulting entropy constant delta.
    """
    if d < 2.0:
        raise DomainError("needs d >= 2")
    root = math.sqrt(2.0 * (d + 3.0) * (2.0 * d + 3.0))
    lambda_star_bound = d + 2.0 * (d + 2.0) / (2.0 * (d + 3.0) + root)
    b_star = (2.0 / 9.0) * (2.0 * root + 5.0 * d + 9.0) / (d + 1.0)
    delta = d + (2.0 / d) * (4.0 * d - 1.0) / (2.0 * (d + 3.0) + root)

    def e_of(b, c):
        return (d * b + 2.0 * (d + 1.0) * c) / (b + c)

    c1 = b_star / 2.0 - 1.0
    c2 = 2.0 * math.sqrt(b_star**2 + b_star / (d + 1.0)) - 2.0 * b_star
    residual = abs(e_of(b_star, c1) - e_of(b_star, c2))
    return {
        "d": d,
        "Lambda_star_bound": lambda_star_bound,
        "b_star": b_star,
        "delta": delta,
        "crossing_residual": residual,
        "crossing_value": e_of(b_star, c1),
    }


def antipodal_constants(d: float, p: float) -> dict:
    """Constants for the antipodal-symmetry improvement.

    For p != 2 both constants multiply (||u||_p^2 - ||u||_2^2)/(p - 2) (so
    no sign gymnastics is needed across p = 2, where that factor turns into
    half the quadratic entropy); at p = 2 the stated logarithmic limits
    (exactly half the p -> 2 values) are returned.

    prop_const (heat-flow route) is defined for p <= 2#, thm_const
    (nonlinear route) for p <= 2*; on the common range the gap
    thm - prop is at least gap_lower_bound = (d-1)^2 (p-1)^2 /
    (d (d(d+2)+p-1)).
    """
    ts, sharp = two_star(d), two_sharp(d)
    if p < 1.0 or (math.isfinite(ts) and p > ts * (1 + 1e-14)):
        raise DomainError(f"p={p} outside [1, {ts:.6g}]")
    denom = d * (d + 2.0) + p - 1.0
    theta = (d - 1.0) ** 2 * (p - 1.0) / denom
    beta = (d + 2.0) / (d + 3.0 - p)
    lambda_star_antipodal = (1.0 - theta) * 2.0 * (d + 1.0) + theta * d
    gap_lower_bound = (d - 1.0) ** 2 * (p - 1.0) ** 2 / (d * denom)

    prop_raw = (d * d + (d - 1.0) ** 2 * (sharp - p)) / d if p <= sharp else None
    if math.isfinite(ts):
        thm_raw = d * (1.0 + (d * d - 4.0) * (ts - p) / denom)
    else:
        thm_raw = math.nan  # the critical exponent is infinite below d = 3

    if abs(p - 2.0) < P_LOG_BRANCH_TOL:
        prop_const = (d * d + 4.0 * d - 1.0) / (2.0 * d)
        thm_const = 0.5 * d * (d + 3.0) ** 2 / (d + 1.0) ** 2
    else:
        prop_const = prop_raw
        thm_const = thm_raw
    return {
        "d": d,
        "p": p,
        "prop_const": prop_const,
        "thm_const": thm_const,
        "prop_raw": prop_raw,
        "thm_raw": thm_raw,
        "theta": theta,
        "beta": beta,
        "lambda_star_antipodal": lambda_star_antipodal,
        "gap_lower_bound": gap_lower_bound,
    }
