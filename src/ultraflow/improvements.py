"""Improved inequality constants under integral and symmetry constraints.

Three ingredients:

* the constrained infimum

      lambda* = inf  int (L v)^2 / int |v'|^2 nu
                over v >= 0, int v = 1, int z |v|^p = 0,

  which exceeds the unconstrained value d (attained only by the sign-
  changing direction z) and is at most the next even eigenvalue 2(d+1):
  v = 1 + eps phi_2 is even, so feasible by parity, with quotient exactly
  2(d+1).  lambda* is reported as min(2(d+1), smallest searched value); the
  search descends from random starts in the metric of the numerator's
  weights (a Sobolev gradient, Neuberger 1997): in raw coefficients the
  weights lam_k^2 span about N^4 and the steps stall; in that metric a unit
  step is close to inverse iteration and a random start reaches 2(d+1) in
  about 30 steps.  The starts descend in lockstep as one stack, in blocks
  of 64, and each column stops on its own and reports why;

* the affine transfer of that value into an improved constant
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
from dataclasses import asdict, dataclass

import numpy as np

from .constants import two_sharp, two_sharp_gap, two_star
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
#: starts descended together as one stack; bounds the search's working memory
SEARCH_BLOCK = 64


# -- quotients in coefficient space ------------------------------------------


def _quadratics(c: np.ndarray, num_w: np.ndarray, den_w: np.ndarray):
    """Numerator and denominator sum(num_w c^2), sum(den_w c^2) of a ratio of
    diagonal quadratics; per column for an (n, s) stack."""
    c2 = c**2
    return num_w @ c2, den_w @ c2


def rayleigh_quotient(v: GridFn) -> float:
    """int (L v)^2 / int |v'|^2 nu; diagonal in the spectral basis."""
    den = _dirichlet(v.quad, v.coeffs)
    if den <= 0.0:
        raise ZeroDivisionError("quotient undefined for constant input")
    return float(v.quad.eigenvalues**2 @ v.coeffs**2 / den)


# -- constraint projection ----------------------------------------------------


def _moment_and_limit(quad: Quadrature, power: np.ndarray, cap):
    """(int z |v|^p, its tolerance) from the power |v|^p of the values:
    MOMENT_TOL int |v|^p, but at most ``cap``; per column for an (n, s) stack."""
    return quad.z_weights @ power, np.minimum(cap, MOMENT_TOL * (quad.weights @ power + 1e-300))


def project_moment(quad: Quadrature, coeffs: np.ndarray, p: float,
                   values: np.ndarray | None = None) -> GridFn:
    """Shift along the first eigenfunction until int z |v|^p = 0.

    Newton on v0 + r phi1 (v0 the input's nodal values: ``values`` if the
    caller holds them, else synthesized once), with a bisection fallback on
    an expanding bracket.  Each iterate v is judged against MOMENT_TOL
    times the smaller of its own int |v|^p and the input's int |v0|^p, and
    the shift is returned only if the synthesized result passes that test;
    otherwise ConvergenceError.  The search stops at half the tolerance, as
    the result's values round differently from v0 + r phi1.  Both scales
    matter: at large p a shift can shrink int |v|^p by many orders of
    magnitude, so the input's scale alone accepts a moment far from 0; on
    strongly sign-changing input the bracket can grow until |r phi1|^p,
    whose moment vanishes by parity, swamps v0, so the result's scale alone
    accepts a moment that is no root.  With ``values`` given, that synthesis
    is the only transform.
    ``coeffs`` may be an (n, s) stack of s functions as columns: Newton then
    runs on all columns at once, the columns it leaves unconverged go one by
    one through the bisection, every column is verified, and the GridFn
    returned holds (n, s) coeffs and values.
    """
    phi1 = quad.phi1_values[:, None]
    v0 = (quad.to_values(coeffs) if values is None else values).reshape(quad.n, -1)
    # a p-th power past the float range: refused below, with the moments
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(v0) ** p
        cap = MOMENT_TOL * (quad.weights @ power + 1e-300)
        if not np.isfinite(cap).all():
            raise ConvergenceError(f"int |v|^p is not finite at p = {p:g}")
        r = np.zeros(v0.shape[1])
        for i in range(40):
            vals = v0 + r * phi1
            # at r = 0 that is v0's power, in the C order of vals, so its sums round alike
            power = np.abs(vals) ** p if i else np.ascontiguousarray(power)
            val, limit = _moment_and_limit(quad, power, cap)
            todo = ~(np.abs(val) <= 0.5 * limit)
            if not np.count_nonzero(todo):
                break
            dg = p * (quad.z_weights @ (np.abs(vals) ** (p - 2.0) * vals * phi1))
            # a column stays where it is once its step is undefined
            step = todo & (dg > 0.0) & (dg < math.inf)
            if not np.count_nonzero(step):
                break
            r -= np.divide(val, dg, out=np.zeros_like(r), where=step)
        for j in todo.nonzero()[0]:
            r[j] = _bisect_moment(quad, v0[:, j], p, cap[j])
        shifted = coeffs.copy()
        shifted[1] += r.reshape(coeffs.shape[1:])
        f = GridFn(quad, quad.to_values(shifted), shifted)
        residual, limit = _moment_and_limit(quad, np.abs(f.values.reshape(quad.n, -1)) ** p, cap)
        residual = np.abs(residual)
    failed = ~(residual <= limit)
    if np.count_nonzero(failed):
        j = np.argmax(failed)
        raise ConvergenceError(f"moment projection left |int z |v|^p| = {residual[j]:.3e}"
                               f" > {limit[j]:.3e}")
    return f


def _bisect_moment(quad: Quadrature, v0: np.ndarray, p: float, cap: float) -> float:
    """A shift r whose v = v0 + r phi1 has |int z |v|^p| within half the
    tolerance of project_moment, by bisection on an expanding bracket (its
    fallback)."""

    def g(r):
        return _moment_and_limit(quad, np.abs(v0 + r * quad.phi1_values) ** p, cap)

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if g(lo)[0] < 0.0 < g(hi)[0]:
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ConvergenceError("moment projection failed to bracket a root")
    r = 0.5 * (lo + hi)
    while lo < r < hi:
        val, limit = g(r)
        if abs(val) <= 0.5 * limit:
            break
        if val < 0.0:
            lo = r
        else:
            hi = r
        r = 0.5 * (lo + hi)
    return r


def project_feasible(quad: Quadrature, coeffs: np.ndarray, p: float) -> GridFn:
    """Alternate mass normalization (c_0 = 1), nodal clipping at the
    positivity floor, and the moment shift.  Returns the projected function,
    as project_moment does.  An (n, s) stack runs the rounds per column: a
    column is clipped where its own minimum is below the floor and done once
    its values are nonnegative; any failing column raises."""
    c = coeffs.reshape(quad.n, -1).copy()
    c[0] = 1.0
    vals = quad.to_values(c)
    todo = np.arange(c.shape[1])
    for _ in range(FEASIBLE_ROUNDS):
        cj, vj = c[:, todo], vals[:, todo]
        clip = vj.min(axis=0) < CLIP_FLOOR
        if np.count_nonzero(clip):
            cj[:, clip] = quad.to_coeffs(np.maximum(vj[:, clip], CLIP_FLOOR))
            cj[0, clip] = 1.0
            vj[:, clip] = quad.to_values(cj[:, clip])
        # the shift moves c_1 only, so the mass stays exactly 1
        f = project_moment(quad, cj, p, vj)
        c[:, todo], vals[:, todo] = f.coeffs, f.values
        todo = todo[f.values.min(axis=0) < 0.0]
        if not todo.size:
            break
    return GridFn(quad, vals.reshape(coeffs.shape), c.reshape(coeffs.shape))


def _project_columns(quad: Quadrature, coeffs: np.ndarray, p: float):
    """project_feasible of an (n, s) stack as (coeffs, values, failed); where
    it raises ConvergenceError, column by column, a failed column as NaN."""
    try:
        f = project_feasible(quad, coeffs, p)
        return f.coeffs, f.values, np.zeros(coeffs.shape[1], bool)
    except ConvergenceError:
        if coeffs.shape[1] == 1:
            return *np.full((2,) + coeffs.shape, math.nan), np.ones(1, bool)
    parts = [_project_columns(quad, coeffs[:, j : j + 1], p) for j in range(coeffs.shape[1])]
    return tuple(np.concatenate(x, axis=-1) for x in zip(*parts))


# -- constrained minimization --------------------------------------------------


@dataclass(frozen=True)
class ImprovementEstimate:
    """lambda* from its closed-form upper bound and a search below it.

    upper_bound = 2(d+1) is reached by v = 1 + eps phi_2; lambda_star is
    min(upper_bound, smallest searched value), an achieved quotient and so
    an upper bound on the true infimum; lambda_bound is the improved
    constant derived from it (NaN when p is outside (2, 2#)).
    restart_values, restart_iterations and restart_reasons are the search:
    each random start's achieved quotient, descent steps and why it
    stopped: "gtol" (the gradient test was met), "line-search" (no trial
    step decreased the quotient), "positivity-clip" (the same, at an
    iterate with a nodal minimum at or below CLIP_FLOOR), "max-iter", or
    "projection-failed" (value NaN, 0 steps); each start stops on its own,
    also where the starts descend as one stack.  iterations is the sum of
    the searched steps.
    """

    d: float
    p: float
    n: int
    restarts: int
    lambda_star: float
    lambda_bound: float
    upper_bound: float
    iterations: int
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]
    restart_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        """The fields in order, n as "N" and the restart_* tuples as lists,
        then a note."""
        out = {"N" if k == "n" else k: list(v) if isinstance(v, tuple) else v
               for k, v in asdict(self).items()}
        out["note"] = (
            "proven: upper_bound = 2(d+1) is reached by v = 1 + eps phi_2, feasible "
            "as it is even; lambda_star = min(upper_bound, smallest searched value) "
            "and lambda_bound are upper-bound values; searched: restart_*, one entry "
            "per random start; whether the interval infimum equals its full-sphere "
            "analogue is open"
        )
        return out


def _descend(quad: Quadrature, coeffs: np.ndarray, p: float):
    """Projected descent on the log of the curvature quotient
    sum(lam^2 c^2) / sum(lam c^2), in the metric of the numerator: mode
    k >= 1 is scaled by P_k = num / (2 lam_k^2), mode 0 stays at 1.
    ``coeffs`` is an (n, s) stack of starts, descended in lockstep: the
    columns still descending project their first trials in one stack, and
    the 24 halvings of those whose first trial fails in one more, taking the
    first that decreases the quotient, as a trial-by-trial search does.
    Returns each column's value, steps and reason (see ImprovementEstimate);
    a column whose projection raises ConvergenceError, or whose moment
    gradient is not finite, ends alone as "projection-failed"."""
    num_w, den_w = quad.eigenvalues**2, quad.eigenvalues
    c, vals, failed = _project_columns(quad, coeffs, p)
    num, den = _quadratics(c, num_w, den_w)
    cur = np.divide(num, den, out=np.full_like(num, math.inf), where=den > 0.0)
    inv_w = np.r_[0.0, 0.5 / num_w[1:]][:, None]
    step, iters = np.ones(c.shape[1]), np.zeros(c.shape[1], int)
    # a column descends while its reason is "max-iter"
    reasons = np.where(failed, "projection-failed", "max-iter")
    for it in range(1, DESCENT_MAX_ITER + 1):
        on = (reasons == "max-iter").nonzero()[0]
        if not on.size:
            break
        iters[on] = it
        grad = (2.0 * (num_w[:, None] * c[:, on]) / num[on]
                - 2.0 * (den_w[:, None] * c[:, on]) / den[on])
        metric = num[on] * inv_w
        # P-orthogonal to the moment gradient; mode 0 is fixed by P_0 = 0
        direction = metric * grad
        with np.errstate(over="ignore", invalid="ignore"):  # a huge p: failed below
            v = vals[:, on]
            mom_grad = p * quad.to_coeffs(quad.nodes[:, None] * np.abs(v) ** (p - 2.0) * v)
            p_mom = metric * mom_grad
            mpm = np.einsum("ij,ij->j", mom_grad, p_mom)
            shift = np.einsum("ij,ij->j", mom_grad, direction)
            direction -= p_mom * np.divide(shift, mpm, out=np.zeros_like(mpm), where=mpm > 0.0)
            gnorm = np.sqrt(np.maximum(np.einsum("ij,ij->j", grad, direction), 0.0))
        reasons[on[gnorm < DESCENT_GTOL]] = "gtol"
        reasons[on[~np.isfinite(mpm)]] = "projection-failed"
        keep = reasons[on] == "max-iter"
        on, direction = on[keep], direction[:, keep]
        # the first trial of every column, then the 24 halvings of those it failed
        for first, count in ((0, 1), (1, 24)):
            if not on.size:
                break
            s = step[on] * 0.5 ** np.arange(first, first + count)[:, None]
            trials = c[:, None, on] - s * direction[:, None, :]
            tc, tv, tfail = _project_columns(quad, trials.reshape(quad.n, -1), p)
            tnum, tden = _quadratics(tc, num_w, den_w)
            tq = np.divide(tnum, tden, out=np.full_like(tnum, math.nan), where=tden > 0.0)
            better, tfail = tq.reshape(count, -1) < cur[on] - 1e-15, tfail.reshape(count, -1)
            # the first trial that decreases the quotient or raises decides
            k, cols = (better | tfail).argmax(axis=0), np.arange(on.size)
            took, lost = better[k, cols], tfail[k, cols]
            j, pick = on[took], (k * on.size + cols)[took]
            c[:, j], vals[:, j] = tc[:, pick], tv[:, pick]
            num[j], den[j], cur[j] = tnum[pick], tden[pick], tq[pick]
            step[j] = np.minimum(s[k[took], took] * 1.5, 1.0)
            reasons[on[lost]] = "projection-failed"
            on, direction = on[~(took | lost)], direction[:, ~(took | lost)]
        # no trial decreased the quotient
        clipped = vals[:, on].min(axis=0) <= CLIP_FLOOR
        reasons[on] = np.where(clipped, "positivity-clip", "line-search")
    failed = reasons == "projection-failed"
    cur[failed], iters[failed] = math.nan, 0
    return cur.tolist(), iters.tolist(), reasons.tolist()


def estimate_lambda_star(
    quad: Quadrature, p: float, restarts: int = 16, seed: int = 0
) -> ImprovementEstimate:
    """lambda* = min(2(d+1), smallest searched value) on the rule ``quad``.

    2(d+1) is the closed-form value of the feasible v = 1 + eps phi_2.  The
    search runs ``restarts`` projected descents of the curvature quotient
    from random feasible band-limited perturbations of 1, drawn one by one
    and descended as stacks of at most SEARCH_BLOCK; a start whose
    projection raises ConvergenceError ends as "projection-failed".  The
    result must exceed d by a strictly positive margin, an outcome check.
    """
    d, n = quad.d, quad.n
    if not (2.0 < p) or not (p < two_star(d)):
        raise DomainError(f"need 2 < p < 2* = {two_star(d):.6g}, got {p}")
    if n < 64:
        raise DomainError("need at least 64 modes")
    if restarts < 0:
        raise DomainError(f"need restarts >= 0, got {restarts}")
    rng = np.random.default_rng(seed)
    values, iterations, reasons = [], [], []
    for first in range(0, restarts, SEARCH_BLOCK):
        # project_feasible sets the mass coefficient c_0 to 1
        starts = [random_band_limited(quad, rng, modes=min(10, n // 4),
                                      amplitude=float(rng.uniform(0.2, 0.8))).coeffs
                  for _ in range(min(SEARCH_BLOCK, restarts - first))]
        block = _descend(quad, np.column_stack(starts), p)
        values, iterations, reasons = (a + b for a, b in zip((values, iterations, reasons), block))
    upper_bound = 2.0 * (d + 1.0)
    # fmin skips the NaN of a failed start
    lambda_star = float(np.fmin.reduce(values, initial=upper_bound))
    if not lambda_star > d:
        raise ConvergenceError(
            f"achieved quotient {lambda_star:.8g} does not exceed d = {d}; "
            "the constrained minimization lost feasibility"
        )
    lam_bound = math.nan
    if 2.0 < p < two_sharp(d):
        lam_bound = improved_constant(d, p, lambda_star)
    return ImprovementEstimate(
        d=d,
        p=p,
        n=n,
        restarts=restarts,
        lambda_star=lambda_star,
        lambda_bound=lam_bound,
        upper_bound=upper_bound,
        iterations=sum(iterations),
        restart_values=tuple(values),
        restart_iterations=tuple(iterations),
        restart_reasons=tuple(reasons),
    )


def improved_constant(d: float, p: float, lambda_star: float) -> float:
    """d + (d-1)^2/(d(d+2)) (2# - p) (lambda* - d): the improved constant for
    the moment-constrained inequality; affine and increasing in lambda*.
    (d-1)^2 (2# - p) is constants.two_sharp_gap, so at d = 1 the constant is
    its limit lambda*.  At lambda* = 2(d+1) it is the antipodal prop_raw, which
    ``improve`` reports while its search finds nothing below 2(d+1)."""
    if not (2.0 < p < two_sharp(d)):
        raise DomainError(f"need 2 < p < 2# = {two_sharp(d):.6g}, got {p}")
    if lambda_star < d:
        raise DomainError("lambda_star must be >= d")
    return d + two_sharp_gap(d, p) / (d * (d + 2.0)) * (lambda_star - d)


def verify_improved_inequality(
    quad: Quadrature,
    p: float,
    lam: float,
    samples: int = 500,
    seed: int = 1,
    even_only: bool = False,
) -> dict:
    """Empirical check of  I >= lam E_p[|f|^p], that is of
    int |f'|^2 nu >= lam/(p-2) (||f||_p^2 - ||f||_2^2), over random
    moment-projected test functions of 12 modes on the nodes of ``quad`` (64
    of them in the CLI and the checks); the slack is I - lam E_p with both
    sides from the functionals module.

    The samples are drawn one by one, in the order random_band_limited draws
    them (the amplitude, then the 12 normals), and evaluated as one
    (n, samples) column stack: the rescaling, the moment projection and
    both functionals take the stack through their vector code.

    A violated sample is reported, not raised.  With even_only the moment
    constraint holds by parity and the draw stays in the symmetric class.
    """
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
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
    with np.errstate(over="ignore", invalid="ignore"):  # |f|^p past the float range
        slacks = _dirichlet(quad, c) - lam * _entropy(quad.weights, np.abs(values) ** p, p)
    if not np.isfinite(slacks).all():
        raise ConvergenceError(f"a slack is not finite at p = {p:g}")
    return {
        "d": quad.d,
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
    value there, and the resulting entropy constant delta.  That b* is the
    crossing is proved on this arithmetic in tests/test_proofs.py.
    """
    if d < 2.0:
        raise DomainError("needs d >= 2")
    root = math.sqrt(2.0 * (d + 3.0) * (2.0 * d + 3.0))
    lambda_star_bound = d + 2.0 * (d + 2.0) / (2.0 * (d + 3.0) + root)
    # no float 2/9, which nsimplify would not return as 2/9 on symbols
    b_star = 2.0 * (2.0 * root + 5.0 * d + 9.0) / (9.0 * (d + 1.0))
    delta = d + (2.0 / d) * (4.0 * d - 1.0) / (2.0 * (d + 3.0) + root)
    c1 = b_star / 2.0 - 1.0
    return {
        "d": d,
        "Lambda_star_bound": lambda_star_bound,
        "b_star": b_star,
        "delta": delta,
        "crossing_value": (d * b_star + 2.0 * (d + 1.0) * c1) / (b_star + c1),
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

    prop_raw = (d * d + two_sharp_gap(d, p)) / d if p <= sharp else None
    if math.isfinite(ts):
        thm_raw = d * (1.0 + (d * d - 4.0) * (ts - p) / denom)
    else:
        thm_raw = math.nan  # the critical exponent is infinite at d <= 2

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
