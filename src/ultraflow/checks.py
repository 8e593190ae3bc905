"""The paper's numerical claims, each defined once with its tolerance.

A check yields ``(claim, passed, measured)``: the claim as ``verify`` prints
it, whether it holds, and the number it was decided on.  ``verify`` runs
``SUITES``; the acceptance criteria call the same checks with their own seed
and data count, and assert nothing else.  Library functions are reached
through their modules, so that a patched module attribute
(``perfbench/tracer.py``) sees every call.
"""

import math

import numpy as np

from . import constants as cs
from . import counterexamples as cx
from . import flows as fl
from . import functionals as fn
from . import improvements as im
from .discretization import (GridFn, Quadrature, derivative, eigenfunction, even_moment, integral,
                             random_band_limited, random_positive)


def quadrature(seed=0):
    for d in (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0):
        quad = Quadrature(d, 64)
        err = abs(integral(GridFn.constant(quad, 1.0)) - 1.0)
        yield f"measure normalized (d={d})", err < 1e-13, err
        err = abs(integral(GridFn.from_values(quad, quad.nodes**2)) - even_moment(d, 1))
        yield f"second moment (d={d})", err < 1e-12, err


def lemma_identities(seed=0):
    """Worst relative error of the square and cross identities, on the
    Dirichlet form and the J integrals the dissipation reports use."""
    rng = np.random.default_rng(seed)
    for d in (3.0, 5.0):
        quad = Quadrature(d, 128)
        worst1 = worst2 = 0.0
        for _ in range(20):
            f = random_positive(quad, rng, modes=12, amplitude=0.6)
            lf = GridFn.from_coeffs(quad, -quad.eigenvalues * f.coeffs)
            fp = derivative(f)
            j_ff, j_fc, j_cc = fn.cdc_triple(f)
            lhs1 = float(quad.weights @ lf.values**2)
            rhs1 = j_ff + d * fn._dirichlet(quad, f.coeffs)
            worst1 = max(worst1, abs(lhs1 - rhs1) / abs(lhs1))
            lhs2 = float(quad.weights @ (fp**2 / f.values * quad.nu * lf.values))
            rhs2 = d / (d + 2.0) * j_cc - 2.0 * (d - 1.0) / (d + 2.0) * j_fc
            worst2 = max(worst2, abs(lhs2 - rhs2) / max(abs(lhs2), 1e-30))
        yield f"square identity (d={d})", worst1 < 1e-9, worst1
        yield f"cross identity (d={d})", worst2 < 1e-9, worst2


def heat_monotone(seed=0, d=5.0, p=3.0, data=10):
    """Largest deficit rise between samples and largest mass drift."""
    params = cs.Params(d, p)
    quad = Quadrature(d, 128)
    rng = np.random.default_rng(seed)
    monotone = True
    rise = drift = -math.inf
    for _ in range(data):
        rho0 = random_positive(quad, rng, modes=10, amplitude=0.6)
        state = fl.make_state(fl.Form.DENSITY, cs.FlowSpec.heat(params), rho0)
        traj = fl.evolve(state, 1.0, samples=50)
        monotone &= traj.monotone_decreasing_F()
        rise = max(rise, float(np.max(np.diff(traj.F))))
        drift = max(drift, max(abs(c - traj.conserved[0]) for c in traj.conserved))
    yield f"deficit nonincreasing (d={d}, p={p})", monotone, rise
    yield "mass conserved to 1e-13", drift < 1e-13, drift


def second_obstruction(seed=0, d=5.0, p=3.25):
    rep = cx.second_obstruction(d, p, 1.0, 0.4)
    yield "witness derivative positive", rep["positive"], rep["rhs"]
    rel = abs(rep["dFdt_analytic"] - rep["rhs"]) / abs(rep["rhs"])
    yield "closed form matches expansion (1e-8)", rel < 1e-8, rel
    rel = abs(rep["dFdt_numeric"] - rep["rhs"]) / abs(rep["rhs"])
    yield "finite difference matches (1e-4)", rel < 1e-4, rel


def exact_solution(seed=0):
    """L^2(nu) residuals of the conformal member (a + b z)^(-d), d = 4, at 9
    times in [0, 1] on 128 nodes: the largest under the critical fast
    diffusion, the smallest under the heat operator (the family is not
    heat-invariant), and the worst error in a^2 - b^2 = omega^2."""
    d, omega, t0 = 4.0, 1.0, 0.5
    quad = Quadrature(d, 128)
    fde_resids, heat_resids, ident = [], [], []
    for t in np.linspace(0.0, 1.0, 9):
        a, b = cx.conformal_coefficients(d, omega, t0, float(t))
        ident.append(abs(a * a - b * b - omega * omega))
        fde_resids.append(cx._family_residual(quad, a, b, cx.witness(quad, a, b, -(d - 1.0))))
        heat_resids.append(cx._family_residual(quad, a, b, cx.witness(quad, a, b, -d)))
    fde, heat = max(fde_resids), min(heat_resids)
    yield "fast-diffusion residual <= 1e-8", fde <= 1e-8, fde
    yield "heat operator residual >= 1e-3", heat >= 1e-3, heat
    yield "hyperbolic identity", max(ident) <= 1e-12, max(ident)


def moment_decay(seed=0, d=4.0, p=3.0):
    """Largest deviation of M(t) = int z u^p from M(0) e^(-d t) at 26 samples
    along the pointwise heat flow to t = 1.

    The flow runs exactly, through its density form (``flows._exact``), so
    the law holds to rounding (4.0e-17 at seed 3) and no step is taken.
    """
    quad = Quadrature(d, 64)
    u0 = GridFn.from_values(quad, 1.0 + 0.1 * quad.nodes)
    state = fl.make_state(fl.Form.POINTWISE, cs.FlowSpec.heat(cs.Params(d, p)), u0)
    traj = fl.evolve(state, 1.0, samples=26)
    ts, ms = np.asarray(traj.times), np.asarray(traj.moment_z)
    dev = float(np.max(np.abs(ms - traj.moment_z[0] * np.exp(-d * (ts - ts[0])))))
    yield "moment follows exp(-d t) to 1e-7", dev <= 1e-7, dev


def antipodal(seed=0):
    """On even functions the quotient int (L f)^2 / int |f'|^2 nu is at least
    2(d+1), with equality at the degree-2 eigenfunction; the odd direction z
    drops it to d.  Sampled at d = 3 over 100 random even functions of 16
    modes on 64 nodes."""
    d, n = 3.0, 64
    quad = Quadrature(d, n)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(100):
        g = random_band_limited(quad, rng, modes=16,
                                amplitude=float(rng.uniform(0.2, 1.0)), even_only=True)
        if fn._dirichlet(quad, g.coeffs) > 0.0:
            shifted = GridFn.from_coeffs(quad, g.coeffs + np.r_[1.0, np.zeros(n - 1)])
            ratios.append(im.rayleigh_quotient(shifted))
    threshold = 2.0 * (d + 1.0)
    yield "even-function quotient >= 2(d+1)", min(ratios) >= threshold - 1e-9, min(ratios)
    err = abs(im.rayleigh_quotient(eigenfunction(quad, 2)) - threshold)
    yield "equality at the degree-2 eigenfunction", err < 1e-10, err
    err = abs(im.rayleigh_quotient(eigenfunction(quad, 1)) - d)
    yield "odd direction drops to d", err < 1e-10, err


def region_figures(seed=0):
    """Fewest admissible points in a p row; wrong beta = 1 points."""
    d = 5.0
    region, _ = cs.region_sweep(d, (1.0, cs.two_star(d)), (0.0, 4.0), 201)
    admissible = region.point.admissible
    fewest = int(admissible.sum(axis=1).min())
    yield "admissible set nonempty for every p", fewest > 0, fewest
    heat = np.abs(region.beta - 1.0) < 1e-12
    wrong = int(np.count_nonzero(admissible[:, heat] != (region.p <= cs.two_sharp(d))[:, None]))
    yield "beta = 1 admissible exactly for p <= 2#", wrong == 0, wrong


#: (d, p values): the 50 points where gamma's closed-form roots are checked
GAMMA_GRID = [
    (3.0, (1.2, 2.0, 3.0, 4.5, 5.8)), (4.0, (1.2, 1.8, 2.4, 3.6, 3.9)),
    (5.0, (1.5, 2.2, 2.8, 3.1, 3.3)), (6.0, (1.3, 1.9, 2.5, 2.8, 2.95)),
    (8.0, (1.4, 1.9, 2.2, 2.5, 2.63)), (10.0, (1.2, 1.7, 2.0, 2.3, 2.45)),
    (1.0, (1.5, 2.5, 4.0, 6.0, 9.0)), (2.0, (1.5, 2.5, 4.0, 6.0, 9.0)),
    (2.5, (1.5, 2.5, 4.0, 6.0, 8.0)), (7.0, (1.3, 1.8, 2.2, 2.5, 2.7)),
]


def _window(d, k):
    """k exponents inside the obstruction window (2#, 2*), at cell midpoints."""
    lo, hi = cs.two_sharp(d), cs.two_star(d)
    return [lo + (hi - lo) * (i + 0.5) / k for i in range(k)]


def closed_forms(seed=0):
    """The largest |gamma| and |A| at their roots, the double root's error,
    the smallest A(p, beta-) and the smallest antipodal gap over its bound."""
    worst = 0.0
    for params in (cs.Params(d, p) for d, ps in GAMMA_GRID for p in ps):
        r = cs.beta_roots(params)
        for beta in (r.minus, r.plus) if math.isfinite(r.plus) else (r.minus,):
            worst = max(worst, abs(cs.gamma_of_beta(params, beta)))
    yield "gamma vanishes at beta+- (50 points, 1e-10)", worst <= 1e-10, worst
    window = [cs.Params(d, p) for d in (3.0, 4.0, 5.0, 8.0, 10.0) for p in _window(d, 10)]
    worst = max(abs(cs.counterexample_coefficient(params, beta))
                for params in window for beta in cs.counterexample_roots(params))
    yield "A vanishes at B+- (50 points, 1e-10)", worst <= 1e-10, worst
    critical = [(d, cs.beta_roots(cs.Params(d, cs.two_star(d)))) for d in map(float, range(4, 11))]
    worst = max(abs(beta - (d - 2.0) / (d - 3.0))
                for d, r in critical for beta in (r.minus, r.plus))
    yield "double root at 2* is (d-2)/(d-3) (d=4..10, 1e-13)", worst <= 1e-13, worst
    for d in (3.0, 4.0, 5.0, 8.0):
        params = cs.Params(d, np.array(_window(d, 100)))
        a = float(np.min(cs.counterexample_coefficient(params, cs.beta_roots(params).minus)))
        yield f"A(p, beta-) > 0 on the window (d={d})", a > 0.0, a
    for d in (3.0, 4.0, 5.0, 8.0):
        held, margin = True, math.inf
        for p in np.linspace(1.0, cs.two_sharp(d), 40):
            rep = im.antipodal_constants(d, float(p))
            gap = rep["thm_raw"] - rep["prop_raw"]
            held &= gap >= rep["gap_lower_bound"] - 1e-11 * max(1.0, abs(gap))
            margin = min(margin, gap - rep["gap_lower_bound"])
        yield f"antipodal gap >= its lower bound on [1, 2#] (d={d})", held, margin


def nonlinear_monotone(seed=0):
    """Largest deficit rise along the rescaled nonlinear flow above the
    heat-flow bound (d = 5, p = 3.3, the lower root), its largest moment
    drift, and the largest rise along the infinite-beta member (d = 3,
    p = 6, m = 2/3, the critical fast diffusion)."""
    params = cs.Params(5.0, 3.3)
    spec = cs.FlowSpec(params, cs.beta_roots(params).minus)
    quad = Quadrature(5.0, 128)
    rng = np.random.default_rng(seed)
    monotone = True
    rise = drift = -math.inf
    for _ in range(2):
        w0 = random_positive(quad, rng, modes=8, amplitude=0.5)
        traj = fl.evolve(fl.make_state(fl.Form.POINTWISE, spec, w0), 0.4, samples=30)
        monotone &= traj.monotone_decreasing_F()
        rise = max(rise, float(np.max(np.diff(traj.F))))
        drift = max(drift, max(abs(c - traj.conserved[0]) for c in traj.conserved))
    yield "deficit nonincreasing (d=5, p=3.3, beta-)", monotone, rise
    yield "moment conserved to 1e-9", drift <= 1e-9, drift
    spec = cs.FlowSpec.nonlinear_from_m(cs.Params(3.0, 6.0), 2.0 / 3.0)
    rho0 = random_positive(Quadrature(3.0, 128), rng, modes=8, amplitude=0.4)
    traj = fl.evolve(fl.make_state(fl.Form.DENSITY, spec, rho0), 0.4, samples=30)
    held = spec.beta_is_infinite and abs(spec.m - 2.0 / 3.0) <= 1e-15
    yield ("deficit nonincreasing at beta = inf (d=3, p=6, m=2/3)",
           held and traj.monotone_decreasing_F(), float(np.max(np.diff(traj.F))))


#: (d, p) of the search below 2(d+1), with a non-integer d and p near 2*
SEARCH_GRID = ((4.0, 3.0), (5.0, 3.0), (3.0, 4.0), (6.0, 2.5), (4.5, 3.0), (4.0, 3.9))


def improvement(seed=0):
    """lambda* at d = 4, p = 3 (64 nodes, 16 restarts), the improved
    constant it gives, and the smallest slack of that constant's inequality
    over 500 random samples drawn at ``seed + 3``; then, on SEARCH_GRID,
    (smallest of 16 searched values - 2(d+1)) / 2(d+1), where a failed
    start (NaN) fails too."""
    d, p = 4.0, 3.0
    quad = Quadrature(d, 64)
    est = im.estimate_lambda_star(quad, p, restarts=16, seed=seed)
    lam_star = est.lambda_star
    yield "lambda* in (d, 2(d+1)]", d < lam_star <= 2.0 * (d + 1.0) + 1e-6, lam_star
    lam = im.improved_constant(d, p, lam_star)
    yield "improved constant above d", lam > d, lam
    slack = im.verify_improved_inequality(quad, p, lam, samples=500, seed=seed + 3)["min_slack"]
    yield "improved inequality slack >= 0 (500 samples)", slack >= 0.0, slack
    for d, p in SEARCH_GRID:
        if (d, p) != (4.0, 3.0):
            est = im.estimate_lambda_star(Quadrature(d, 64), p, restarts=16, seed=seed)
        bound = 2.0 * (d + 1.0)
        gap = (float(np.min(est.restart_values)) - bound) / bound
        yield f"no searched start below 2(d+1) (d={d}, p={p})", gap >= -1e-12, gap


#: suite name -> check, in the order ``verify all`` runs them
SUITES = {
    "quadrature": quadrature,
    "lemma-identities": lemma_identities,
    "heat-monotone": heat_monotone,
    "second-obstruction": second_obstruction,
    "exact-solution": exact_solution,
    "moment-decay": moment_decay,
    "antipodal": antipodal,
    "region-figures": region_figures,
    "closed-forms": closed_forms,
    "nonlinear-monotone": nonlinear_monotone,
    "improvement": improvement,
}
#: the suites that read ``--d`` and ``--p``
READS_D_P = {"heat-monotone", "second-obstruction", "moment-decay"}
