"""The paper's numerical claims, each defined once with its tolerance.

A check yields ``(claim, passed, measured)``: the claim as ``verify`` prints
it, whether it holds, and the number it was decided on.  ``verify`` runs
``SUITES``; the acceptance criteria call the same checks with their own seed
and data count.  Library functions are reached through their modules, so
that a patched module attribute (``perfbench/tracer.py``) sees every call.
"""

import math

import numpy as np

from . import constants as cs
from . import counterexamples as cx
from . import flows as fl
from . import functionals as fn
from . import improvements as im
from .discretization import GridFn, Quadrature, derivative, integral, random_positive


def quadrature(seed=0):
    for d in (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0):
        quad = Quadrature(d, 64)
        err = abs(integral(GridFn.constant(quad, 1.0)) - 1.0)
        yield f"measure normalized (d={d})", err < 1e-13, err
        err = abs(integral(GridFn.from_values(quad, quad.nodes**2)) - 1.0 / (d + 1.0))
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
    res = cx.verify_exact_solution(4.0, 1.0, 0.5, 1.0)
    fde, heat, ident = res["max_fde_residual"], res["min_heat_residual"], res["max_identity_error"]
    yield "fast-diffusion residual <= 1e-8", fde <= 1e-8, fde
    yield "heat operator residual >= 1e-3", heat >= 1e-3, heat
    yield "hyperbolic identity", ident <= 1e-12, ident


def moment_decay(seed=0, d=4.0, p=3.0):
    quad = Quadrature(d, 64)
    u0 = GridFn.from_values(quad, 1.0 + 0.1 * quad.nodes)
    state = fl.make_state(fl.Form.POINTWISE, cs.FlowSpec.heat(cs.Params(d, p)), u0)
    dev = fl.moment_decay_check(state, 1.0)["max_dev_from_law"]
    yield "moment follows exp(-d t) to 1e-7", dev <= 1e-7, dev


def antipodal(seed=0):
    rep = im.antipodal_spectral_check(3.0, seed=seed)
    yield ("even-function quotient >= 2(d+1)",
           rep["min_ratio"] >= rep["threshold"] - 1e-9, rep["min_ratio"])
    err = abs(rep["mode2_ratio"] - rep["threshold"])
    yield "equality at the degree-2 eigenfunction", err < 1e-10, err
    err = abs(rep["odd_ratio"] - 3.0)
    yield "odd direction drops to d", err < 1e-10, err
    for d in range(2, 11):
        res = im.logsob_improvement(float(d))["crossing_residual"]
        yield f"crossing equation residual (d={d})", res <= 1e-10, res


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
}
#: the suites that read ``--d`` and ``--p``
READS_D_P = {"heat-monotone", "second-obstruction", "moment-decay"}
