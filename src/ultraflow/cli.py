"""Command-line surface: every experiment as a reproducible run.

Output goes to stdout as JSON by default; with ``--out DIR`` the artifacts
(CSV/JSON) are written there together with a ``manifest.json`` capturing the
command, parameters, tolerances, quadrature order and seed.  Re-running the
same manifest reproduces the artifacts byte for byte.

Exit codes: 0 success, 2 parameter error, 3 numerical failure,
4 invariant violation found by ``verify``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import constants as cs
from . import counterexamples as cx
from . import flows as fl
from . import improvements as im
from .discretization import GridFn, Quadrature, random_positive
from .errors import DomainError, UltraflowError

SCHEMA_VERSION = 1


@dataclass
class RunManifest:
    command: str
    params: dict
    tolerances: dict
    n: int
    seed: int
    artifacts: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    package_version: str = __version__

    def write(self, out_dir):
        import os

        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _emit(obj: dict, args, manifest: RunManifest | None = None):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=True)
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        name = f"{args.cmd}.json"
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        if manifest is not None:
            manifest.artifacts.append(name)
            manifest.write(args.out)
        print(path)
    else:
        print(text)


def _json_safe(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


# -- init-spec mini-language ---------------------------------------------------


def _fields(spec_str: str, rest: str, kinds: str) -> list:
    """The comma-separated fields of an init spec; ``kinds`` has one letter
    per field, "f" for a finite number and "i" for a whole number >= 0."""
    parts = rest.split(",") if rest else []
    if len(parts) != len(kinds):
        raise DomainError(f"init spec {spec_str!r} needs {len(kinds)} field(s), got {len(parts)}")
    out = []
    for text, kind in zip(parts, kinds):
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise DomainError(f"init spec {spec_str!r}: {text!r} is not a finite number")
        if kind == "i":
            if not (x.is_integer() and x >= 0.0):
                raise DomainError(f"init spec {spec_str!r}: {text!r} is not a whole number >= 0")
            x = int(x)
        out.append(x)
    return out


def parse_init(spec_str: str, quad, params: cs.Params, form: fl.Form, beta: float) -> GridFn:
    """const:c | conformal:a,b | powerlaw:a,b | random:seed,modes |
    perturb:eps,mode -- each materialized for the requested flow form.

    The conformal and power-law data are closed-form functions g whose
    density is g^e (e = p for the conformal u, beta_- p for the power-law
    w); a pointwise form with exponent beta gets g^(e / (beta p)).
    """
    kind, _, rest = spec_str.partition(":")
    p = params.p
    if kind == "const":
        (c,) = _fields(spec_str, rest, "f")
        if not c > 0.0:
            raise DomainError(f"init spec {spec_str!r}: need c > 0")
        return GridFn.constant(quad, c)
    if kind == "random":
        seed, modes = _fields(spec_str, rest, "ii")
        return random_positive(quad, seed, modes=modes, amplitude=0.5)
    if kind == "perturb":
        eps, mode = _fields(spec_str, rest, "fi")
        if mode >= quad.n:
            raise DomainError(f"init spec {spec_str!r}: mode {mode} outside [0, {quad.n})")
        coeffs = np.zeros(quad.n)
        coeffs[0] = 1.0
        coeffs[mode] += eps
        return GridFn.from_coeffs(quad, coeffs)
    if kind in ("conformal", "powerlaw"):
        a, b = _fields(spec_str, rest, "ff")
        _require_positive_base(a, b)
        if kind == "conformal":
            family = cx.ExplicitFamily.conformal(params, a, b)
            e = p
        else:
            family = cx.ExplicitFamily.powerlaw(params, a, b)
            e = family.beta * p
        g = cx.materialize(family, quad)
        power = e if form is fl.Form.DENSITY else e / (beta * p)
        return GridFn.from_values(quad, g.values**power)
    raise DomainError(f"unknown init spec {spec_str!r}")


def _require_positive_base(a: float, b: float):
    """The closed-form witnesses are powers of a + b z: positive on the
    interval exactly when a > |b|."""
    if not a > abs(b):
        raise DomainError(f"need a > |b| for a + b z > 0 on (-1, 1); got a={a}, b={b}")


# -- commands -------------------------------------------------------------------


def cmd_constants(args) -> int:
    params = cs.Params(args.d, args.p)
    a, b = cs.ab_coefficients(params)
    out = {
        "d": args.d,
        "p": args.p,
        "two_star": params.two_star,
        "two_sharp": params.two_sharp,
        "delta": cs.delta_of(params),
        "quad_a": a,
        "quad_b": b,
        "discriminant": cs.gamma_discriminant(params),
        "gamma1": cs.gamma_one(params),
    }
    try:
        roots = cs.beta_roots(params)
        out["beta_minus"], out["beta_plus"] = roots.minus, roots.plus
    except DomainError as exc:
        out["beta_roots_error"] = str(exc)
    if args.d >= 3:
        try:
            bm, bp = cs.counterexample_roots(params)
            out["B_minus"], out["B_plus"] = bm, bp
        except DomainError:
            out["B_minus"] = out["B_plus"] = None
    if args.beta is not None:
        pt = cs.classify_region(params, args.beta)
        out["beta"] = args.beta
        out["gamma"] = pt.gamma
        out["m"] = pt.m
        out["kappa"] = cs.kappa_from_beta(params, args.beta)
        out["A"] = pt.A
        out["admissible"] = pt.admissible
    manifest = RunManifest("constants", {"d": args.d, "p": args.p, "beta": args.beta},
                           {}, 0, 0)
    _emit(_json_safe(out), args, manifest)
    return 0


def _dimensions(text: str) -> list[float]:
    """The comma list of finite dimensions given to ``region --curves``."""
    try:
        dims = [float(x) for x in text.split(",")]
        if all(math.isfinite(d) for d in dims):
            return dims
    except ValueError:
        pass
    raise DomainError(f"--curves needs a comma list of dimensions, got {text!r}")


def _finite_p_max(d: float, hi: float | None) -> float:
    """The upper end of a p range, which must be finite: --p-max is required
    where the critical exponent is infinite."""
    if hi is None or not math.isfinite(hi):
        raise DomainError(f"p-max required when the critical exponent is infinite (d={d})")
    return hi


def cmd_region(args) -> int:
    if args.curves:
        dims = _dimensions(args.curves)
        if args.grid < 1:
            raise DomainError(f"--grid needs at least 1 point, got {args.grid}")
        rows = []
        for d in dims:
            ts = cs.two_star(d)
            hi = _finite_p_max(d, ts if math.isfinite(ts) else args.p_max)
            for p in np.linspace(max(args.p_min, 1.0), hi, args.grid):
                params = cs.Params(d, float(p))
                try:
                    r = cs.beta_roots(params)
                except DomainError:
                    continue
                rows.append((d, float(p), r.minus, r.plus))
        out = {"kind": "beta_curves", "dims": dims, "rows": len(rows)}
        if args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "beta_curves.csv")
            with open(path, "w") as fh:
                fh.write("d,p,beta_minus,beta_plus\n")
                for row in rows:
                    fh.write(",".join(repr(float(x)) for x in row) + "\n")
            out["csv"] = "beta_curves.csv"
        else:
            out["data"] = rows[:20]
        manifest = RunManifest("region", vars_args(args), {}, args.grid, 0)
        _emit(_json_safe(out), args, manifest)
        return 0
    p_hi = _finite_p_max(args.d, args.p_max if args.p_max is not None else cs.two_star(args.d))
    rows, summary = cs.region_sweep(
        args.d, (args.p_min, p_hi), (args.beta_min, args.beta_max), args.grid, args.grid
    )
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "region.csv")
        cs.region_rows_to_csv(rows, path)
        summary["csv"] = "region.csv"
    manifest = RunManifest("region", vars_args(args), {"gamma_tie_tol": cs.GAMMA_TIE_TOL},
                           args.grid, 0)
    _emit(_json_safe({"kind": "region_sweep", **summary}), args, manifest)
    return 0


def vars_args(args) -> dict:
    skip = {"func", "out", "cmd"}
    return {k: v for k, v in vars(args).items() if k not in skip}


#: the four flow names: the form, and whether the name is the heat flow
#: (beta = 1, whatever --beta or --m say)
_FORMS = {
    "heat": (fl.Form.DENSITY, True),
    "fde": (fl.Form.DENSITY, False),
    "u": (fl.Form.POINTWISE, True),
    "w": (fl.Form.POINTWISE, False),
}


def cmd_flow(args) -> int:
    params = cs.Params(args.d, args.p)
    form, heat = _FORMS[args.form]
    if heat:
        spec = cs.FlowSpec.heat(params)
    else:
        if args.beta is None and args.m is None:
            raise DomainError("nonlinear forms need --beta or --m")
        spec = (
            cs.FlowSpec.nonlinear(params, args.beta)
            if args.beta is not None
            else cs.FlowSpec.nonlinear_from_m(params, args.m)
        )
    quad = Quadrature(args.d, args.n)
    f0 = parse_init(args.init, quad, params, form, spec.beta)
    state = fl.make_state(form, spec, f0)
    traj = fl.evolve(
        state,
        args.t_end,
        samples=args.samples,
        dt_max=args.dt_max,
        tol_cons=args.tol_cons,
    )
    out = {
        "form": args.form,
        "d": args.d,
        "p": args.p,
        "beta": spec.beta,
        "m": spec.m,
        "N": args.n,
        "t_end": args.t_end,
        "F_first": traj.F[0],
        "F_last": traj.F[-1],
        "F_monotone_nonincreasing": traj.monotone_decreasing_F(),
        "conservation_drift": max(abs(c - traj.conserved[0]) for c in traj.conserved),
    }
    params_record = vars_args(args)
    params_record["scheme"] = (
        "exact-diagonal" if fl.integrates_exactly(form, spec) else "imex-ars222-sigma-frozen"
    )
    manifest = RunManifest(
        "flow",
        params_record,
        {"tol_cons": args.tol_cons, "tol_mono": fl.TOL_MONO},
        args.n,
        args.seed,
    )
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "trajectory.csv")
        traj.to_csv(path)
        manifest.artifacts.append("trajectory.csv")
        out["csv"] = "trajectory.csv"
    _emit(_json_safe(out), args, manifest)
    return 0


def cmd_counterexample(args) -> int:
    _require_positive_base(args.a, args.b)
    out = {"d": args.d, "a": args.a, "b": args.b}
    if args.d >= 3:
        out["first_obstruction"] = cx.first_obstruction(args.d, args.a, args.b, n=args.n)
        out["first_obstruction"].pop("F_curve", None)
    if args.p is not None:
        out["second_obstruction"] = cx.second_obstruction(
            args.d, args.p, args.a, args.b, n=args.n
        )
    manifest = RunManifest("counterexample", vars_args(args), {}, args.n, 0)
    _emit(_json_safe(out), args, manifest)
    return 0


def cmd_improve(args) -> int:
    est = im.estimate_lambda_star(args.d, args.p, n=args.n, restarts=args.restarts,
                                  seed=args.seed)
    out = est.to_dict()
    if not math.isnan(est.lambda_bound):
        out["verify"] = im.verify_improved_inequality(
            args.d, args.p, est.lambda_bound, samples=args.samples, seed=args.seed
        )
    manifest = RunManifest("improve", vars_args(args), {}, args.n, args.seed)
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        est.minimizer.to_csv(os.path.join(args.out, "minimizer.csv"))
        manifest.artifacts.append("minimizer.csv")
    _emit(_json_safe(out), args, manifest)
    return 0


# -- verify suites ---------------------------------------------------------------


def _suite_quadrature(args):
    from .discretization import GridFn, integral

    for d in [1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0, 10.0]:
        quad = Quadrature(d, 64)
        yield f"measure normalized (d={d})", abs(integral(GridFn.constant(quad, 1.0)) - 1.0) < 1e-13
        z2 = GridFn.from_values(quad, quad.nodes**2)
        yield f"second moment (d={d})", abs(integral(z2) - 1.0 / (d + 1.0)) < 1e-12


def _suite_lemma_identities(args):
    rng = np.random.default_rng(args.seed)
    for d in [3.0, 5.0]:
        quad = Quadrature(d, 128)
        worst1 = worst2 = 0.0
        for _ in range(20):
            f = random_positive(quad, rng, modes=12, amplitude=0.6)
            from .discretization import derivative, second_derivative

            lf = GridFn.from_coeffs(quad, -quad.eigenvalues * f.coeffs)
            fp = derivative(f)
            fpp = second_derivative(f)
            w = quad.weights
            lhs1 = float(np.sum(w * lf.values**2))
            rhs1 = float(np.sum(w * quad.nu**2 * fpp**2)) + d * float(
                np.sum(w * quad.nu * fp**2)
            )
            worst1 = max(worst1, abs(lhs1 - rhs1) / abs(lhs1))
            lhs2 = float(np.sum(w * (fp**2 / f.values) * quad.nu * lf.values))
            jcc = float(np.sum(w * quad.nu**2 * fp**4 / f.values**2))
            jfc = float(np.sum(w * quad.nu**2 * fp**2 * fpp / f.values))
            rhs2 = d / (d + 2.0) * jcc - 2.0 * (d - 1.0) / (d + 2.0) * jfc
            worst2 = max(worst2, abs(lhs2 - rhs2) / max(abs(lhs2), 1e-30))
        yield f"square identity (d={d})", worst1 < 1e-9
        yield f"cross identity (d={d})", worst2 < 1e-9


def _suite_heat_monotone(args):
    d = args.d if args.d is not None else 5.0
    p = args.p if args.p is not None else 3.0
    params = cs.Params(d, p)
    quad = Quadrature(d, 128)
    rng = np.random.default_rng(args.seed)
    ok_mono = ok_cons = True
    for _ in range(10):
        rho0 = random_positive(quad, rng, modes=10, amplitude=0.6)
        state = fl.make_state(fl.Form.DENSITY, cs.FlowSpec.heat(params), rho0)
        traj = fl.evolve(state, 1.0, samples=50, with_reports=False)
        ok_mono &= traj.monotone_decreasing_F()
        ok_cons &= max(abs(c - traj.conserved[0]) for c in traj.conserved) < 1e-13
    yield f"deficit nonincreasing (d={d}, p={p})", ok_mono
    yield "mass conserved to 1e-13", ok_cons


def _suite_second_obstruction(args):
    d = args.d if args.d is not None else 5.0
    p = args.p if args.p is not None else 3.25
    rep = cx.second_obstruction(d, p, 1.0, 0.4)
    yield "witness derivative positive", rep["positive"]
    rel_a = abs(rep["dFdt_analytic"] - rep["rhs"]) / abs(rep["rhs"])
    rel_n = abs(rep["dFdt_numeric"] - rep["rhs"]) / abs(rep["rhs"])
    yield "closed form matches expansion (1e-8)", rel_a < 1e-8
    yield "finite difference matches (1e-4)", rel_n < 1e-4


def _suite_exact_solution(args):
    res = fl.verify_exact_solution(4.0, 1.0, 0.5, 1.0, n=128)
    yield "fast-diffusion residual <= 1e-8", res["max_fde_residual"] <= 1e-8
    yield "heat operator residual >= 1e-3", res["min_heat_residual"] >= 1e-3
    yield "hyperbolic identity", res["max_identity_error"] <= 1e-12


def _suite_moment_decay(args):
    d = args.d if args.d is not None else 4.0
    p = args.p if args.p is not None else 3.0
    quad = Quadrature(d, 64)
    u0 = GridFn.from_values(quad, 1.0 + 0.1 * quad.nodes)
    state = fl.make_state(fl.Form.POINTWISE, cs.FlowSpec.heat(cs.Params(d, p)), u0)
    rep = fl.moment_decay_check(state, 1.0, dt_max=2e-4)
    yield "moment follows exp(-d t) to 1e-7", rep["max_dev_from_law"] <= 1e-7


def _suite_antipodal(args):
    rep = im.antipodal_spectral_check(3.0, 64, samples=100, seed=args.seed)
    yield "even-function quotient >= 2(d+1)", rep["min_ratio"] >= rep["threshold"] - 1e-9
    yield "equality at the degree-2 eigenfunction", abs(rep["mode2_ratio"] - rep["threshold"]) < 1e-10
    yield "odd direction drops to d", abs(rep["odd_ratio"] - 3.0) < 1e-10
    for d in range(2, 11):
        r = im.logsob_improvement(float(d))
        yield f"crossing equation residual (d={d})", r["crossing_residual"] <= 1e-10


def _suite_region_figures(args):
    d = 5.0
    ts = cs.two_star(d)
    rows, _ = cs.region_sweep(d, (1.0, ts), (0.0, 4.0), 201, 201)
    by_p: dict = {}
    for p, beta, m, gamma, adm, a_val, a_pos in rows:
        by_p.setdefault(p, []).append((beta, adm, m))
    all_nonempty = all(any(r[1] for r in col) for col in by_p.values())
    yield "admissible set nonempty for every p", all_nonempty
    sharp = cs.two_sharp(d)
    ok_beta1 = True
    for p, col in by_p.items():
        for beta, adm, m in col:
            if abs(beta - 1.0) < 1e-12:
                ok_beta1 &= bool(adm) == (p <= sharp)
    yield "beta = 1 admissible exactly for p <= 2#", ok_beta1


_SUITES = {
    "quadrature": _suite_quadrature,
    "lemma-identities": _suite_lemma_identities,
    "heat-monotone": _suite_heat_monotone,
    "second-obstruction": _suite_second_obstruction,
    "exact-solution": _suite_exact_solution,
    "moment-decay": _suite_moment_decay,
    "antipodal": _suite_antipodal,
    "region-figures": _suite_region_figures,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in _SUITES:
            raise DomainError(f"unknown suite {name!r}; choices: {', '.join(_SUITES)}, all")
    checks = []
    for name in names:
        for desc, passed in _SUITES[name](args):
            checks.append((f"{name}: {desc}", bool(passed)))
    print(f"1..{len(checks)}")
    failures = 0
    for i, (desc, passed) in enumerate(checks, 1):
        tag = "ok" if passed else "not ok"
        failures += not passed
        print(f"{tag} {i} - {desc}")
    if failures:
        print(f"# {failures} failed out of {len(checks)}")
        return 4
    return 0


# -- entry point ------------------------------------------------------------------


def _seed(text: str) -> int:
    """The argparse type of every --seed: a whole number >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ultraflow",
        description="Interval flows, dissipation identities and constrained "
        "spectral constants.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="directory for artifacts + manifest")

    p = sub.add_parser("constants", help="closed-form exponents, roots, coefficients")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("region", help="(p, beta) admissibility sweep / root curves")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p-min", type=float, default=1.0)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--curves", default=None, help="comma list of dimensions: emit root curves")
    common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("flow", help="time-integrate one of the four flow forms")
    p.add_argument("--form", choices=sorted(_FORMS), required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--init", required=True,
                   help="const:c | conformal:a,b | powerlaw:a,b | random:seed,modes | perturb:eps,mode")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--dt-max", type=float, default=math.inf)
    p.add_argument("--tol-cons", type=float, default=fl.TOL_CONS)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("counterexample", help="obstruction reports at explicit witnesses")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--n", type=int, default=128)
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("improve", help="constrained quotient estimate and bound")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("verify", help="run invariant suites (TAP output)")
    p.add_argument("suite", help=f"one of: {', '.join(_SUITES)}, all")
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(json.dumps({"error": "parameter", "message": str(exc)}), file=sys.stderr)
        return 2
    except UltraflowError as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
