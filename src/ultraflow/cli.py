"""Command-line surface: every experiment as a reproducible run.

Output goes to stdout as JSON by default; with ``--out DIR`` the artifacts
(CSV/JSON) are written there together with a ``manifest.json`` capturing the
command, parameters, tolerances, quadrature order and seed, and listing every
artifact.  Re-running the same manifest reproduces the artifacts byte for
byte.  ``verify`` prints TAP to stdout and writes no artifacts.

Exit codes: 0 success, 2 parameter error, 3 numerical failure,
4 invariant violation found by ``verify``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from . import __version__
from . import checks as ck
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


def _emit(obj: dict, args, manifest: RunManifest, artifacts: dict | None = None):
    """Print ``obj`` as JSON; with ``--out``, write instead the ``artifacts``
    (file name -> writer taking the path), then ``<cmd>.json``, then a
    ``manifest.json`` that lists them all, and print the path of
    ``<cmd>.json``."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=True)
    if not args.out:
        print(text)
        return
    os.makedirs(args.out, exist_ok=True)
    for file, write in (artifacts or {}).items():
        write(os.path.join(args.out, file))
        manifest.artifacts.append(file)
    name = f"{args.cmd}.json"
    manifest.artifacts.append(name)
    record = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    for file, content in ((name, text), ("manifest.json", record)):
        with open(os.path.join(args.out, file), "w") as fh:
            fh.write(content + "\n")
    print(os.path.join(args.out, name))


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
        with np.errstate(over="ignore"):  # a huge eps: make_state's positivity check refuses it
            return GridFn.from_coeffs(quad, coeffs)
    if kind in ("conformal", "powerlaw"):
        a, b = _fields(spec_str, rest, "ff")
        if kind == "conformal":
            exponent, e = cx.conformal_exponent(params.d), p
        else:
            beta_minus, _, exponent = cx.powerlaw(params)
            e = beta_minus * p
        g = cx.witness(quad, a, b, exponent)
        power = e if form is fl.Form.DENSITY else e / (beta * p)
        return GridFn.from_values(quad, g.values**power)
    raise DomainError(f"unknown init spec {spec_str!r}")


# -- commands -------------------------------------------------------------------


def cmd_constants(args) -> int:
    params = cs.Params(args.d, args.p)
    if args.beta is not None and math.isnan(args.beta):  # 0 and inf have limit values; NaN has none
        raise DomainError(f"beta={args.beta} is not a number")
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
    where the critical exponent is infinite, and cannot help a bad d."""
    cs.Params(d, 1.0)  # the dimension's own refusal, first
    if hi is None or not math.isfinite(hi):
        raise DomainError(f"p-max required when the critical exponent is infinite (d={d})")
    return hi


def cmd_region(args) -> int:
    if args.curves:
        dims = _dimensions(args.curves)
        if args.grid < 1:
            raise DomainError(f"--grid needs at least 1 point, got {args.grid}")
        columns = ([], [], [], [])  # d, p, beta_minus, beta_plus
        for d in dims:
            ts = cs.two_star(d)
            hi = _finite_p_max(d, ts if math.isfinite(ts) else args.p_max)
            ps = np.linspace(max(args.p_min, 1.0), hi, args.grid)
            r = cs.beta_roots(cs.Params(d, ps))
            real = ~np.isnan(r.minus)  # NaN where gamma has no roots
            for column, x in zip(columns, (np.full(args.grid, d), ps, r.minus, r.plus)):
                column.extend(x[real].tolist())
        out = {"kind": "beta_curves", "dims": dims, "rows": len(columns[0])}
        if args.out:
            out["csv"] = "beta_curves.csv"
        else:
            out["data"] = list(islice(zip(*columns), 20))

        def write_curves(path):
            """One line per row, each column formatted once (floats as repr)."""
            with open(path, "w") as fh:
                fh.write("d,p,beta_minus,beta_plus\n")
                fh.writelines(map("{},{},{},{}\n".format,
                                  *(map(float.__repr__, map(float, c)) for c in columns)))

        manifest = RunManifest("region", vars_args(args), {}, args.grid, 0)
        _emit(_json_safe(out), args, manifest, {"beta_curves.csv": write_curves})
        return 0
    p_hi = _finite_p_max(args.d, args.p_max if args.p_max is not None else cs.two_star(args.d))
    region, summary = cs.region_sweep(
        args.d, (args.p_min, p_hi), (args.beta_min, args.beta_max), args.grid
    )
    if args.out:
        summary["csv"] = "region.csv"
    manifest = RunManifest("region", vars_args(args), {"gamma_tie_tol": cs.GAMMA_TIE_TOL},
                           args.grid, 0)
    _emit(_json_safe({"kind": "region_sweep", **summary}), args, manifest,
          {"region.csv": lambda path: cs.region_rows_to_csv(region, path)})
    return 0


def vars_args(args) -> dict:
    skip = {"out", "cmd"}
    return {k: v for k, v in vars(args).items() if k not in skip}


#: the four flow names: the form, and whether the name is the heat flow
#: (beta = m = 1; a --beta or --m other than 1 is refused)
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
        if any(x is not None and x != 1.0 for x in (args.beta, args.m)):
            raise DomainError(f"--form {args.form} is the heat flow (beta = m = 1); "
                              "another --beta or --m needs --form fde or w")
        spec = cs.FlowSpec.heat(params)
    else:
        if args.beta is None and args.m is None:
            raise DomainError("nonlinear forms need --beta or --m")
        spec = (cs.FlowSpec(params, args.beta) if args.beta is not None
                else cs.FlowSpec.nonlinear_from_m(params, args.m))
    quad = Quadrature(args.d, args.n)
    f0 = parse_init(args.init, quad, params, form, spec.beta)
    state = fl.make_state(form, spec, f0)
    traj = fl.evolve(state, args.t_end, samples=args.samples, dt_max=args.dt_max,
                     tol_cons=args.tol_cons)
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
    params_record["scheme"] = "exact-diagonal" if fl.integrates_exactly(spec) else "etdrk4"
    manifest = RunManifest(
        "flow",
        params_record,
        {"tol_cons": args.tol_cons, "tol_mono": fl.TOL_MONO},
        args.n,
        args.seed,
    )
    if args.out:
        out["csv"] = "trajectory.csv"
    _emit(_json_safe(out), args, manifest, {"trajectory.csv": traj.to_csv})
    return 0


def cmd_counterexample(args) -> int:
    if not 1.0 <= args.d < math.inf:  # as Params, which only --p builds here
        raise DomainError(f"dimension must be finite and >= 1, got {args.d}")
    cx.require_base(args.a, args.b)
    out = {"d": args.d, "a": args.a, "b": args.b}
    quad = Quadrature(args.d, args.n)
    if args.d >= 3:
        out["first_obstruction"] = cx.first_obstruction(args.d, args.a, args.b, quad)
    if args.p is not None:
        out["second_obstruction"] = cx.second_obstruction(args.d, args.p, args.a, args.b, quad)
    manifest = RunManifest("counterexample", vars_args(args), {}, args.n, 0)
    _emit(_json_safe(out), args, manifest)
    return 0


def cmd_improve(args) -> int:
    quad = Quadrature(args.d, args.n)
    est = im.estimate_lambda_star(quad, args.p, restarts=args.restarts, seed=args.seed)
    out = est.to_dict()
    if not math.isnan(est.lambda_bound):
        out["verify"] = im.verify_improved_inequality(  # on 64 nodes whatever --n is
            quad if quad.n == 64 else Quadrature(args.d, 64), args.p, est.lambda_bound,
            samples=args.samples, seed=args.seed)
    manifest = RunManifest("improve", vars_args(args), {}, args.n, args.seed)
    _emit(_json_safe(out), args, manifest)
    return 0


def cmd_verify(args) -> int:
    """TAP output; each result line is followed by ``# measured <value>``."""
    if args.suite != "all" and args.suite not in ck.SUITES:
        raise DomainError(f"unknown suite {args.suite!r}; choices: {', '.join(ck.SUITES)}, all")
    names = list(ck.SUITES) if args.suite == "all" else [args.suite]
    d_p = {k: v for k, v in (("d", args.d), ("p", args.p)) if v is not None}
    if d_p and args.suite != "all" and args.suite not in ck.READS_D_P:
        raise DomainError(f"suite {args.suite!r} reads neither --d nor --p")
    results = []
    for name in names:
        kwargs = d_p if name in ck.READS_D_P else {}
        for claim, passed, measured in ck.SUITES[name](seed=args.seed, **kwargs):
            results.append((f"{name}: {claim}", bool(passed), float(measured)))
    print(f"1..{len(results)}")
    failures = 0
    for i, (desc, passed, measured) in enumerate(results, 1):
        failures += not passed
        print(f"{'ok' if passed else 'not ok'} {i} - {desc}")
        print(f"# measured {measured:.6g}")
    if failures:
        print(f"# {failures} failed out of {len(results)}")
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


@functools.cache  # once per process: main may run many commands in-process
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

    p = sub.add_parser("region", help="(p, beta) admissibility sweep / root curves")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p-min", type=float, default=1.0)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--curves", default=None, help="comma list of dimensions: emit root curves")
    common(p)

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

    p = sub.add_parser("counterexample", help="obstruction reports at explicit witnesses")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--n", type=int, default=128)
    common(p)

    p = sub.add_parser("improve", help="constrained quotient estimate and bound")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)

    p = sub.add_parser("verify", help="run invariant suites (TAP output)")
    p.add_argument("suite", help=f"one of: {', '.join(ck.SUITES)}, all")
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=_seed, default=0)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a floating-point error that no local np.errstate expects is numerical
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return globals()[f"cmd_{args.cmd}"](args)  # looked up now: a patched one runs
    except DomainError as exc:
        print(json.dumps({"error": "parameter", "message": str(exc)}), file=sys.stderr)
        return 2
    except (UltraflowError, FloatingPointError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array past the memory, such as --samples 1e15
        print(json.dumps({"error": "memory", "message": str(exc) or "out of memory"}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
