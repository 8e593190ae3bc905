import ast
import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from ultraflow import flows as fl
from ultraflow.checks import SUITES
from ultraflow.cli import main
from ultraflow.constants import FlowSpec, Params, classify_region
from ultraflow.discretization import Quadrature, random_positive

from conftest import cached_quadrature, mp_entropy

RUN = [sys.executable, "-m", "ultraflow.cli"]
# the exponent each flow name accepts: heat and u are beta = 1 and take none
BETA_ARGS = {"heat": [], "u": [], "fde": ["--beta", "1.2"], "w": ["--beta", "1.2"]}
#: finite floats from below the domain's edge at 1: moderate ones, and any up
#: to the largest double
D_OR_P = st.floats(0.5, 8.0) | st.floats(0.5, sys.float_info.max)
#: moderate finite floats of either sign, and any finite double
FINITE = st.floats(-1.0, 8.0) | st.floats(allow_nan=False, allow_infinity=False)


def run_cli(*args):
    """The command in a fresh interpreter: for what only a separate process
    shows (the real exit path, determinism across processes)."""
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_warnings_as_errors(*args):
    """As ``run_cli``, with every warning turned into an error."""
    proc = subprocess.run([sys.executable, "-W", "error", *RUN[1:], *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """The command in-process through ``main``."""
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_exits_cleanly(argv, artifact=None):
    """In-process, where warnings are errors: exit 0, 2 or 3, stderr empty or
    one JSON error line, and every number of an exit-0 output finite: of
    stdout, or of the JSON file ``artifact`` that the command writes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and "error" in json.loads(lines[0]))
    if rc == 0:
        numbers = []
        text = out.getvalue() if artifact is None else Path(artifact).read_text()
        json.loads(text, parse_float=lambda x: numbers.append(float(x)),
                   parse_int=lambda x: numbers.append(float(x)),
                   parse_constant=lambda x: numbers.append(float(x)))
        assert all(map(math.isfinite, numbers))


class TestConstantsCommand:
    def test_gamma1_vanishes_at_sharp(self, capsys):
        rc, out, _ = run_main(capsys, "constants", "--d", "5", "--p", "3.1875")
        assert rc == 0
        assert abs(json.loads(out)["gamma1"]) < 1e-14

    def test_near_critical_root(self, capsys):
        rc, out, _ = run_main(capsys, "constants", "--d", "5", "--p", "3.3333", "--beta", "1.5")
        assert rc == 0
        assert abs(json.loads(out)["gamma"]) < 1e-3

    def test_infinite_sentinel(self, capsys):
        rc, out, _ = run_main(capsys, "constants", "--d", "2", "--p", "7")
        assert rc == 0
        assert json.loads(out)["two_star"] == "inf"

    @pytest.mark.parametrize("d, p", [("nan", "3"), ("3", "nan"), ("inf", "3"), ("2", "inf")])
    def test_malformed_constants_is_parameter_error(self, d, p, capsys):
        rc, _, err = run_main(capsys, "constants", "--d", d, "--p", p)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @pytest.mark.parametrize("d, p, name", [("1e300", "1.5", "d"), ("1", "1e300", "p"),
                                            ("1e100", "1.5", "d")])
    @pytest.mark.parametrize("beta", [[], ["--beta", "1e300"]])
    def test_overflowing_closed_forms_are_parameter_errors(self, d, p, name, beta, capsys):
        # the closed forms square d and p: past 1e75 they would overflow
        rc, out, err = run_main(capsys, "constants", "--d", d, "--p", p, *beta)
        assert (rc, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"{name}=")

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(st.tuples(D_OR_P, D_OR_P,
                     st.none() | st.floats(allow_nan=False, allow_infinity=False)))
    @example((1e300, 1.5, None))
    @example((1.0, 1e300, 1e300))
    @example((1e6, 1.0 + 1e-7, -1e300))
    def test_any_finite_input_exits_cleanly(self, dpb):
        # in-process, warnings are errors: no traceback and no warning for any
        # finite d, p and beta, only a result or a typed refusal
        d, p, beta = dpb
        argv = ["constants", f"--d={d!r}", f"--p={p!r}"]
        if beta is not None:
            argv.append(f"--beta={beta!r}")
        assert_exits_cleanly(argv)

    def test_nan_beta_is_parameter_error(self, capsys):
        # as for flow: a NaN beta selects no member of the family
        rc, out, err = run_main(capsys, "constants", "--d", "3", "--p", "3", "--beta", "nan")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": "parameter", "message": "beta=nan is not a number"}

    def test_parameter_error_exit_code(self):
        rc, _, err = run_cli("constants", "--d", "0.5", "--p", "3")
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"


class TestRegionCommand:
    def test_sweep_csv_and_manifest(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        rc, _, _ = run_main(capsys, "region", "--d", "5", "--grid", "31", "--out", out_dir)
        assert rc == 0
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert lines[0] == "p,beta,m,gamma,admissible,A,A_positive"
        assert len(lines) == 1 + 31 * 31
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["artifacts"] == ["region.csv", "region.json"]

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            rc, _, _ = run_cli("region", "--d", "4", "--grid", "21", "--out", str(out_dir))
            assert rc == 0
        assert (a / "region.csv").read_bytes() == (b / "region.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_sweep_csv_bytes_pinned(self, tmp_path, capsys):
        # sha256 of the region.csv this command wrote when the sweep made one
        # scalar classify_region call per grid point
        rc, _, _ = run_main(capsys, "region", "--d", "5", "--grid", "201", "--out", str(tmp_path))
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "region.csv").read_bytes()).hexdigest()
        assert digest == "c3f6e657512bb36ab10cba861623efb76d08980f222acd26e7d8032604e8b94f"

    @pytest.mark.parametrize(
        "args",
        [["--grid", "0"], ["--grid", "-3"], ["--curves", "2,3"], ["--curves", "abc"],
         ["--curves", "3,4", "--grid", "0"], ["--p-min", "nan"], ["--beta-max", "inf"],
         ["--curves", "3,4", "--p-min", "nan"]],
    )
    def test_malformed_region_is_parameter_error(self, args, capsys):
        rc, _, err = run_main(capsys, "region", "--d", "3", *args)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @pytest.mark.parametrize("args", [["--d", "nan"], ["--d", "inf"], ["--d", "0.5"],
                                      ["--d", "3", "--curves", "0.5"]])
    @pytest.mark.parametrize("p_max", [[], ["--p-max", "3"]])
    def test_bad_dimension_is_named_before_p_max(self, args, p_max, capsys):
        # no --p-max can help a bad dimension: with or without one, the
        # refusal names the dimension
        rc, _, err = run_main(capsys, "region", *args, *p_max)
        assert rc == 2
        assert json.loads(err)["message"].startswith("dimension must be finite and >= 1")

    @pytest.mark.parametrize("flag", ["--beta-max=1e300", "--beta-min=-1e300",
                                      "--beta-min=1.7e308", "--beta-min=5e-324"])
    def test_extreme_beta_range_matches_scalar_calls(self, flag, tmp_path, capsys):
        # beta^2 or 1/beta overflows: the sweep reaches the limits that the
        # scalar calls reach in Python floats, cell for cell, and warns of
        # nothing (warnings are errors here)
        rc, _, err = run_main(capsys, "region", "--d", "5", "--grid", "3", flag,
                              "--out", str(tmp_path))
        assert (rc, err) == (0, "")
        lines = (tmp_path / "region.csv").read_text().splitlines()[1:]
        assert len(lines) == 9
        for line in lines:
            p, beta = map(float, line.split(",")[:2])
            pt = classify_region(Params(5.0, p), beta)
            assert line == (f"{p!r},{beta!r},{pt.m!r},{pt.gamma!r},{int(pt.admissible)},"
                            f"{pt.A!r},{int(pt.A_positive)}")

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(st.tuples(st.floats(1.0, 8.0) | FINITE, st.floats(1.0, 3.0) | FINITE,
                     st.none() | st.floats(1.0, 3.0) | FINITE, FINITE, FINITE,
                     st.integers(-1, 5), st.none() | st.lists(FINITE, min_size=1, max_size=3)))
    @example((5.0, 1.0, None, 0.0, 4.0, 5, None))
    @example((5.0, 1.0, None, 0.0, 4.0, 5, [3.0, 1e300]))
    def test_any_finite_input_exits_cleanly(self, args):
        # a sweep or root curves from any finite range: a result whose
        # region.json holds only finite numbers, or a typed refusal.  The
        # moderate draws of d, p-min and p-max put the sweep in its domain
        # often enough to reach exit 0
        d, p_min, p_max, beta_min, beta_max, grid, curves = args
        with tempfile.TemporaryDirectory() as out:
            argv = ["region", f"--d={d!r}", f"--p-min={p_min!r}", f"--beta-min={beta_min!r}",
                    f"--beta-max={beta_max!r}", f"--grid={grid}", f"--out={out}"]
            if p_max is not None:
                argv.append(f"--p-max={p_max!r}")
            if curves is not None:
                argv.append("--curves=" + ",".join(map(repr, curves)))
            assert_exits_cleanly(argv, artifact=Path(out, "region.json"))

    def test_beta_curves(self, tmp_path, capsys):
        rc, _, _ = run_main(capsys, "region", "--d", "3", "--curves", "3,4,5,6,7,8,9,10",
                            "--grid", "24", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "beta_curves.csv").read_text().splitlines()
        assert lines[0] == "d,p,beta_minus,beta_plus"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == ["beta_curves.csv", "region.json"]
        from ultraflow.constants import Params, beta_roots, two_sharp

        # above p = 2 the lower-root curves are ordered upward in d, and each
        # crosses beta = 1 exactly at that dimension's threshold exponent
        vals = [beta_roots(Params(float(d), 2.2)).minus for d in range(4, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for d in range(3, 11):
            crossing = beta_roots(Params(float(d), two_sharp(float(d)))).minus
            assert abs(crossing - 1.0) < 1e-10


    def test_curves_csv_bytes_are_the_per_cell_repr(self, tmp_path, capsys, monkeypatch):
        # each column formatted once gives the bytes of repr(float(x)) per
        # cell: roots with -0.0, infinities and NaN, where a NaN lower root
        # drops its row
        from ultraflow import constants as cs

        def roots(params):
            k = np.arange(params.p.size)
            special = np.array([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1 / 3])
            return cs.BetaRoots(special[k % 6], special[(k + 3) % 6], delta=0.0)

        monkeypatch.setattr(cs, "beta_roots", roots)
        rc, _, _ = run_main(capsys, "region", "--d", "5", "--curves", "4,5", "--grid", "12",
                            "--out", str(tmp_path))
        assert rc == 0
        rows = []
        for d in (4.0, 5.0):
            ps = np.linspace(1.0, cs.two_star(d), 12)
            r = roots(cs.Params(d, ps))
            rows += [(d, p, lo, hi) for p, lo, hi in zip(ps, r.minus, r.plus) if not math.isnan(lo)]
        expected = "d,p,beta_minus,beta_plus\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in rows)
        assert len(rows) == 20
        assert (tmp_path / "beta_curves.csv").read_text() == expected


class TestFlowCommand:
    def test_heat_flow_run(self, tmp_path, capsys):
        rc, _, _ = run_main(
            capsys,
            "flow", "--form", "heat", "--d", "5", "--p", "3", "--init", "random:3,8",
            "--t-end", "0.4", "--samples", "20", "--n", "96", "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads((tmp_path / "flow.json").read_text())
        assert report["F_monotone_nonincreasing"] is True
        assert report["conservation_drift"] < 1e-13
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,F,E_p,I_p,conserved,moment_z"
        assert len(lines) == 21

    def test_w_flow_with_beta(self, tmp_path, capsys):
        rc, _, _ = run_main(
            capsys,
            "flow", "--form", "w", "--d", "5", "--p", "3.3", "--beta", "1.212671265218024",
            "--init", "perturb:0.2,2", "--t-end", "0.05", "--samples", "6", "--n", "64",
            "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads((tmp_path / "flow.json").read_text())
        assert report["F_monotone_nonincreasing"] is True

    def test_missing_beta_is_parameter_error(self, capsys):
        rc, _, _ = run_main(capsys, "flow", "--form", "fde", "--d", "5", "--p", "3.3",
                            "--init", "const:1", "--t-end", "0.1")
        assert rc == 2

    def test_conformal_init_heat(self, tmp_path, capsys):
        rc, _, _ = run_main(
            capsys,
            "flow", "--form", "heat", "--d", "4", "--p", "4", "--init", "conformal:1,0.3",
            "--t-end", "0.2", "--samples", "10", "--n", "96", "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads((tmp_path / "flow.json").read_text())
        # deficit starts at the minimum and rises: not monotone
        assert report["F_monotone_nonincreasing"] is False

    @pytest.mark.parametrize(
        "init",
        ["const:1,2", "const:", "const:nan", "random:x,3", "random:1", "perturb:0.1,500",
         "perturb:0.1,-1", "perturb:0.1,2.5", "conformal:1",
         # closed-form data outside their range: c > 0 and a > |b|
         "const:0", "const:-1", "conformal:1,2", "powerlaw:1,1.5"],
    )
    def test_malformed_init_is_parameter_error(self, init, capsys):
        rc = main(["flow", "--form", "heat", "--d", "5", "--p", "3", "--init", init,
                   "--t-end", "0.1", "--n", "32"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parameter"

    @pytest.mark.parametrize("form", ["w", "heat"])
    @pytest.mark.parametrize(
        "args",
        [["--t-end", "inf"], ["--t-end", "nan"], ["--tol-cons", "nan"], ["--tol-cons", "0"],
         ["--tol-cons", "inf"]],
    )
    def test_malformed_flow_number_is_parameter_error(self, form, args, capsys):
        # a flow that cannot end, or a drift budget that no comparison enforces
        argv = ["flow", "--form", form, "--d", "5", "--p", "3.3", *BETA_ARGS[form],
                "--init", "random:1,4", "--t-end", "0.1", "--n", "32"]
        rc, _, err = run_main(capsys, *argv, *args)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @pytest.mark.parametrize("form", ["heat", "u"])
    @pytest.mark.parametrize(
        "args", [["--beta", "1.2"], ["--m", "0.9"], ["--beta", "nan"], ["--beta", "1", "--m", "2"]]
    )
    def test_heat_name_with_other_beta_is_parameter_error(self, form, args, capsys):
        # heat and u are the beta = m = 1 flow: another exponent is not ignored
        rc, _, err = run_main(capsys, "flow", "--form", form, "--d", "5", "--p", "3", *args,
                              "--init", "random:1,4", "--t-end", "0.01", "--n", "32")
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    def test_fde_at_beta_one_is_the_exact_heat_flow(self, tmp_path, capsys):
        # fde at beta 1 is heat, and w at beta 1 or m 1 is u, to the last bit
        runs = {}
        for name, args in {"heat": ["heat"], "fde": ["fde", "--beta", "1"], "u": ["u"],
                           "w-beta": ["w", "--beta", "1"], "w-m": ["w", "--m", "1"]}.items():
            out = tmp_path / name
            rc = main(["flow", "--form", *args, "--d", "5", "--p", "3", "--init", "random:1,8",
                       "--t-end", "0.1", "--out", str(out)])
            assert rc == 0
            flow, manifest = (json.loads((out / f).read_text())
                              for f in ("flow.json", "manifest.json"))
            assert manifest["params"]["scheme"] == "exact-diagonal", name
            runs[name] = (flow["F_first"], flow["F_last"], (out / "trajectory.csv").read_bytes())
        capsys.readouterr()
        assert runs["fde"][:2] == runs["heat"][:2]
        assert runs["w-beta"] == runs["u"] and runs["w-m"] == runs["u"]

    @pytest.mark.parametrize("args", [["heat"], ["u"], ["fde", "--beta", "1"], ["w", "--beta", "1"]],
                             ids=["heat", "u", "fde-beta-1", "w-beta-1"])
    def test_heat_flow_takes_no_step(self, args, capsys, monkeypatch):
        # every name of the beta = 1 flow runs it exactly: no ETDRK4 step
        def refused(*args):
            raise AssertionError("the heat flow took a step")

        monkeypatch.setattr(fl, "_imex_step", refused)
        rc, _, err = run_main(capsys, "flow", "--form", *args, "--d", "5", "--p", "3.3",
                              "--init", "random:1,8", "--t-end", "0.1", "--n", "64")
        assert (rc, err) == (0, "")

    @pytest.mark.parametrize("form", ["heat", "u"])
    def test_huge_horizon_is_the_mean(self, form, capsys):
        # lam t overflows to inf in every mode but the first, e^(-inf) = 0:
        # exit 0 with nothing on stderr, also with warnings as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(capsys, "flow", "--form", form, "--d", "5", "--p", "3",
                                    "--init", "const:1", "--t-end", "1e308", "--n", "16")
        assert (rc, err) == (0, "")
        assert abs(json.loads(out)["F_last"]) <= 1e-15

    @pytest.mark.parametrize("form", ["w", "fde", "heat"])
    @pytest.mark.parametrize("dt_max", ["0", "-1", "1e-300"])
    def test_nonpositive_dt_max_is_parameter_error(self, form, dt_max, capsys):
        # a zero step never advances the clock, a negative one underflows,
        # and a cap below flows.DT_MIN, where the controller gives up, is
        # refused up front: steps of 1e-300 pass the local-error test, and
        # the clock never gets anywhere
        rc, _, err = run_main(capsys, "flow", "--form", form, "--d", "5", "--p", "3.3",
                              *BETA_ARGS[form], "--init", "const:1", "--t-end", "0.1",
                              "--n", "32", "--dt-max", dt_max)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    def test_cap_asking_too_many_steps_is_refused_at_once(self, capsys):
        # just above flows.DT_MIN, this cap asks for 5e11 steps to t_end = 1:
        # evolve refuses it before the first one instead of running on
        start = time.perf_counter()
        rc, _, err = run_main(capsys, "flow", "--form", "fde", "--d", "5", "--p", "3.3",
                              "--beta", "1.2126712652", "--init", "perturb:0.3,2", "--t-end", "1",
                              "--dt-max", "2e-12", "--n", "32")
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        assert json.loads(err)["message"].startswith("dt_max = 2.000e-12 asks for more than")

    def test_near_critical_m_is_infinite_beta(self, capsys):
        # the README fde example: m = 2/3 to ten digits runs as the critical
        # (infinite-beta) member, whose reports carry no dissipation
        rc, out, _ = run_main(capsys, "flow", "--form", "fde", "--d", "3", "--p", "6",
                              "--m", "0.6666666667", "--init", "random:2,6", "--t-end", "0.4")
        assert rc == 0
        report = json.loads(out)
        assert report["beta"] == "inf"
        assert report["F_monotone_nonincreasing"] is True
        assert report["conservation_drift"] <= 1e-9

    def test_near_critical_m_has_no_pointwise_form(self, capsys):
        rc, _, err = run_main(capsys, "flow", "--form", "w", "--d", "3", "--p", "6",
                              "--m", "0.6666666667", "--init", "random:2,6", "--t-end", "0.4")
        assert rc == 2
        assert "infinite beta" in json.loads(err)["message"]

    def test_unresolved_flow_fails_without_warnings(self, capsys):
        # the resolution check ends this run with exit 3; a sample evaluates
        # only E_p and I_p, so no overflowing dissipation sum warns first
        # (warnings are errors here)
        rc, _, err = run_main(capsys, "flow", "--form", "fde", "--d", "5", "--p", "3.3",
                              "--beta", "1e-3", "--init", "perturb:0.3,2", "--t-end", "0.05",
                              "--n", "32")
        assert rc == 3
        assert json.loads(err)["error"] == "numerical"

    def test_out_of_memory_is_one_json_error_line(self, capsys):
        # 1e15 sample times ask np.linspace for 7.11 PiB, which fails at once
        rc, out, err = run_main(capsys, "flow", "--form", "heat", "--d", "5", "--p", "3",
                                "--init", "random:1,4", "--t-end", "0.1", "--n", "16",
                                "--samples", "1000000000000000")
        assert (rc, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "memory"

    def test_unresolved_step_ends_the_run(self, capsys, monkeypatch):
        # at N = 16 this w flow outruns the rule in its first step; the
        # step loop checks each accepted step, so the run exits 3 at once
        # instead of shrinking dt toward DT_MIN over 10^5 attempts and more
        # (the cap turns that hang into a failure here)
        attempts = 0
        imex_step = fl._imex_step

        def capped(*args):
            nonlocal attempts
            attempts += 1
            assert attempts <= 1000, "the step loop ran on past an unresolved step"
            return imex_step(*args)

        monkeypatch.setattr(fl, "_imex_step", capped)
        start = time.perf_counter()
        rc, _, err = run_main(capsys, "flow", "--form", "w", "--beta", "3", "--d", "5",
                              "--p", "3.3", "--init", "perturb:0.1,2", "--n", "16",
                              "--t-end", "0.01", "--samples", "2")
        assert attempts >= 1
        assert time.perf_counter() - start < 2.0
        assert rc == 3
        assert json.loads(err)["message"].startswith("top modes carry")

    @pytest.mark.parametrize("args", [
        ["--form", "w", "--beta", "300", "--init", "perturb:0.3,2"],
        ["--form", "w", "--beta", "1e4", "--init", "perturb:0.3,2"],
        ["--form", "w", "--beta", "1e300", "--init", "perturb:0.3,2"],
        ["--form", "w", "--beta", "1.2", "--init", "const:1e300"],
        ["--form", "u", "--init", "const:1e300"],
    ], ids=["w-beta-300", "w-beta-1e4", "w-beta-1e300", "w-const-1e300", "u-const-1e300"])
    def test_overflowing_conserved_quantity_is_numerical_error(self, args, capsys):
        # w^(beta p) overflows at the datum: exit 3 with the JSON error alone,
        # no overflow warning (warnings are errors here)
        rc, _, err = run_main(capsys, "flow", "--d", "5", "--p", "3.3", "--n", "16",
                              "--t-end", "0.01", *args)
        assert rc == 3
        assert "conserved quantity is inf" in json.loads(err)["message"]

    @pytest.mark.parametrize("args", [["--form", "fde", "--m", "5"],
                                      ["--form", "fde", "--beta", "1e-3"],
                                      ["--form", "w", "--beta", "1e-3"]],
                             ids=["fde-m-5", "fde-beta-1e-3", "w-beta-1e-3"])
    def test_overflowing_power_in_the_step_is_numerical_error(self, args, capsys):
        # the conserved quantity is finite, but the right-hand side's power
        # (rho^m, or the mobility w^(2-2 beta)) overflows at this datum: the
        # first step ends the run with exit 3 and the JSON error alone, at
        # that step's start t = 0, no overflow warning and no halving toward
        # the step-size floor
        rc, out, err = run_main(capsys, "flow", "--d", "5", "--p", "3.3", "--init", "const:1e300",
                                "--t-end", "0.01", "--n", "16", *args)
        assert (rc, out) == (3, "")
        assert json.loads(err)["message"].endswith("a power of the state overflows (t=0)")

    def test_overflowing_perturbation_is_refused_as_nonpositive(self, capsys):
        # the synthesis of 1 + eps phi_2 overflows to -inf at some nodes;
        # the datum's positivity check refuses it, with no matmul warning
        rc, out, err = run_main(capsys, "flow", "--form", "heat", "--d", "5", "--p", "3",
                                "--init", "perturb:1.7e308,2", "--t-end", "0.01", "--n", "16")
        assert (rc, out) == (3, "")
        assert json.loads(err)["message"].startswith("initial datum has min nodal value")

    def test_padded_rule_failure_prints_only_the_error(self):
        # the padded 512-point rule does not exist at d = 3000: exit 3 with
        # the JSON error as the only stderr output, no RuntimeWarning
        rc, _, err = run_cli("flow", "--form", "w", "--beta", "1.5", "--d", "3000",
                             "--p", "2.0005", "--init", "perturb:0.1,2", "--n", "256",
                             "--t-end", "0.01")
        assert rc == 3
        assert json.loads(err)["message"].startswith("Gauss rule for d=3000.0, n=512")

    def test_final_deficit_against_mpmath_entropy(self, tmp_path, capsys):
        # at t = 1 the heat flow is within 1e-7 of a constant and F is about
        # 5e-15, the small difference of I/d and E_p: an entropy whose error
        # grows as the data flattens moves F by whole percents
        rc, _, _ = run_main(capsys, "flow", "--form", "heat", "--d", "5", "--p", "3",
                            "--init", "random:7,8", "--t-end", "1", "--n", "512", "--seed", "7",
                            "--out", str(tmp_path))
        assert rc == 0
        f_last = json.loads((tmp_path / "flow.json").read_text())["F_last"]
        i_last = float((tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")[3])
        quad = cached_quadrature(5.0, 512)
        state = fl.make_state(fl.Form.DENSITY, FlowSpec.heat(Params(5.0, 3.0)),
                              random_positive(quad, 7, modes=8, amplitude=0.5))
        rho = fl.evolve(state, 1.0).final_state.f.values
        assert f_last == pytest.approx(i_last / 5.0 - mp_entropy(quad.weights, rho, 3.0),
                                       rel=1e-6, abs=0)

    def test_huge_dimension_rule_failure_prints_only_the_error(self):
        # at d = 1e300 the recurrence overflows and b_k underflows to 0: the
        # rule's ConvergenceError is the only signal, with no RuntimeWarning
        rc, _, err = run_cli("flow", "--form", "heat", "--d", "1e300", "--p", "1.5",
                             "--init", "const:1", "--t-end", "0.01", "--n", "8")
        assert rc == 3
        assert json.loads(err)["message"].startswith("Gauss rule for d=1e+300, n=8")

    @pytest.mark.parametrize("init", ["powerlaw:1,0.4", "conformal:1,0.3"])
    def test_initial_deficit_agrees_across_forms(self, init, capsys):
        # every form materializes the same density from a closed-form datum,
        # also when the flow's beta differs from the power law's beta_-
        first = {}
        for form in ("heat", "fde", "u", "w"):
            beta = ["--beta", "1.5"] if form in ("fde", "w") else []
            rc = main(["flow", "--form", form, "--d", "5", "--p", "3.25", *beta,
                       "--init", init, "--t-end", "1e-5", "--samples", "2", "--n", "64"])
            assert rc == 0
            first[form] = json.loads(capsys.readouterr().out)["F_first"]
        for form, value in first.items():
            assert value == pytest.approx(first["heat"], rel=1e-12), form

    def test_last_sample_time_at_the_float_limit(self):
        # the evenly spaced times overflow only in their last element, which
        # is t_end itself: no overflow warning, also with warnings as errors
        rc, _, err = run_cli_warnings_as_errors(
            "flow", "--form", "heat", "--d", "1", "--p", "3.3", "--init", "perturb:0.3,2",
            "--t-end", "1.7976931348623157e308", "--n", "32", "--samples", "15")
        assert (rc, err) == (0, "")

    @pytest.mark.parametrize("exponent", [["--m", "-0.32"], ["--beta", "-0.04"]])
    def test_backward_density_form_is_parameter_error(self, exponent, capsys):
        # at m < 0 d rho/dt = L rho^m runs backward; the pointwise form runs
        # the same member forward on its own clock (d = 1: m = -0.32 is
        # admissible)
        argv = ["flow", "--d", "1", "--p", "39.3", *exponent, "--init", "perturb:0.1,2",
                "--t-end", "0.01", "--n", "64"]
        rc, _, err = run_main(capsys, *argv, "--form", "fde")
        assert rc == 2
        assert "runs backward" in json.loads(err)["message"]
        rc, out, err = run_main(capsys, *argv, "--form", "w")
        assert (rc, err) == (0, "")
        assert json.loads(out)["m"] < 0.0

    def test_density_form_stands_still_at_m_zero(self, capsys):
        # d rho/dt = L rho^0 = 0, while w moves on its clock s
        argv = ["flow", "--d", "2", "--p", "3", "--beta", "-2", "--init", "perturb:0.1,2",
                "--t-end", "0.01", "--n", "64"]
        rc, out, _ = run_main(capsys, *argv, "--form", "fde")
        assert rc == 0
        report = json.loads(out)
        assert report["m"] == 0.0 and report["F_last"] == report["F_first"]
        rc, out, _ = run_main(capsys, *argv, "--form", "w")
        assert rc == 0
        report = json.loads(out)
        assert report["F_last"] < report["F_first"]

    #: (d, p) below the critical exponent 2d/(d-2) mostly, where flows run
    MODERATE_D, MODERATE_P = st.floats(1.0, 5.0), st.floats(1.0, 3.3)
    #: --beta or --m, the critical m = 1 - 2/p (infinite beta) or m = 0
    EXPONENT = (st.sampled_from(["critical", "zero"])
                | st.tuples(st.sampled_from(["--beta", "--m"]), st.floats(-2.0, 3.0) | FINITE))
    #: the heat flow's names without an exponent, the others with one, and
    #: any name with or without one
    FORM_EXPONENT = (st.tuples(st.sampled_from(["heat", "u"]), st.none())
                     | st.tuples(st.sampled_from(["fde", "w"]), EXPONENT)
                     | st.tuples(st.sampled_from(sorted(BETA_ARGS)), st.none() | EXPONENT))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(st.tuples(FORM_EXPONENT, MODERATE_D | MODERATE_D | D_OR_P,
                     MODERATE_P | MODERATE_P | D_OR_P,
                     st.floats(1e-4, 0.1) | FINITE, st.integers(2, 20), st.integers(4, 64),
                     st.none() | st.integers(0, 4) | st.integers(7, 12),
                     st.tuples(st.just("const"), st.floats(0.1, 4.0) | FINITE)
                     | st.tuples(st.just("perturb"), st.floats(-0.3, 0.3) | FINITE,
                                 st.integers(0, 6) | st.integers(0, 70))
                     | st.tuples(st.just("random"), st.integers(0, 2**32),
                                 st.integers(0, 6) | st.integers(0, 70))))
    @example((("w", ("--beta", -0.04)), 1.0, 39.3, 0.01, 2, 64, None, ("perturb", 0.1, 2)))
    @example((("w", ("--beta", -2.0)), 2.0, 3.0, 0.01, 2, 64, 1, ("perturb", 0.1, 2)))
    @example((("fde", "zero"), 2.0, 3.0, 0.01, 2, 64, 3, ("perturb", 0.1, 2)))
    @example((("fde", "critical"), 1.0, 3.0, 0.01, 2, 64, None, ("perturb", 0.1, 2)))
    @example((("heat", None), 1.0, 3.3, sys.float_info.max, 15, 32, None, ("perturb", 0.3, 2)))
    def test_any_finite_input_exits_cleanly(self, args):
        # t_end / dt_max = 10^decades is at most 1e4, which bounds the
        # steps, or at least 1e7, past flows.MAX_STEPS, which evolve
        # refuses (exit 2) before it takes a step, as it refuses a
        # --dt-max below flows.DT_MIN
        (form, exponent), d, p, t_end, samples, n, decades, init = args
        argv = ["flow", f"--form={form}", f"--d={d!r}", f"--p={p!r}", f"--t-end={t_end!r}",
                f"--samples={samples}", f"--n={n}", f"--init={init[0]}:{','.join(map(repr, init[1:]))}"]
        if exponent == "critical":
            argv.append(f"--m={1.0 - 2.0 / p!r}")  # the infinite-beta member
        elif exponent == "zero":
            argv.append("--m=0.0")
        elif exponent is not None:
            argv.append(f"{exponent[0]}={exponent[1]!r}")
        if decades is not None:
            argv.append(f"--dt-max={abs(t_end) / 10**decades!r}")
        with tempfile.TemporaryDirectory() as out:
            assert_exits_cleanly(argv + [f"--out={out}"], Path(out) / "flow.json")


class TestCounterexampleCommand:
    def test_full_report(self, capsys):
        rc, out, _ = run_main(capsys, "counterexample", "--d", "5", "--p", "3.25")
        assert rc == 0
        rep = json.loads(out)
        assert rep["second_obstruction"]["positive"] is True
        assert rep["first_obstruction"]["heat_mismatch"] > 1e-3

    def test_overflowing_family_prints_only_the_error(self):
        # at d = 1e6 the conformal datum (a + b z)^(-d) over- and underflows
        # at the nodes: the positivity refusal is the only signal
        rc, _, err = run_cli("counterexample", "--d", "1e6", "--p", "3", "--n", "16")
        assert rc == 3
        assert json.loads(err)["message"].startswith("explicit family has min nodal value")

    @pytest.mark.parametrize("b, rises", [("0", False), ("1e-31", True)])
    def test_rise_of_F_is_scale_free(self, b, rises, capsys):
        # F is of degree 2 in u: at a = 1e-30 the constant datum's F is
        # 6.2e30 and its rounding moves F by more than an absolute 1e-9
        rc, out, _ = run_main(capsys, "counterexample", "--d", "4", "--a", "1e-30", "--b", b,
                              "--n", "16")
        assert rc == 0
        assert json.loads(out)["first_obstruction"]["F_increases"] is rises

    def test_out_of_window_p(self, capsys):
        rc, _, _ = run_main(capsys, "counterexample", "--d", "5", "--p", "3.0")
        assert rc == 2

    @pytest.mark.parametrize(
        "argv", [[f"--d={d}"] for d in ("nan", "inf", "-inf", "0.5")] + [["--d=5", "--a=inf"]],
        ids=["nan", "inf", "-inf", "0.5", "a=inf"],
    )
    @pytest.mark.parametrize("p", [[], ["--p", "3.25"]])
    def test_malformed_counterexample_is_parameter_error(self, argv, p, capsys):
        rc, _, err = run_main(capsys, "counterexample", *argv, *p)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @pytest.mark.parametrize("d", ["1", "2.5"])
    def test_second_obstruction_below_three_is_parameter_error(self, d, capsys):
        rc, _, err = run_main(capsys, "counterexample", "--d", d, "--p", "3")
        assert rc == 2
        assert json.loads(err)["message"] == "needs d >= 3"

    def test_base_outside_cone_is_parameter_error(self, capsys):
        rc, _, err = run_main(capsys, "counterexample", "--d", "5", "--p", "3.25",
                              "--a", "1", "--b", "2")
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(st.tuples(st.floats(1.0, 12.0) | FINITE, st.none() | st.floats(1.0, 8.0) | FINITE,
                     st.floats(1e-300, 10.0) | FINITE, FINITE | st.floats(-1.0, 1.0),
                     st.integers(4, 40)))
    @example((5.0, 3.25, 1e-100, 0.0, 16))
    @example((4.0, None, 1e-60, 0.0, 16))
    def test_any_finite_input_exits_cleanly(self, args):
        # the obstruction reports from any finite witness: a result whose
        # counterexample.json holds only finite numbers, or a typed refusal
        d, p, a, b, n = args
        with tempfile.TemporaryDirectory() as out:
            argv = ["counterexample", f"--d={d!r}", f"--a={a!r}", f"--b={b!r}", f"--n={n}",
                    f"--out={out}"]
            if p is not None:
                argv.append(f"--p={p!r}")
            assert_exits_cleanly(argv, artifact=Path(out, "counterexample.json"))


class TestImproveCommand:
    def test_estimate(self, capsys):
        rc, out, _ = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts", "4",
                              "--samples", "100")
        assert rc == 0
        rep = json.loads(out)
        assert 4.0 < rep["lambda_star"] <= 10.0 + 1e-6
        assert rep["verify"]["violations"] == 0

    def test_large_p_finds_nothing_below_the_closed_form(self, capsys):
        # the moment projection judged its result on the input's int |v|^p,
        # which a shift at p = 1000 shrinks by orders of magnitude: the
        # search accepted infeasible iterates and reported 2.00025 < 2(d+1)
        rc, out, err = run_main(capsys, "improve", "--d", "2", "--p", "1000",
                                "--restarts", "16")
        if rc == 3:
            assert json.loads(err)["error"] == "numerical"
            return
        assert rc == 0
        rep = json.loads(out)
        assert rep["lambda_star"] == rep["upper_bound"] == 6.0
        searched = [v for v in rep["restart_values"] if v != "nan"]
        assert searched and min(searched) >= 6.0 * (1.0 - 1e-13), searched

    @pytest.mark.parametrize("argv", [
        ["--d", "4", "--p", "3", "--restarts", "16", "--seed", "51"],
        ["--d", "4", "--p", "3", "--restarts", "16", "--seed", "135"],
        ["--d", "2.5", "--p", "3.5", "--restarts", "8", "--seed", "2"],
    ])
    def test_projection_at_the_tolerance_edge(self, argv, capsys):
        # the moment Newton stopped within the tolerance on v0 + r phi1, and
        # the synthesized result then missed it by 1 ulp of the tolerance
        # (1.209e-13 > 1.208e-13): these exited 3 before the search stopped
        # at half the tolerance
        rc, out, err = run_main(capsys, "improve", *argv)
        assert (rc, err) == (0, "")
        assert json.loads(out)["verify"]["violations"] == 0

    @pytest.mark.parametrize("n, builds", [(64, 1), (128, 2)])
    def test_search_and_verifier_share_the_rule(self, n, builds, monkeypatch, capsys):
        # the verifier draws on 64 nodes: at the default --n it reuses the
        # search's rule, and any other --n builds one more
        sizes, init = [], Quadrature.__init__

        def counted(quad, d, m):
            sizes.append(m)
            init(quad, d, m)

        monkeypatch.setattr(Quadrature, "__init__", counted)
        rc, out, _ = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts", "2",
                              "--samples", "20", "--n", str(n))
        assert rc == 0 and "verify" in json.loads(out)
        assert sizes == [n, 64][:builds]

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_malformed_samples_is_parameter_error(self, samples, capsys):
        rc, _, err = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts", "2",
                              "--samples", samples)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    @pytest.mark.parametrize("restarts", ["-1", "-3"])
    def test_negative_restarts_is_parameter_error(self, restarts, capsys):
        rc, out, err = run_main(capsys, "improve", "--d", "4", "--p", "3",
                                "--restarts", restarts)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": "parameter",
                                   "message": f"need restarts >= 0, got {restarts}"}

    @pytest.mark.parametrize("restarts", [0, 1])
    def test_restarts_is_the_searched_count(self, restarts, tmp_path, capsys):
        # no search is the closed form 2(d+1); the output lists no minimizer
        rc, _, _ = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts",
                            str(restarts), "--samples", "20", "--out", str(tmp_path))
        assert rc == 0
        rep = json.loads((tmp_path / "improve.json").read_text())
        assert rep["restarts"] == len(rep["restart_values"]) == restarts
        assert (rep["lambda_star"], rep["lambda_bound"]) == (10.0, 5.5)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == ["improve.json"]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(st.tuples(D_OR_P, D_OR_P, st.integers(0, 2), st.integers(1, 20),
                     st.integers(0, 2**32)))
    @example((2.0, 1000.0, 2, 20, 0))  # the search's moment gradient overflows
    @example((1.01, 1000.0, 2, 20, 0))
    @example((1.01, 1000.0, 0, 20, 0))  # the verifier's p-th power overflows
    @example((2.0, 1e10, 2, 20, 0))  # the projection's p-th power overflows
    @example((1.0, 3.0, 2, 20, 0))  # the improved constant's limit at d = 1
    @example((4.0, 3.0, -1, 20, 0))
    def test_any_finite_input_exits_cleanly(self, args):
        d, p, restarts, samples, seed = args
        assert_exits_cleanly(["improve", f"--d={d!r}", f"--p={p!r}", f"--restarts={restarts}",
                              f"--samples={samples}", f"--seed={seed}"])


@pytest.mark.parametrize(
    "argv",
    [["improve", "--d", "4", "--p", "3", "--restarts", "2"], ["verify", "antipodal"],
     ["flow", "--form", "heat", "--d", "5", "--p", "3", "--init", "const:1", "--t-end", "0.1"]],
    ids=["improve", "verify", "flow"],
)
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_malformed_seed_is_parameter_error(argv, seed, capsys):
    # the one argparse type of every --seed refuses it before the command runs
    rc, _, err = run_main(capsys, *argv, "--seed", seed)
    assert rc == 2
    assert "argument --seed: expected a whole number >= 0" in err


#: sha256 of the first 34 result lines of ``verify all``, one per line, as
#: the suites printed them before their checks moved to ``ultraflow.checks``,
#: less antipodal's nine crossing claims (proved in tests/test_proofs.py)
VERIFY_ALL_RESULTS_SHA256 = "db8519e7a3ebcc2269783e389edf14d0f6fdd9b758af853735d2b609bb2c958a"
#: sha256 of the 17 result lines after them: closed-forms, nonlinear-monotone
#: and improvement's first three claims
VERIFY_NEW_RESULTS_SHA256 = "61f7f166e7a84b1fbcf3cceec09dfee305b9500abb210790d51c69698559021c"
#: sha256 of the last 6 result lines: improvement's search claims
VERIFY_SEARCH_RESULTS_SHA256 = "66afed4d9db857fc8a9224bf638c73a9c30fdf00b460a1c79d3b71417e1bdb6c"


class TestVerifyCommand:
    def test_quadrature_suite(self, capsys):
        rc, out, _ = run_main(capsys, "verify", "quadrature")
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("# measured ")]
        assert lines[0].startswith("1..")
        assert all(l.startswith("ok") for l in lines[1:])

    def test_all_suites(self, capsys):
        rc, out, _ = run_main(capsys, "verify", "all", "--seed", "7")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "1..57"
        results, diagnostics = lines[1::2], lines[2::2]
        assert len(lines) == 1 + 2 * 57
        for pinned, sha256 in ((results[:34], VERIFY_ALL_RESULTS_SHA256),
                               (results[34:51], VERIFY_NEW_RESULTS_SHA256),
                               (results[51:], VERIFY_SEARCH_RESULTS_SHA256)):
            text = "".join(line + "\n" for line in pinned)
            assert hashlib.sha256(text.encode()).hexdigest() == sha256
        for line in diagnostics:
            label, _, value = line.rpartition(" ")
            assert label == "# measured" and math.isfinite(float(value))

    @pytest.mark.parametrize(
        "suite", ["quadrature", "lemma-identities", "exact-solution", "antipodal", "region-figures",
                  "closed-forms", "nonlinear-monotone", "improvement"]
    )
    @pytest.mark.parametrize("flag", ["--d", "--p"])
    def test_suite_without_dimension_refuses_d_and_p(self, suite, flag, capsys):
        rc, _, err = run_main(capsys, "verify", suite, flag, "3")
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    def test_out_is_usage_error(self, tmp_path, capsys):
        rc, _, err = run_main(capsys, "verify", "quadrature", "--out", str(tmp_path / "v"))
        assert rc == 2
        assert "unrecognized arguments: --out" in err
        assert not (tmp_path / "v").exists()

    def test_unknown_suite(self, capsys):
        rc, _, _ = run_main(capsys, "verify", "nope")
        assert rc == 2

    def test_second_obstruction_suite(self, capsys):
        rc, out, _ = run_main(capsys, "verify", "second-obstruction", "--d", "5", "--p", "3.25")
        assert rc == 0
        assert "ok 1" in out

    @pytest.mark.parametrize("p", ["10", "20"])
    def test_moment_decay_at_large_power(self, p, capsys):
        # at d = 1.5, N = 64 the datum's values -> coeffs -> values error
        # (1.6e-12 in int u^20) exceeded the first step's drift budget at
        # every dt, if counted as drift
        rc, out, _ = run_main(capsys, "verify", "moment-decay", "--d", "1.5", "--p", p)
        assert rc == 0
        assert out.splitlines()[1].startswith("ok 1")


def test_acceptance_criteria_are_checks():
    # every acceptance criterion is a ``verify`` claim: it asserts nothing
    # outside ``holds`` and runs at least one generator of ``checks.SUITES``
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    suites = {check.__name__ for check in SUITES.values()}
    criteria = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")]
    assert len(criteria) == 11
    for criterion in criteria:
        nodes = list(ast.walk(criterion))
        assert not any(isinstance(node, ast.Assert) for node in nodes), criterion.name
        called = {node.func.attr for node in nodes
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "checks"}
        assert called & suites, criterion.name


@pytest.mark.parametrize("argv", [
    ["counterexample", "--d", "5", "--a", "1e-100", "--b", "0", "--n", "16", "--p", "3.25"],
    ["flow", "--form", "heat", "--d", "5", "--p", "3", "--init", "conformal:1e-300,0",
     "--t-end", "0.1", "--n", "16"],
    ["counterexample", "--d", "4", "--a", "1e-60", "--b", "0", "--n", "16"],
], ids=["counterexample-p", "flow", "counterexample"])
def test_floating_point_failure_is_one_json_line(argv):
    # a witness or datum whose powers overflow: the numerical exit with its
    # JSON error as all of stderr, not RuntimeWarnings and then exit 3, or
    # exit 0 with an infinite heat_mismatch
    rc, _, err = run_cli(*argv)
    assert rc == 3
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "numerical"


class TestInProcessEntry:
    def test_main_returns_zero(self, capsys):
        assert main(["constants", "--d", "3", "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["two_star"] == 6.0

    def test_main_parameter_error(self, capsys):
        assert main(["constants", "--d", "3", "--p", "9"]) == 2
