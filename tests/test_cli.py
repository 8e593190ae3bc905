import hashlib
import json
import subprocess
import sys

import pytest

from ultraflow.cli import main

RUN = [sys.executable, "-m", "ultraflow.cli"]


def run_cli(*args):
    """The command in a fresh interpreter: for what only a separate process
    shows (the real exit path, determinism across processes)."""
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """The command in-process through ``main``."""
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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

    def test_beta_curves(self, tmp_path, capsys):
        rc, _, _ = run_main(capsys, "region", "--d", "3", "--curves", "3,4,5,6,7,8,9,10",
                            "--grid", "24", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "beta_curves.csv").read_text().splitlines()
        assert lines[0] == "d,p,beta_minus,beta_plus"
        from ultraflow import Params, beta_roots, two_sharp

        # above p = 2 the lower-root curves are ordered upward in d, and each
        # crosses beta = 1 exactly at that dimension's threshold exponent
        vals = [beta_roots(Params(float(d), 2.2)).minus for d in range(4, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for d in range(3, 11):
            crossing = beta_roots(Params(float(d), two_sharp(float(d)))).minus
            assert abs(crossing - 1.0) < 1e-10


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
        argv = ["flow", "--form", form, "--d", "5", "--p", "3.3", "--beta", "1.2",
                "--init", "random:1,4", "--t-end", "0.1", "--n", "32"]
        rc, _, err = run_main(capsys, *argv, *args)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

    def test_fde_at_beta_one_is_the_exact_heat_flow(self, tmp_path, capsys):
        runs = {}
        for form in ("heat", "fde"):
            rc = main(["flow", "--form", form, "--d", "5", "--p", "3", "--beta", "1",
                       "--init", "random:1,8", "--t-end", "0.1", "--out", str(tmp_path / form)])
            assert rc == 0
            runs[form] = [json.loads((tmp_path / form / name).read_text())
                          for name in ("flow.json", "manifest.json")]
        capsys.readouterr()
        (heat, heat_manifest), (fde, fde_manifest) = runs["heat"], runs["fde"]
        assert (fde["F_first"], fde["F_last"]) == (heat["F_first"], heat["F_last"])
        assert fde_manifest["params"]["scheme"] == heat_manifest["params"]["scheme"]
        assert fde_manifest["params"]["scheme"] == "exact-diagonal"

    @pytest.mark.parametrize("form", ["w", "fde", "heat"])
    @pytest.mark.parametrize("dt_max", ["0", "-1"])
    def test_nonpositive_dt_max_is_parameter_error(self, form, dt_max, capsys):
        # a zero step never advances the clock, a negative one underflows
        rc, _, err = run_main(capsys, "flow", "--form", form, "--d", "5", "--p", "3.3",
                              "--beta", "1.2", "--init", "const:1", "--t-end", "0.1",
                              "--n", "32", "--dt-max", dt_max)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"

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

    @pytest.mark.parametrize("init", ["powerlaw:1,0.4", "conformal:1,0.3"])
    def test_initial_deficit_agrees_across_forms(self, init, capsys):
        # every form materializes the same density from a closed-form datum,
        # also when the flow's beta differs from the power law's beta_-
        first = {}
        for form in ("heat", "fde", "u", "w"):
            rc = main(["flow", "--form", form, "--d", "5", "--p", "3.25", "--beta", "1.5",
                       "--init", init, "--t-end", "1e-5", "--samples", "2", "--n", "64"])
            assert rc == 0
            first[form] = json.loads(capsys.readouterr().out)["F_first"]
        for form, value in first.items():
            assert value == pytest.approx(first["heat"], rel=1e-12), form


class TestCounterexampleCommand:
    def test_full_report(self, capsys):
        rc, out, _ = run_main(capsys, "counterexample", "--d", "5", "--p", "3.25")
        assert rc == 0
        rep = json.loads(out)
        assert rep["second_obstruction"]["positive"] is True
        assert rep["first_obstruction"]["heat_mismatch"] > 1e-3

    def test_out_of_window_p(self, capsys):
        rc, _, _ = run_main(capsys, "counterexample", "--d", "5", "--p", "3.0")
        assert rc == 2

    def test_base_outside_cone_is_parameter_error(self, capsys):
        rc, _, err = run_main(capsys, "counterexample", "--d", "5", "--p", "3.25",
                              "--a", "1", "--b", "2")
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"


class TestImproveCommand:
    def test_estimate(self, capsys):
        rc, out, _ = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts", "4",
                              "--samples", "100")
        assert rc == 0
        rep = json.loads(out)
        assert 4.0 < rep["lambda_star"] <= 10.0 + 1e-6
        assert rep["verify"]["violations"] == 0

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_malformed_samples_is_parameter_error(self, samples, capsys):
        rc, _, err = run_main(capsys, "improve", "--d", "4", "--p", "3", "--restarts", "2",
                              "--samples", samples)
        assert rc == 2
        assert json.loads(err)["error"] == "parameter"


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


class TestVerifyCommand:
    def test_quadrature_suite(self, capsys):
        rc, out, _ = run_main(capsys, "verify", "quadrature")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("1..")
        assert all(l.startswith("ok") for l in lines[1:])

    def test_unknown_suite(self, capsys):
        rc, _, _ = run_main(capsys, "verify", "nope")
        assert rc == 2

    def test_second_obstruction_suite(self, capsys):
        rc, out, _ = run_main(capsys, "verify", "second-obstruction", "--d", "5", "--p", "3.25")
        assert rc == 0
        assert "ok 1" in out


class TestInProcessEntry:
    def test_main_returns_zero(self, capsys):
        assert main(["constants", "--d", "3", "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["two_star"] == 6.0

    def test_main_parameter_error(self, capsys):
        assert main(["constants", "--d", "3", "--p", "9"]) == 2
