"""The benchmark under ``perfbench/`` drives ultraflow through names it looks
up at run time: the CLI entry point, ``cli.parse_init`` and the functions
and methods its tracer wraps.  Importing it and installing the tracer here
makes a rename or deletion of any of those names fail the test suite, not
only a traced benchmark run."""

import importlib.util
import math
import sys
from pathlib import Path

import ultraflow
from ultraflow import cli, functionals

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"stepping", "analysis", "sweep"}


def test_u_reference_runs():
    # the u check's reference materializes its datum through the pointwise
    # form by the name the benchmark uses
    workloads = _load("workloads")
    value = workloads._u_reference({"d": 5.0, "p": 3.0, "N": 16, "t_end": 0.01}, 3)
    assert math.isfinite(value) and value > 0.0


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracer").Tracer()
    original = functionals.dissipation_heat
    try:
        tracer.install()
        assert functionals.dissipation_heat is not original
    finally:
        tracer.uninstall()
    assert functionals.dissipation_heat is original
    assert ultraflow.dissipation_heat is original


def test_tracer_tells_accepted_from_rejected_steps(capsys):
    # the tracer infers a rejected IMEX attempt from the step loop passing
    # the same coefficient array again; a loop that stops doing so would
    # skew the benchmark's step counters, not fail them.  This run rejects
    # two of its attempts.  Its three samples evaluate E_p and I_p only:
    # one flows.sample span each, and no dissipation report.  An ETDRK4 step
    # costs four right-hand sides, and a w right-hand side four padded
    # matvecs (79 attempts, 316 and 1,264).
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["flow", "--form", "w", "--d", "5", "--p", "3.3",
                       "--beta", "1.2126712652", "--init", "perturb:0.3,2",
                       "--t-end", "0.1", "--n", "64", "--samples", "3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    counters = tracer.counters
    assert counters["imex.accepted"] + counters["imex.rejected"] == tracer.count("flows.imex")
    assert counters["imex.rejected"] >= 1
    assert tracer.count("flows.rhs") == 4 * tracer.count("flows.imex")
    assert tracer.count("discretization.padded") == 4 * tracer.count("flows.rhs")
    assert tracer.count("flows.sample") == 3
    assert tracer.count("functionals.report") == 0


def test_tracer_sees_the_region_sweep(tmp_path, capsys):
    # one constants.classify span per p row, and the CSV writer recorded as
    # a cli.emit span inside the command's _emit
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["region", "--d", "5", "--grid", "5", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.count("constants.classify") == 5
    assert tracer.aggregates[("cli.emit", "cli.emit")][0] == 1
    assert (tmp_path / "region.csv").read_text().count("\n") == 1 + 5 * 5


def test_tracer_sees_the_obstruction_reports(capsys):
    # each obstruction reads its J's from a dissipation report: two in the
    # first obstruction (the heat and the nonlinear flow) and the heat
    # report in the second; no carre-du-champ triple is evaluated on its own
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["counterexample", "--d", "5", "--p", "3.25", "--n", "32"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.count("counterexamples.obstruction") == 2
    assert tracer.count("functionals.report") == 3
    assert tracer.count("functionals.cdc") == 0
