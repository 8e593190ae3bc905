"""The benchmark under ``perfbench/`` drives ultraflow through names it looks
up at run time: the CLI entry point, ``cli.parse_init`` and the functions
and methods its tracer wraps.  Importing it and installing the tracer here
makes a rename or deletion of any of those names fail the test suite, not
only a traced benchmark run."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from ultraflow import cli, flows, functionals
from ultraflow.errors import ResolutionError

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
    # form by the name the benchmark uses.  At N = 32 the u command it
    # stands for resolves its datum (exit 0); at N = 16 that command exits
    # 3, and the reference's deficit refuses the unresolved u as well
    workloads = _load("workloads")
    value = workloads._u_reference({"d": 5.0, "p": 3.0, "N": 32, "t_end": 0.01}, 3)
    assert math.isfinite(value) and value > 0.0
    with pytest.raises(ResolutionError):
        workloads._u_reference({"d": 5.0, "p": 3.0, "N": 16, "t_end": 0.01}, 3)


def test_tracer_installs_and_uninstalls():
    tracer = _load("tracer").Tracer()
    original = functionals.dissipation_heat
    try:
        tracer.install()
        assert functionals.dissipation_heat is not original
    finally:
        tracer.uninstall()
    assert functionals.dissipation_heat is original


def test_tracer_tells_accepted_from_rejected_steps(capsys):
    # the tracer infers a rejected IMEX attempt from the step loop passing
    # the same coefficient array again; a loop that stops doing so would
    # skew the benchmark's step counters, not fail them.  This run rejects
    # one of its 111 attempts, by the local-error test.  Its three samples
    # evaluate E_p and I_p only, and no dissipation report: the datum is one
    # flows.sample span and the two later samples, one block, are another.
    # An ETDRK4 step costs four right-hand sides, and a right-hand side two
    # padded matvecs: the w form steps its density
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
    assert tracer.count("discretization.padded") == 2 * tracer.count("flows.rhs")
    assert tracer.count("flows.sample") == 2
    assert tracer.count("functionals.report") == 0


def _exact_flow_spans(form, monkeypatch):
    """Runs ``flow --form <form> ... --n 64 --samples 5`` under a tracer,
    with a ``flows.evolve`` span around the flow, checks that it took no
    step, and returns the tracer."""
    tracer = _load("tracer").Tracer()
    tracer.install()
    monkeypatch.setattr(flows, "evolve", tracer.span("flows.evolve", flows.evolve))
    try:
        rc = cli.main(["flow", "--form", form, "--d", "5", "--p", "3", "--init", "random:3,8",
                       "--t-end", "1", "--n", "64", "--samples", "5"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.count("flows.imex") == 0
    assert tracer.count("flows.controller") == 0
    assert tracer.count("flows.rhs") == 0
    return tracer


def test_tracer_sees_one_synthesis_of_the_heat_samples(capsys, monkeypatch):
    # the exact heat flow takes no step: the datum is one flows.sample span
    # and the four later samples, one block, are another.  In evolve the
    # block is one stacked synthesis, and in its sample span one stacked
    # analysis next to the datum's; every other transform is of one
    # vector, 2 n^2 flops each (n = 64)
    tracer = _exact_flow_spans("heat", monkeypatch)
    capsys.readouterr()
    assert tracer.count("flows.sample") == 2
    assert tracer.aggregates[("discretization.xform", "flows.evolve")][0] == 1
    assert tracer.aggregates[("discretization.xform", "flows.sample")][0] == 2
    xforms = tracer.count("discretization.xform")
    assert tracer.counters["flop.discretization.xform"] == 2 * 64 * 64 * (xforms - 2 + 2 * 4)


def test_tracer_sees_one_synthesis_of_the_u_samples(capsys, monkeypatch):
    # the u form runs the same exact flow, from rho0 = u0^p: the datum and
    # the block are two flows.sample spans.  In evolve the analysis of
    # rho0, one stacked synthesis and the final state's analysis of u; in
    # the sample spans the datum's analysis of u = rho0^(1/p) and the
    # block's stacked one
    tracer = _exact_flow_spans("u", monkeypatch)
    capsys.readouterr()
    assert tracer.count("flows.sample") == 2
    assert tracer.aggregates[("discretization.xform", "flows.evolve")][0] == 3
    assert tracer.aggregates[("discretization.xform", "flows.sample")][0] == 2
    xforms = tracer.count("discretization.xform")
    assert tracer.counters["flop.discretization.xform"] == 2 * 64 * 64 * (xforms - 2 + 2 * 4)


def test_tracer_sees_the_region_sweep(tmp_path, capsys):
    # one constants.classify span for the whole sweep (all p rows at once),
    # and the CSV writer recorded as a cli.emit span inside the command's
    # _emit
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["region", "--d", "5", "--grid", "5", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.count("constants.classify") == 1
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


def test_tracer_sees_the_search(capsys):
    # the descent counter reads ImprovementEstimate.iterations, the sum of
    # the searched steps: one estimate_lambda_star span, the projections
    # inside its search and the verifier after it
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["improve", "--d", "4", "--p", "3", "--restarts", "2", "--samples", "20"])
    finally:
        tracer.uninstall()
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert tracer.count("improvements.descent") == 1
    assert tracer.counters["descent.iters"] == sum(rep["restart_iterations"])
    assert tracer.count("improvements.project") >= 1
    assert tracer.count("improvements.verify") == 1


def test_tracer_sees_the_stacked_search(capsys):
    # the 16 starts are descended as one stack: one stacked projection per
    # line-search round (35 here), where one start at a time took 484
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        rc = cli.main(["improve", "--d", "4", "--p", "3", "--restarts", "16", "--seed", "3"])
    finally:
        tracer.uninstall()
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert tracer.count("improvements.project") <= 60
    assert tracer.counters["descent.iters"] == sum(rep["restart_iterations"]) == 455
