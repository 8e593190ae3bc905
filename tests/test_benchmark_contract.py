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
from ultraflow import functionals

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
