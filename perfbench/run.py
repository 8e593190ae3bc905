"""ultraflow benchmark: runs one workload's CLI commands, checks every output
and prints the metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``stepping``, ``analysis``, ``sweep``.  The
load is one process with BLAS pinned to one thread; commands run in-process
through ``ultraflow.cli.main(argv)`` with ``--out`` in a scratch directory
under ``.bench_out/`` of the checkout.

One run:

1. One fresh-interpreter import of ``ultraflow.cli`` fills the bytecode
   cache, then one warm-up pass runs the command list; each command's output
   is checked here (and the F references computed) before anything is timed.
2. Timed passes until ``--seconds`` have elapsed (at least MIN_PASSES).
   Every pass must reproduce the warm-up pass's stdout and artifacts byte
   for byte.  ``wall_s`` is the sum over the commands of each one's median
   wall time over the passes.  The workload's calibration kernel (see
   calibration.py) runs before every command; ``calib_s`` is its median
   time and ``wall_norm`` is ``wall_s / calib_s``.  With ``--trace 0``, a
   fresh interpreter imports ``ultraflow.cli`` before each pass; ``setup_s``
   is the median of those import times.  With ``--trace 1``, a pass with a
   fresh tracer installed runs before each untraced pass instead, and must
   also reproduce the warm-up outputs.  The per-layer metrics come from the
   last traced pass, and its spans go to
   ``.bench_out/trace-<workload>-<seed>.json``; ``trace_overhead`` is the
   traced passes' time, taken as for ``wall_s``, over ``wall_s``.

On a shared 2-vCPU machine the speed of this process swings by up to 1.6x
between states that last seconds to minutes, which moves wall_s between
runs by 15-25% (interquartile range over seeds).  The calibration kernel is
slowed by the same states, so wall_norm, the end-to-end time metric,
cancels most of that drift; wall_s and calib_s are reported with the
per-layer metrics.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` and ``failed`` count command executions; a command fails when
it exits non-zero or its output fails a check.  ``correct`` is false when an
output is wrong: a failed check, a verify suite reporting an invariant
violation, or a pass whose output differs from the warm-up pass.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (BLAS threads are pinned before numpy loads)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
EXIT_INVARIANT = 4  # the CLI's exit code for a verify invariant violation

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import ultraflow.cli; "
                  "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import ``ultraflow.cli``."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    return float(done.stdout)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_total(passes) -> float:
    """Sum over the commands of each one's median wall time over the passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Run:
    """Executes passes over one workload's commands and keeps the tallies."""

    def __init__(self, commands, seed: int, scratch: Path):
        self.commands = commands
        self.seed = seed
        self.scratch = scratch
        self.first = None  # outcomes of the warm-up pass
        self.ok = None  # per command: exited 0 and passed its check
        self.attempted = self.failed = 0
        self.incorrect = False
        self.problems = []
        self.relerr = []  # relative errors of flow F against the references
        self.calibrations = []

    def run_pass(self, calibration=None) -> list[float]:
        """One pass over the commands; returns the wall time of each.

        ``calibration``, when given, is run and timed before each command
        and its times are appended to ``self.calibrations``.
        """
        import workloads

        times = []
        outcomes = []
        for i, command in enumerate(self.commands):
            if calibration is not None:
                self.calibrations.append(timed(calibration))
            out_dir = self.scratch / f"c{i}"
            outcome, seconds = workloads.run_command(command.expand(self.seed, str(out_dir)),
                                                     out_dir)
            times.append(seconds)
            outcomes.append(outcome)
        if self.first is None:
            self.first = outcomes
            self.ok = [self._check(c, o) for c, o in zip(self.commands, outcomes)]
        for command, outcome, first, ok in zip(self.commands, outcomes, self.first, self.ok):
            self.attempted += 1
            same = outcome == first
            if not same:
                self._problem(command, "output differs from the warm-up pass")
            self.failed += not (same and ok)
        return times

    def _check(self, command, outcome) -> bool:
        if outcome.rc == EXIT_INVARIANT:
            self._problem(command, "verify reported an invariant violation")
            return False
        if outcome.rc != 0:
            self.problems.append(f"exit code {outcome.rc}: {' '.join(command.argv)}")
            return False
        import workloads

        try:
            verdict = command.check(outcome, self.seed)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            verdict = workloads.Verdict([f"malformed output ({exc!r})"])
        if verdict.relerr is not None:
            self.relerr.append(verdict.relerr)
        for text in verdict.problems:
            self._problem(command, text)
        return not verdict.problems

    def _problem(self, command, text):
        self.incorrect = True
        self.problems.append(f"{text}: {' '.join(command.argv)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("stepping", "analysis", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ultraflow" / "cli.py").is_file():
        print(f"no ultraflow source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibration
    import workloads
    from tracer import Tracer

    seed = args.seed % 2**32  # random:seed,modes needs a nonnegative seed
    env = environment()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        run = Run(workloads.WORKLOADS[args.workload], seed, scratch)
        import_seconds()  # fills the bytecode cache; not a sample
        run.run_pass()
        kernel = calibration.kernel_for(args.workload)
        passes, traced, setups = [], [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            # set-up samples and traced passes alternate with the untraced
            # passes, so that both span the same stretch of the machine's
            # speed drift
            if args.trace:
                tracer = Tracer()  # a fresh one per pass, so counts are per pass
                tracer.install()
                try:
                    traced.append(run.run_pass())
                finally:
                    tracer.uninstall()
            else:
                setups.append(import_seconds())
            passes.append(run.run_pass(kernel))
        wall = median_total(passes)
        calib = statistics.median(run.calibrations)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = {**tracer.layer_metrics(),
                  "flow_F_relerr": max(run.relerr, default=0.0),
                  "failed_frac": run.failed / run.attempted,
                  "trace_overhead": median_total(traced) / wall,
                  "wall_s": wall,
                  "calib_s": calib}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_norm": wall / calib,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "ok_frac": (run.attempted - run.failed) / run.attempted}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    info = {"workload": args.workload, "seed": seed, "environment": env,
            "timed_passes": len(passes), "pass_s": [sum(p) for p in passes],
            "problems": run.problems}
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-{seed}.json"
        trace_file.write_text(json.dumps({**info, "metrics": metrics, **tracer.dump()}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({"correct": not run.incorrect, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
