"""Regenerate references.json, the stored values the benchmark checks against.

Usage (from the repository root; takes about half a minute):

    python3 perfbench/make_references.py

The flow references are the final deficit F of the README ``w`` point and of
the ``fde`` form at the same (d, p, beta), integrated with the step capped at
5e-7, eight times below the default controller's mean step there (halving
the cap from 1e-6 moves F by under 2e-11 relative, against the default
run's errors of 3.8e-10 for w and 3.3e-7 for fde).  The other values are the outputs
of the commands recorded beside them.  Every command is stored with its value.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import workloads  # noqa: E402  (needs the source tree on sys.path)

DT_CAP = "5e-7"


def _run(text: str, out_dir: Path):
    outcome, _ = workloads.run_command(text.split() + ["--out", str(out_dir)], out_dir)
    if outcome.rc != 0:
        raise SystemExit(f"reference command failed with exit code {outcome.rc}: {text}")
    return outcome


def main() -> int:
    refs = {"flow_F_last": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out"
        for form in ("w", "fde"):
            text = (f"flow --form {form} {workloads.W_POINT} --t-end {workloads.STEP_T_END}"
                    f" --dt-max {DT_CAP}")
            refs["flow_F_last"][form] = {"command": text,
                                         "F_last": _run(text, out).json("flow")["F_last"]}
        refs["counterexample_rhs"] = {}
        for key, extra in (("n128", ""), ("n512", " --n 512")):
            text = "counterexample --d 5 --p 3.25 --a 1 --b 0.4" + extra
            rhs = _run(text, out).json("counterexample")["second_obstruction"]["rhs"]
            refs["counterexample_rhs"][key] = rhs
            refs["counterexample_rhs"][f"{key}_command"] = text
        text = "region --d 5 --grid 201"
        n_admissible = _run(text, out).json("region")["n_admissible"]
        refs["region_n_admissible"] = {"command": text, "n_admissible": n_admissible}
        text = "region --d 3 --curves 3,4,5,6,7,8,9,10 --grid 200"
        curves = _run(text, out)
        last = curves.artifacts["beta_curves.csv"].decode().splitlines()[-1]
        refs["beta_curves"] = {"command": text, "rows": curves.json("region")["rows"],
                               "last_row": [float(x) for x in last.split(",")]}
        text = "constants --d 5 --p 3.25 --beta 1.2"
        data = _run(text, out).json("constants")
        keys = ("two_star", "two_sharp", "beta_minus", "beta_plus", "B_minus", "B_plus",
                "gamma", "m", "kappa", "A", "admissible")
        refs["constants"] = {"command": text, "values": {k: data[k] for k in keys}}
    workloads.REFERENCES_FILE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
