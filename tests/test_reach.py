"""Every function under ``src/ultraflow`` is reached by a command.

The README commands (at a smaller ``--grid``, ``--t-end`` and
``--restarts``, two of its error-path examples among them) and ``verify
all`` run in-process under ``sys.setprofile``, which records the code
object of every Python call.  A ``def`` that none of them reaches is dead
code, unless ``UNREACHED`` names it with the reason it stays."""

import ast
import contextlib
import io
import sys
from pathlib import Path

from ultraflow import cli

SRC = Path(cli.__file__).resolve().parent

#: qualified name -> why it stays though no command reaches it
UNREACHED = {
    "discretization.Quadrature.second_derivative_values":
        "perfbench/tracer.py wraps it by name (the discretization.xform span)",
    "discretization.Quadrature.padded_derivative":
        "perfbench/tracer.py wraps it by name (the discretization.padded span)",
    "discretization.GridFn.to_csv": "perfbench/tracer.py wraps it by name (the cli.emit span)",
    "functionals.dissipation_heat":
        "perfbench/tracer.py wraps it by name (the functionals.report span)",
    "functionals.quotient": "perfbench/tracer.py wraps it by name (the functionals.scalar span)",
    "improvements.logsob_improvement":
        "the logarithmic case's closed-form bound, which no command reports; "
        "tests/test_proofs.py proves its crossing",
    "improvements._bisect_moment":
        "the fallback of project_moment when its Newton iteration leaves the bracket",
    "improvements._bisect_moment.<locals>.g": "the function _bisect_moment brackets",
    "discretization.Quadrature.__repr__": "what a debugger or a test's failure message prints",
}


def commands(out: Path) -> list[str]:
    return [
        "constants --d 5 --p 3.25 --beta 1.2",
        f"region --d 5 --grid 11 --out {out}/region",
        f"region --d 3 --curves 3,4 --grid 20 --out {out}/curves",
        f"flow --form heat --d 5 --p 3 --init random:1,8 --t-end 1 --out {out}/heat",
        "flow --form w --d 5 --p 3.3 --beta 1.2126712652 --init perturb:0.3,2 --t-end 0.01",
        "flow --form fde --d 3 --p 6 --m 0.6666666667 --init random:2,6 --t-end 0.4",
        # a datum whose density overflows, and a right-hand side that does
        "flow --form w --d 5 --p 3.3 --beta 300 --init perturb:0.3,2 --t-end 0.01",
        "flow --form fde --d 5 --p 3.3 --m 5 --init const:1e300 --t-end 0.01 --n 16",
        "counterexample --d 5 --p 3.25 --a 1 --b 0.4",
        # the d = 3 branch of the first obstruction, the one caller of deficit
        "counterexample --d 3 --a 1 --b 0.4",
        "improve --d 4 --p 3 --restarts 2 --seed 0",
        "verify second-obstruction --d 5 --p 3.25",
        "verify all",
    ]


def defs() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name of every def;
    a decorated def's code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


def test_every_def_is_reached_by_a_command(tmp_path):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cli.build_parser.cache_clear()  # built once per process, maybe before this test
    codes = []
    for argv in commands(tmp_path):
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv.split()))
        finally:
            sys.setprofile(None)
    assert codes == [0] * 6 + [3, 3] + [0] * 5
    reached = {(code.co_filename, code.co_firstlineno) for code in seen}
    unreached = {name for key, name in defs().items() if key not in reached}
    assert unreached == set(UNREACHED)
