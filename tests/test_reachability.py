"""Every function in the package runs on some CLI path, or is named here.

A fresh interpreter installs a profile hook, imports ctorsim.cli (so what
runs at import counts) and makes eight tiny CLI calls: every subcommand, a
config file, --block, --scenario-seed, a rejected --mb -1 and an argparse
usage error. Every function the package's source defines must have run,
except the ones in UNREACHED, each named with why it stays. A capability
that only its own tests reach fails this test until it is deleted or named.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import ctorsim

PACKAGE = Path(ctorsim.__file__).resolve().parent

UNREACHED = {
    "analytics.enumerate_oracle": "reference oracle the closed form is tested against",
    "codec.CodeParams._make": "checked _replace: builds through CodeParams.__new__",
    "cli.run": "console entry point; the calls here go through cli.main",
    "codec.encode_generation": "bound by the benchmark tracer (ROADMAP items 5 and 9)",
    "codec.decode_generation": "bound by the benchmark tracer (ROADMAP items 5 and 9)",
    "codec.UnrecoverableGeneration.__init__": "raised by decode_generations on rows of rank below k, which Cauchy rows never give",
    "gf256.xor_bytes": "bound by the benchmark tracer (ROADMAP items 5 and 9)",
    "onion.CodedMessage.__iter__": "the tracer's transmit wrapper iterates a coded message",
    "onion.CodedMessage.__setattr__": "immutability guard",
    "onion.CodedMessage.__delattr__": "immutability guard",
    "onion.Circuit.circuit_id": "view the tests read the pipeline through",
    "onion.LayeredCell.payload": "view the tests read the pipeline through",
}

# Each call with the exit code it must give, so every path below really runs.
CALLS = [
    (["analytic", "--config", "{config}", "--out", "{tmp}/analytic.csv"], 0),
    (["simulate", "--mknown", "0..2", "--trials", "20", "--seed", "3", "--full-pipeline-fraction", "0.5",
      "--variant", "otor", "--variant", "mtor:4", "--variant", "ctor:5:2", "--out", "{tmp}/simulate.csv"], 0),
    (["fig2", "--mknown", "1", "--trials", "10", "--variant", "ctor:4:1", "--out", "{tmp}/fig2"], 0),
    (["e2e", "--block", "1,2", "--message-size", "600"], 2),
    (["e2e", "--variant", "ctor:4:1", "--block", "0", "--message-size", "600"], 0),
    (["e2e", "--scenario-seed", "5", "--mknown", "2", "--mb", "3", "--message-size", "600"], 2),
    (["simulate", "--mb", "-1", "--mknown", "0", "--trials", "5"], 1),
    (["analytic", "--bogus"], 1),
]
CONFIG = "mknown = 0..2\nvariant = otor, mtor:4, ctor:10:4\n"

PROGRAM = """
import contextlib, io, json, os, sys
ran = set()
def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            ran.add((code.co_filename, code.co_firstlineno))
src, package, result, calls = sys.argv[1], sys.argv[2] + os.sep, sys.argv[3], json.loads(sys.argv[4])
sys.path.insert(0, src)
sys.setprofile(hook)
import ctorsim.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in calls:
        codes.append(ctorsim.cli.main(argv))
sys.setprofile(None)
with open(result, "w") as fh:
    json.dump({"codes": codes, "ran": sorted(ran)}, fh)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """Every function the package defines, as 'module.qualname', by its file
    and its code object's first line (a decorated def's first decorator)."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                first = min([child.lineno, *(decorator.lineno for decorator in child.decorator_list)])
                found[str(path), first] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def test_every_function_runs_on_a_cli_path_or_is_named(tmp_path):
    config = tmp_path / "grid.cfg"
    config.write_text(CONFIG)
    calls = [[arg.format(config=config, tmp=tmp_path) for arg in argv] for argv, _ in CALLS]
    result = tmp_path / "ran.json"
    subprocess.run(
        [sys.executable, "-c", PROGRAM, str(PACKAGE.parent), str(PACKAGE), str(result), json.dumps(calls)],
        check=True, timeout=60,
    )
    report = json.loads(result.read_text())
    assert report["codes"] == [code for _, code in CALLS]
    functions = defined_functions()
    ran = {tuple(key) for key in report["ran"]}
    assert {name for key, name in functions.items() if key not in ran} == set(UNREACHED)
