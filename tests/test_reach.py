"""Every function under src/loccdist runs when the four commands, the five
demos and the README quick start run: the package carries no surface that
only its tests reach, and a later addition comes with a caller.

The run is traced with sys.setprofile.  A def is matched to the code it
compiles to by (file, first line): the `def` line, or its first decorator's
line.  Each demo runs from a copy, so the committed demos/*.csv stay as
they are.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import shutil
import sys
from pathlib import Path

import pytest

import loccdist
from loccdist.cli import main
from test_readme import quick_start_block

PACKAGE = Path(loccdist.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Defs left unreached on purpose, each with its reason.  Each must exist
# and must not run.
EXEMPT = {
    # Eigensolve-era kernels that perfbench/layers.py traces: they leave
    # src/ together with their trace targets, in a benchmark change.
    "two_way.build_mub_basis",
    "two_way.sigma_A",
    "operators.psd_sqrt",
    "operators.support_projection",
}

# (argv, exit code): every command, on valid and invalid input.  "OUT" is
# replaced by a path under the test's temporary directory.
COMMANDS = [
    (["bounds", "--schmidt", "0.875,0.125"], 0),
    (["bounds", "--schmidt", "0.5,0.3,0.2", "--dims", "3,4"], 0),
    (["bounds", "--schmidt", "0.5,0.3,0.2", "--dims", "2,5"], 2),
    (["bounds", "--schmidt", "0.5,0.5", "--dims", ",".join(["1" + "0" * 200] * 2)], 2),
    (["bounds", "--schmidt", "0.5,x"], 2),
    (["sweep", "--family", "fig2", "--points", "5", "--out", "OUT"], 0),
    (["sweep", "--family", "1-3t,t,t,t", "--range", "0,0.25", "--points", "4", "--out", "OUT"], 0),
    (["sweep", "--family", "fig1", "--points", "1", "--out", "OUT"], 2),
    (["optimize", "--schmidt", "0.6,0.3,0.1", "--grid-step", "0.25"], 0),
    (["optimize", "--schmidt", "0.6,0.3,0.1", "--tol", "0"], 2),
    (["verify", "--schmidt", "0.6,0.3,0.1", "--mc-samples", "2000"], 0),
    (["verify", "--schmidt", "0.7,0.2,0.1,0", "--mc-samples", "2000"], 0),
    (["verify", "--schmidt", "0.5,0.5", "--mc-samples", "0"], 2),
]


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.Qualified.name" for every def under
    the package, nested ones included."""
    defs = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return defs


def clear_caches() -> None:
    """Empty every functools cache in the package, so that each cached def
    runs again whatever ran before in this process."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("loccdist."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_everything(tmp: Path) -> list:
    """Run every command of COMMANDS, each demo from a copy under tmp, and
    the README quick start; return the commands' exit codes, or the
    exception a command raised."""
    codes = []
    for n, (argv, _) in enumerate(COMMANDS):
        try:
            codes.append(main([str(tmp / f"out{n}.csv") if a == "OUT" else a for a in argv]))
        except Exception as exc:  # a traceback, not an exit code: the run goes on
            codes.append(repr(exc))
    demos = shutil.copytree(DEMOS, tmp / "demos")
    argv = sys.argv
    try:
        for script in sorted(demos.glob("*.py")):
            sys.argv = [str(script)]  # family_sweeps reads its families from argv
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    exec(compile(quick_start_block(), "README.md", "exec"), {})
    return codes


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(exit codes, names of the package defs that ran)."""
    defs = package_defs()
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    clear_caches()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            codes = run_everything(tmp_path_factory.mktemp("reach"))
        finally:
            sys.setprofile(None)
    return codes, {name for key, name in defs.items() if key in seen}


def test_commands_exit_as_listed(traced):
    codes, _ = traced
    assert codes == [code for _, code in COMMANDS]


def test_every_def_runs(traced):
    _, ran = traced
    unreached = set(package_defs().values()) - ran - EXEMPT
    assert not unreached, f"reached only by tests, if at all: {sorted(unreached)}"


def test_exemptions_exist_and_stay_unreached(traced):
    _, ran = traced
    assert EXEMPT <= set(package_defs().values())
    assert not EXEMPT & ran, "an exempt def now runs: drop its exemption"


def test_public_names_resolve():
    missing = [name for name in loccdist.__all__ if not hasattr(loccdist, name)]
    assert not missing
