"""Mutation check of src/loccdist/two_way.py against the tests that read it.

A mutant changes one site of two_way.py: a comparison < <= > >= swapped
with its non-strict or strict twin, + with -, * with /, an int constant
plus 1, a nonzero float constant times 2, a mask term a & b cut to a, or
np.triu turned into np.tril.  A site is named "function op#k", the k-th
site of that op in that function in source order ("<module>" outside any
def).

The sample is the FORCED mutants (the live gate of the support rule, the
gate's strict threshold and the table mask) plus SAMPLE sites drawn with
random.Random(SEED) from the rest.  Each sampled mutant has a record:
KILLED names the test function (module::name, under tests/) that fails
on it, EQUIVALENT says in one line why no test can.  Each mutant runs on
a copy of the tree: a killed one must fail its named test, an equivalent
one must pass every test of TESTS.  The check fails on a mutant without
a record, on a survivor, and on an equivalent mutant that a test now
kills (its record is then stale).  Editing two_way.py can move the
sample; the check then names the unrecorded mutants and what kills them.

Run from anywhere (about 30 s on 2 cores): python3 tests/mutants.py
"""

from __future__ import annotations

import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src/loccdist/two_way.py")
TESTS = ("tests/test_two_way.py", "tests/test_separable.py", "tests/test_cli.py")
SEED = 0
SAMPLE = 18
FORCED = ("_supports &#0", "_column_ratios >#0", "table_layout triu#0")

KILLED = {
    "_supports &#0": "test_two_way::test_closed_form_counts_the_protocol_outcomes",
    "_column_ratios >#0": "test_two_way::test_a_column_is_live_above_one_denom_tol_per_outcome",
    "table_layout triu#0": "test_two_way::test_delta_validation",
    "_accept_vectors int#0": "test_two_way::test_build_T_trivial_first_measurement",
    "wilson_interval +#3": "test_two_way::test_simulate_mixed_matches_trace",
    "trace_T_batch *#0": "test_two_way::test_closed_form_hand_arithmetic",
    "one_way_table float#0": "test_two_way::test_delta_constructors",
    "_column_ratios /#0": "test_two_way::test_closed_form_hand_arithmetic",
    "trace_T_closed_form int#0": "test_two_way::test_closed_form_single_outcome",
    "trace_T_batch float#1": "test_two_way::test_objective_gradient_matches_finite_differences",
    "accept_reads float#1":
        "test_separable::test_verify_protocols_read_as_one_stack_are_each_form_alone_bit_for_bit",
    "simulate_protocol /#0": "test_cli::test_verify_fails_on_a_scaled_bob_vector",
    "build_mub_basis int#1": "test_two_way::test_mub_balanced",
    "trace_T_batch int#7": "test_two_way::test_objective_gradient_matches_finite_differences",
    "protocol_stack int#8": "test_two_way::test_build_T_trivial_first_measurement",
    "_branch_probabilities int#8": "test_two_way::test_simulate_mixed_matches_trace",
    "table_layout int#0": "test_two_way::test_a_column_is_live_above_one_denom_tol_per_outcome",
    "trace_T_batch *#6": "test_two_way::test_objective_gradient_matches_finite_differences",
    "validity_defect int#0": "test_two_way::test_validity_defect_matches_its_loop_reference",
    "_fourier_stack *#0": "test_two_way::test_mub_balanced",
    "wilson_interval -#1": "test_two_way::test_simulate_mixed_matches_trace",
}

EQUIVALENT = {}  # none in the current sample; "name": "why no test can kill it"

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.BitAnd: "&"}


class Mutator(ast.NodeTransformer):
    """Walks a module in source order, naming every site; with target set,
    applies the mutation at that site."""

    def __init__(self, target: str | None = None):
        self.target, self.sites, self.scope, self.counts = target, [], ["<module>"], {}

    def site(self, op: str) -> bool:
        k = self.counts.get((self.scope[-1], op), 0)
        self.counts[(self.scope[-1], op)] = k + 1
        name = f"{self.scope[-1]} {op}#{k}"
        self.sites.append(name)
        return name == self.target

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS and self.site(SYMBOLS[type(op)]):
                node.ops[j] = SWAPS[type(op)]()
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        kind = type(node.op)
        if kind in SWAPS and self.site(SYMBOLS[kind]):
            node.op = SWAPS[kind]()
        elif kind is ast.BitAnd and self.site("&"):
            return node.left
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) is int and self.site("int"):
            node.value = value + 1
        elif type(value) is float and value and self.site("float"):  # 0.0 * 2 is no mutant
            node.value = value * 2.0
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if node.attr == "triu" and self.site("triu"):
            node.attr = "tril"
        return node


def mutant_source(source: str, target: str | None) -> str:
    """two_way.py with the named site mutated (unparsed as is for None)."""
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse(source))
    if target is not None and target not in mutator.sites:
        raise KeyError(f"no site {target!r} in {TARGET}")
    return ast.unparse(tree)


def sample(source: str) -> list[str]:
    mutator = Mutator()
    mutator.visit(ast.parse(source))
    rest = [name for name in mutator.sites if name not in FORCED]
    return list(FORCED) + random.Random(SEED).sample(rest, SAMPLE)


def run_tests(tree: Path, tests) -> tuple[int, str]:
    """pytest's exit code on tests in the copy, and its first failing test
    as module::name."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^(?:FAILED|ERROR) tests/(\w+)\.py::(\w+)", done.stdout, re.M)
    return done.returncode, "::".join(failed.groups()) if failed else ""


def main() -> int:
    source = (ROOT / TARGET).read_text()
    names = sample(source)
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        for part in ("src", "tests"):  # no bytecode: each mutant compiles from source
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("conftest.py", "pyproject.toml"):
            shutil.copy(ROOT / part, tree / part)
        (tree / TARGET).write_text(mutant_source(source, None))
        code, failed = run_tests(tree, TESTS)
        if code != 0:
            print(f"the unmutated tree fails {failed}", file=sys.stderr)
            return 1
        for name in names:
            (tree / TARGET).write_text(mutant_source(source, name))
            if name in KILLED:
                module, test = KILLED[name].split("::")
                code, _ = run_tests(tree, [f"tests/{module}.py::{test}"])
                verdict = "killed" if code in (1, 2) else f"SURVIVES {KILLED[name]}"
            else:
                code, failed = run_tests(tree, TESTS)
                if name in EQUIVALENT:
                    verdict = "equivalent" if code == 0 else f"KILLED by {failed}: stale record"
                else:
                    verdict = f"NO RECORD, killed by {failed}" if code else "NO RECORD, survives"
            print(f"{name:<28} {verdict}", flush=True)
            if verdict not in ("killed", "equivalent"):
                problems.append(name)
    print(f"{len(names)} mutants, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
