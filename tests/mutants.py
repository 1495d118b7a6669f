"""Mutation check of a module of src/loccdist against the tests that read it.

A mutant changes one site of the module: a comparison < <= > >= swapped
with its non-strict or strict twin, + with -, * with /, an int constant
plus 1, a nonzero float constant times 2, a mask term a & b cut to a, or
np.triu turned into np.tril.  A site is named "function op#k", the k-th
site of that op in that function in source order ("<module>" outside any
def).

Each TARGETS entry samples one module: its forced mutants plus SAMPLE
sites drawn with random.Random(SEED) from the rest of its sites, or of
the sites in its scope functions when it names some.  Each sampled mutant
has a record: killed names the test function (module::name, under
tests/) that fails on it, equivalent says in one line why no test can.
Each mutant runs on a copy of the tree: a killed one must fail its named
test, an equivalent one must pass every test of the target's tests.  A
run cut off after TIMEOUT_S kills nothing.  The check fails on a mutant
without a record, on a survivor, and on an equivalent mutant that a test
now kills (its record is then stale).
Editing a module can move its sample; the check then names the
unrecorded mutants and what kills them.

Run from anywhere, one target at a time:

    python3 tests/mutants.py two_way    # about 30 s on 2 cores
    python3 tests/mutants.py optimize   # about 25 s on 2 cores
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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SAMPLE = 18  # sites drawn per target besides its forced mutants
# A run cut off after this long: a mutated barrier can halve its step
# forever.  The unmutated test files take about 6 s.
TIMEOUT_S = 60


class Target(NamedTuple):
    path: Path  # the mutated module, relative to the root
    tests: tuple  # the test files an unrecorded or equivalent mutant runs
    scope: tuple  # the functions whose sites are sampled; () for the whole module
    forced: tuple  # mutants always run
    killed: dict  # mutant -> "test_module::test_name" that fails on it
    equivalent: dict  # mutant -> why no test can kill it


TARGETS = {
    "two_way": Target(
        Path("src/loccdist/two_way.py"),
        ("tests/test_two_way.py", "tests/test_separable.py", "tests/test_cli.py"),
        (),
        # The live gate of the support rule, the gate's strict threshold
        # and the table mask.
        ("_supports &#0", "_live_columns >#0", "table_layout triu#0"),
        {
            "_supports &#0": "test_two_way::test_closed_form_counts_the_protocol_outcomes",
            "_live_columns >#0":
                "test_two_way::test_a_column_is_live_above_one_denom_tol_per_outcome",
            "table_layout triu#0": "test_two_way::test_delta_validation",
            "protocol_stack int#9": "test_two_way::test_build_T_trivial_first_measurement",
            "wilson_interval /#4": "test_two_way::test_wilson_interval_ends_solve_the_score_equation",
            "accept_reads float#0":
                "test_separable::test_verify_protocols_read_as_one_stack_are_each_form_alone_bit_for_bit",
            "one_way_table float#0": "test_two_way::test_delta_constructors",
            "pair_factors *#0": "test_two_way::test_objective_gradient_matches_finite_differences",
            "trace_T_entries int#9":
                "test_two_way::test_objective_gradient_matches_finite_differences",
            "trace_T_entries *#3": "test_two_way::test_objective_gradient_matches_finite_differences",
            "protocol_stack >#0": "test_two_way::test_build_T_trivial_first_measurement",
            "wilson_interval +#2": "test_two_way::test_simulate_type_one_error_is_zero",
            "simulate_protocol /#1": "test_two_way::test_simulate_type_one_error_is_zero",
            "_fourier_stack +#0": "test_two_way::test_mub_balanced",
            "trace_T_entries *#2": "test_two_way::test_objective_gradient_matches_finite_differences",
            "protocol_stack -#0": "test_two_way::test_build_T_trivial_first_measurement",
            "_branch_probabilities *#3": "test_two_way::test_simulate_type_one_error_is_zero",
            "table_layout float#1": "test_two_way::test_closed_form_hand_arithmetic",
            "trace_T_entries -#1": "test_two_way::test_objective_gradient_matches_finite_differences",
            "validity_defect int#0": "test_two_way::test_validity_defect_matches_its_loop_reference",
            "_column_ratios /#0": "test_two_way::test_closed_form_hand_arithmetic",
        },
        {},
    ),
    "optimize": Target(
        Path("src/loccdist/optimize.py"),
        ("tests/test_optimize.py", "tests/test_batch.py", "tests/test_solve_pins.py"),
        ("_barrier_newton", "newton", "step_cap", "solve_stack", "top_ties", "face_tables",
         "row_multipliers", "dual_bound"),
        # The finish: its threshold FINISH_GAP, its guard min x**2 >=
        # max(w, gap / 20) (the square and the gap term) and the cap test
        # that returns a row to its weight w.  The face solve: the tie
        # tolerance, the column weight r + j, the expansion's column
        # offset, the root, and dual_bound's water-filling level.
        ("<module> float#3", "_barrier_newton *#5", "_barrier_newton /#0", "_barrier_newton <#0",
         "<module> float#4", "face_tables +#1", "face_tables -#10", "face_tables -#5",
         "dual_bound -#0"),
        {
            # A larger threshold is no worse on pass counts (the guard's
            # gap term holds the rows it would let through), so only the
            # pinned pass counts and bits see it.
            "<module> float#3": "test_solve_pins::test_solve_alone_is_pinned",
            "_barrier_newton *#5": "test_optimize::test_no_hard_case_finishes_near_the_boundary",
            "_barrier_newton /#0": "test_optimize::test_the_finish_cuts_the_passes_at_the_floor",
            "_barrier_newton <#0": "test_optimize::test_the_finish_cuts_the_passes_at_the_floor",
            "<module> float#4": "test_optimize::test_the_tie_tolerance_is_relative_to_the_top_level",
            "face_tables +#1": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "face_tables -#10": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "face_tables -#5": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "dual_bound -#0": "test_optimize::test_the_dual_bound_lies_below_every_value",
            "face_tables *#3": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "solve_stack int#8": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "face_tables /#3": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            # A doubled in the KKT systems: 2 A dx = 0 is A dx = 0, so only
            # the rounding of dx moves.
            "_barrier_newton float#0": "test_solve_pins::test_solve_alone_is_pinned",
            "_barrier_newton float#6":
                "test_optimize::test_every_damped_step_is_accepted_after_a_few_halvings",
            "face_tables +#7": "test_optimize::test_no_value_lies_below_the_separable_bound",
            "face_tables int#16": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "face_tables -#6": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "solve_stack *#1": "test_optimize::test_two_outcome_rows_are_solved_in_closed_form",
            "face_tables int#2": "test_optimize::test_no_value_lies_below_the_separable_bound",
            "face_tables int#15": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "face_tables /#0": "test_optimize::test_a_top_tie_is_solved_on_its_face",
            "row_multipliers int#1": "test_optimize::test_no_value_lies_below_the_separable_bound",
            "_barrier_newton *#9": "test_optimize::test_rank_one_spectra_need_no_newton_step",
            "face_tables int#19": "test_optimize::test_no_value_lies_below_the_separable_bound",
            "_barrier_newton -#0":
                "test_optimize::test_barrier_solve_of_two_outcome_rows_meets_the_analytic_value",
            "top_ties int#1": "test_optimize::test_rank_one_spectra_need_no_newton_step",
            "solve_stack &#0":
                "test_optimize::test_a_tied_row_that_misses_tol_is_solved_by_the_barrier",
        },
        {},
    ),
}

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
    """The module with the named site mutated (unparsed as is for None)."""
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse(source))
    if target is not None and target not in mutator.sites:
        raise KeyError(f"no site {target!r}")
    return ast.unparse(tree)


def sample(source: str, target: Target) -> list[str]:
    mutator = Mutator()
    mutator.visit(ast.parse(source))
    sites = [n for n in mutator.sites if not target.scope or n.split()[0] in target.scope]
    rest = [name for name in sites if name not in target.forced]
    return list(target.forced) + random.Random(SEED).sample(rest, SAMPLE)


def run_tests(tree: Path, tests) -> tuple[int | None, str]:
    """pytest's exit code on tests in the copy, and its first failing test
    as module::name ("" for none); a run cut off after TIMEOUT_S returns
    code None."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    failed = re.search(r"^(?:FAILED|ERROR) tests/(\w+)\.py::(\w+)", done.stdout, re.M)
    return done.returncode, "::".join(failed.groups()) if failed else ""


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in TARGETS:
        print(f"usage: python3 tests/mutants.py {{{','.join(TARGETS)}}}", file=sys.stderr)
        return 2
    target = TARGETS[argv[0]]
    source = (ROOT / target.path).read_text()
    names = sample(source, target)
    problems = []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        for part in ("src", "tests"):  # no bytecode: each mutant compiles from source
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("conftest.py", "pyproject.toml", "perfbench/reference.json"):
            (tree / part).parent.mkdir(exist_ok=True)
            shutil.copy(ROOT / part, tree / part)
        (tree / target.path).write_text(mutant_source(source, None))
        code, failed = run_tests(tree, target.tests)
        if code != 0:
            print(f"the unmutated tree fails {failed}", file=sys.stderr)
            return 1
        for name in names:
            (tree / target.path).write_text(mutant_source(source, name))
            record = target.killed.get(name)
            tests = [f"tests/{record.replace('::', '.py::')}"] if record else target.tests
            code, failed = run_tests(tree, tests)
            if code is None:
                verdict = f"CUT OFF after {TIMEOUT_S} s"
            elif record:
                verdict = "killed" if code in (1, 2) else f"SURVIVES {record}"
            elif name in target.equivalent:
                verdict = "equivalent" if code == 0 else f"KILLED by {failed}: stale record"
            else:
                verdict = f"NO RECORD, killed by {failed}" if code else "NO RECORD, survives"
            print(f"{name:<28} {verdict}", flush=True)
            if verdict not in ("killed", "equivalent"):
                problems.append(name)
    print(f"{len(names)} mutants of {target.path}, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
