"""The two-way solve's outputs, pinned to the bit.

tests/data/solve_pins.json records, for every spectrum of solve_cases(),
the float.hex of t_value and certified_gap, the iteration count, the
convergence flag and the float.hex of every entry of the best table.  A
change to the Newton pass that moves any of them fails here, whether the
spectra are solved alone or as one batch.

The last bits depend on OpenBLAS's kernel, so the pins hold under one:
conftest.py selects KERNEL before numpy loads, and every pin test first
checks the kernel numpy's OpenBLAS reports.  Regenerate (only for a
deliberate change of the solver's results) with

    python tests/test_solve_pins.py
"""

import ctypes
import json
import os
import sys
from pathlib import Path

# The OpenBLAS kernel of the pins (SSE3, which every x86-64 CPU runs) and
# the core name OpenBLAS reports for it: the first of that kernel's aliases.
KERNEL, CORE_NAME = "Prescott", "Katmai"

if __name__ == "__main__":
    os.environ["OPENBLAS_CORETYPE"] = KERNEL  # before numpy loads

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run as a script

from loccdist.optimize import TOL, beta_two_way_upper, solve_spectra  # noqa: E402
from loccdist.states import parse_spectrum  # noqa: E402
from test_cli import fuzz_spectra  # noqa: E402

PINS = Path(__file__).with_name("data") / "solve_pins.json"


def solve_cases() -> list:
    """fuzz_spectra() plus two seeded Dirichlet spectra at each d = 2..10."""
    rng = np.random.default_rng(708)
    dirichlet = [
        ",".join(repr(float(x)) for x in np.sort(rng.dirichlet(np.ones(d)))[::-1])
        for d in range(2, 11)
        for _ in range(2)
    ]
    return fuzz_spectra() + dirichlet


def record(t_value, certified_gap, iterations, converged, table) -> dict:
    return {
        "t_value": float.hex(float(t_value)),
        "certified_gap": float.hex(float(certified_gap)),
        "iterations": int(iterations),
        "converged": bool(converged),
        "table": [[float.hex(float(x)) for x in row] for row in table],
    }


def result_record(result) -> dict:
    """The record of a beta_two_way_upper result."""
    return record(result.t_value, result.certified_gap, result.iterations, result.converged,
                  result.best_delta.table)


def blas_core_name() -> str | None:
    """The core name numpy's OpenBLAS reports, None for another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # its symbols include the BLAS's
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


@pytest.fixture(scope="module")
def pins():
    core = blas_core_name()
    if core != CORE_NAME:
        pytest.fail(
            f"the pins hold under OpenBLAS's {KERNEL} kernel (core name {CORE_NAME}), "
            f"numpy's BLAS reports {core}; conftest.py selects it by setting "
            f"OPENBLAS_CORETYPE={KERNEL} before numpy loads",
            pytrace=False,
        )
    return json.loads(PINS.read_text())


def test_pins_cover_the_cases(pins):
    assert list(pins) == solve_cases()


@pytest.mark.parametrize("schmidt", solve_cases())
def test_solve_alone_is_pinned(pins, schmidt):
    assert result_record(beta_two_way_upper(parse_spectrum(schmidt))) == pins[schmidt]


def test_solve_as_one_batch_is_pinned(pins):
    """Every case's checked spectrum as a row of one zero-padded array,
    solved a stack per effective rank (solve_spectra), gets its pinned
    record."""
    cases = solve_cases()
    spectra = [parse_spectrum(s) for s in cases]
    lams = np.zeros((len(cases), max(s.dim for s in spectra)))
    for row, s in zip(lams, spectra):
        row[: s.dim] = s.lambdas
    records = [None] * len(cases)
    for rows, solved in solve_spectra(lams, TOL):
        fields = (solved.t_values, solved.gaps, solved.iterations, solved.converged, solved.tables)
        for i, *row in zip(rows.tolist(), *fields):
            records[i] = record(*row)
    assert records == [pins[s] for s in cases]


if __name__ == "__main__":
    table = {s: result_record(beta_two_way_upper(parse_spectrum(s))) for s in solve_cases()}
    lines = [f"{json.dumps(s)}: {json.dumps(r)}" for s, r in table.items()]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} pins to {PINS}")
