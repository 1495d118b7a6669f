"""The three benchmark workloads: their inputs and per-call checks.

Each workload's inputs are a committed pool of CLI calls (reference.json),
grouped into strata: a family for `sweep`, a dimension for `bounds-random`,
a dimension and full or padded rank for `certify`.  Every stratum holds the
same number of entries.  One pass makes every pool call once, in cycles of
one call per stratum; the seed sets the order.  Every pass therefore does the
same work: per-input costs are heavy-tailed (optimiser iteration counts vary
fivefold within a stratum and can hit the cap), so a run on freshly drawn
inputs would measure the draw rather than the code.

A call's check returns a list of problems; an empty list means it passed.
Tolerances are those of the acceptance suite: a beta may not exceed the
seed commit's value for the same call, or break the ordering chain, by more
than 1e-9; a sweep must also pass criterion 6 (closed-form beta_sep to 1e-9,
endpoints to 1e-6, monotone to 1e-8).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FAMILIES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
SWEEP_POINTS = 12
BOUNDS_DIMS = (5, 6, 7, 8, 9, 10)
CERTIFY_DIMS = (8, 9)
PAD_RANKS = (2, 3, 4)
# Entries per stratum, sized so one pass takes 25 to 35 s at the seed commit.
POOL_SIZE = {"sweep": 2, "bounds-random": 4, "certify": 2}

BETA_TOL = 1e-9
SEP_CLOSED_TOL = 1e-9
ENDPOINT_TOL = 1e-6
MONOTONE_TOL = 1e-8
BETAS = ("beta_g", "beta_sep", "beta_two_way_upper", "beta_one_way")


@dataclass(frozen=True)
class Call:
    argv: list
    units: int
    check: Callable[[int, str], list]  # (exit code, stdout) -> problems


def format_spectrum(lam) -> str:
    """Comma-separated coefficients that parse back to the same floats."""
    return ",".join(repr(float(x)) for x in lam)


def dirichlet_spectrum(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Flat-Dirichlet coefficients on the first rank levels, zero-padded to dim."""
    lam = np.zeros(dim)
    lam[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
    return lam


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def chain_problems(b: dict) -> list:
    """The chain beta_g <= beta_sep <= beta_two_way <= beta_one_way, to 1e-9."""
    chain = [b[k] for k in BETAS]
    if any(lo > hi + BETA_TOL for lo, hi in zip(chain, chain[1:])):
        return [f"ordering chain broken: {chain}"]
    return []


def reference_problems(b: dict, ref: dict) -> list:
    return [
        f"{k} = {b[k]!r} exceeds reference {ref[k]!r}"
        for k in BETAS
        if b[k] > ref[k] + BETA_TOL
    ]


# --- sweep ---------------------------------------------------------------


def sweep_argv(family: str, seed: int, out: Path) -> list:
    return ["sweep", "--family", family, "--points", str(SWEEP_POINTS),
            "--out", str(out), "--seed", str(seed)]


def read_sweep_csv(path) -> list:
    """Rows of the sweep CSV as dicts with t and the four betas."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def sweep_problems(rows: list, entry: dict, family: dict) -> list:
    """Reference and criterion-6 checks for one family's sweep."""
    if len(rows) != len(family["t"]):
        return [f"{len(rows)} rows, expected {len(family['t'])}"]
    problems = []
    for row, want, t, closed in zip(rows, entry["rows"], family["t"],
                                    family["beta_sep_closed"]):
        if abs(row["t"] - t) > 1e-9:  # the CSV prints 9 significant digits
            problems.append(f"t = {row['t']!r}, expected {t!r}")
        problems += reference_problems(row, want) + chain_problems(row)
        if abs(row["beta_sep"] - closed) > SEP_CLOSED_TOL:
            problems.append(f"beta_sep misses its closed form at t = {t!r}")
    d = family["d"]
    if any(abs(rows[0][k] - 1.0 / d**2) > ENDPOINT_TOL for k in BETAS):
        problems.append("product endpoint is not 1/d^2")
    if family["max_entangled_end"] and any(
        abs(rows[-1][k] - 1.0 / d) > ENDPOINT_TOL for k in BETAS[1:]
    ):
        problems.append("maximally entangled endpoint is not 1/d")
    tw = [row["beta_two_way_upper"] for row in rows]
    if any(b2 < b1 - MONOTONE_TOL for b1, b2 in zip(tw, tw[1:])):
        problems.append("beta_two_way_upper is not monotone in t")
    return problems


def sweep_call(reference: dict, name: str, entry: dict, tmp: Path) -> Call:
    out = tmp / f"sweep-{name}.csv"

    def check(rc: int, stdout: str) -> list:
        if rc != 0:
            return [f"sweep exited {rc}"]
        family = reference["sweep"]["families"][name]
        return sweep_problems(read_sweep_csv(out), entry, family)

    return Call(sweep_argv(name, entry["seed"], out), SWEEP_POINTS, check)


# --- bounds-random -------------------------------------------------------


def bounds_call(reference: dict, name: str, entry: dict, tmp: Path) -> Call:
    def check(rc: int, stdout: str) -> list:
        if rc != 0:
            return [f"bounds exited {rc}"]
        report = json.loads(stdout.strip().splitlines()[-1])
        if report["beta_two_way_upper"] is None:
            return ["no two-way bound reported"]
        return reference_problems(report, entry) + chain_problems(report)

    return Call(["bounds", "--schmidt", entry["schmidt"]], 1, check)


# --- certify -------------------------------------------------------------


def verify_argv(entry: dict) -> list:
    return ["verify", "--schmidt", entry["schmidt"], "--seed", str(entry["seed"])]


def certify_call(reference: dict, name: str, entry: dict, tmp: Path) -> Call:
    def check(rc: int, stdout: str) -> list:
        return [] if rc == 0 else [f"verify exited {rc}: {stdout.strip()}"]

    return Call(verify_argv(entry), 1, check)


MAKE_CALL = {"sweep": sweep_call, "bounds-random": bounds_call, "certify": certify_call}


def passes(workload: str, rng: np.random.Generator, reference: dict, tmp: Path):
    """Endless passes over the workload's pool, each a list of calls.

    Cycle c of a pass makes entry order[s][c] of every stratum s, the strata
    in a fresh seeded order; each pass draws new orders.
    """
    strata = reference[workload]["strata"]
    names = sorted(strata)
    make = MAKE_CALL[workload]
    size = len(strata[names[0]])
    while True:
        order = {s: rng.permutation(size) for s in names}
        yield [
            make(reference, names[i], strata[names[i]][order[names[i]][c]], tmp)
            for c in range(size)
            for i in rng.permutation(len(names))
        ]


def warmup_argv(workload: str, tmp: Path) -> list:
    """One small call of the workload's command, made before timing starts."""
    if workload == "sweep":
        return ["sweep", "--family", "fig2", "--points", "3",
                "--out", str(tmp / "warmup.csv")]
    if workload == "bounds-random":
        return ["bounds", "--schmidt", "0.4,0.3,0.2,0.1"]
    # Rank 7 is the smallest that makes simulate_protocol work on D = 49,
    # where the first call in a process can stall while BLAS threads start.
    return ["verify", "--schmidt", format_spectrum(np.arange(7, 0, -1) / 28)]
