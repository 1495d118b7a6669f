"""Command-line front end.

Subcommands:
  bounds    per-state bound report as flat JSON on stdout
  sweep     CSV of the bounds along a spectrum family
  optimize  two-way bound minimisation details, optionally grid-checked
  verify    self-checks of the constructions for one spectrum

Exit codes: 0 success, 1 verification failure, 2 unparseable input,
3 bound-ordering violation.  Diagnostics go to stderr; results to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bounds import _delta_strings, embedding_dim, pure_state_report
from .families import SWEEP_HEADER, check_points, get_family, sweep_line, sweep_rows
from .one_way import one_way_test_form
from .operators import eig_hermitian
from .optimize import TOL, beta_two_way_upper, check_tol, grid_oracle, grid_size
from .separable import (
    beta_sep_pure,
    build_optimal_separable_povm,
    certificate_deviation,
    optimal_test_entries,
    verify_appendix_identity,
)
from .states import SchmidtSpectrum, parse_spectrum
from .two_way import (
    MAX_SAMPLES,
    TwoWayProtocol,
    accept_reads,
    check_tables,
    protocol_stack,
    random_tables,
    simulate_protocol,
    trace_T_closed_form,
    uniform_table,
    wilson_interval,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3

SEED_HELP = "accepted and ignored: the two-way solve is deterministic"

# Most Schmidt coefficients (or family terms) an input may have.  On
# 2 vCPUs a two-way solve takes about 0.05-0.06 s at 32 (d = 16: 4 ms)
# and verify about 80 ms (d = 16: 6-7 ms), the solve included;
# verify reads d x d blocks and factor vectors only, and its traced memory
# peaks at about 12.8 MiB at 32 once the package's caches are warm (14.3
# MiB on a process's first call), below one D x D complex matrix (16 MiB).
# The solve grows as about d**4 beyond that (d = 48: 0.4-0.6 s), and at
# d = 200 the first KKT system alone would take 3.3 GB.
MAX_LEVELS = 32


def _split_pair(text: str, form: str) -> list[str]:
    """The two comma-separated values of a flag; form names them in the
    message, e.g. "dims must be 'dA,dB'"."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{form}, got {text!r}")
    return parts


def _parse_dims(text: str):
    dA, dB = (int(p) for p in _split_pair(text, "dims must be 'dA,dB'"))
    if dA < 1 or dB < 1:
        raise ValueError("dims must be positive")
    return dA, dB


def _check_levels(count: int, what: str) -> None:
    if count > MAX_LEVELS:
        raise ValueError(f"{what} has {count} coefficients; at most {MAX_LEVELS} are accepted")


def _parse_capped(text: str) -> SchmidtSpectrum:
    s = parse_spectrum(text)
    _check_levels(s.dim, "spectrum")
    return s


def check_bounds(args):
    s = _parse_capped(args.schmidt)
    dims = _parse_dims(args.dims) if args.dims else None
    embedding_dim(s, dims)
    return s, dims


def cmd_bounds(s, dims) -> int:
    report = pure_state_report(s, dims=dims)
    print(json.dumps(report.to_dict()))
    if not report.ordering_ok():
        print("error: bound ordering violated", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def check_sweep(args):
    t_range = _split_pair(args.range, "range must be 'lo,hi'") if args.range else None
    family = get_family(args.family, t_range)
    _check_levels(family.d, "family")
    check_points(args.points)
    # Fail on an unwritable --out now, not after every row is computed.
    open(args.out, "a").close()
    return family, args.points, args.out


def cmd_sweep(family, points, out) -> int:
    """Write each row as it is solved; the ordering check runs after the
    last row.  A write that fails (a full disk, say) ends in exit 2 with
    one `error:` line, as an unwritable --out does before any work."""
    rows, ordered = 0, True
    try:
        with open(out, "w") as fh:
            fh.write(SWEEP_HEADER)
            for t, report in sweep_rows(family, points):
                fh.write(sweep_line(t, report))
                rows += 1
                ordered = ordered and report.ordering_ok()
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {rows} rows to {out}", file=sys.stderr)
    if not ordered:
        print("error: bound ordering violated in sweep", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def check_optimize(args):
    s = _parse_capped(args.schmidt)
    check_tol(args.tol)
    if args.grid_step is not None:
        grid_size(s.rank, args.grid_step)
    return s, args.tol, args.grid_step


def cmd_optimize(s, tol, grid_step) -> int:
    result = beta_two_way_upper(s, tol)
    payload = {
        "beta_two_way_upper": result.beta_value,
        "t_value": result.t_value,
        "D": result.D,
        "delta": _delta_strings(result.best_delta.table[None])[0],
        "method": result.method,
        "iterations": result.iterations,
        "converged": result.converged,
        "certified_gap": result.certified_gap,
    }
    if grid_step is not None:
        oracle = grid_oracle(s, grid_step)
        payload["grid_beta"] = oracle.beta_value
        payload["grid_gap"] = result.beta_value - oracle.beta_value
    print(json.dumps(payload))
    return EXIT_OK


def _verify_checks(s, mc_samples: int, seed: int):
    """Yield (name, deviation, tolerance) triples for one spectrum.

    Every check reads d x d blocks or factor vectors: each certificate and
    protocol through its SeparableForm's kernels, the separable pair through
    separable.certificate_deviation, and the separable test's spectrum
    through its certificate's phase-invariant entries.  No D x D product,
    eigensolve or assembly runs.  The separable checks' arrays are freed
    before the protocols are built."""
    yield from _separable_checks(s)
    yield from _two_way_checks(s, mc_samples, seed)


def _separable_checks(s):
    """The checks of the optimal separable test and the one-way test.  The
    pair, T's closed-form entries, T_form's invariant entries and the
    appendix identity are each computed once, for every check reading them."""
    dim = s.dim
    pair = build_optimal_separable_povm(s)
    target = optimal_test_entries(s)
    appendix = verify_appendix_identity(s, pair, target)
    yield "appendix-identity", appendix, 1e-9

    entries = block, diag = pair.T_form.invariant_entries()
    w, _ = eig_hermitian(block)
    # T is the block on span{|jj>} plus the scalars <jk|T|jk>, j != k: its
    # other entries average to 0 on the Sidon grid (separable-form-assembly).
    spectrum = np.concatenate([w, diag[~np.eye(dim, dtype=bool)]])
    yield "povm-element-range", max(0.0, -spectrum.min(), spectrum.max() - 1.0), 1e-9
    yield "perfect-detection-sep", abs(pair.T_form.schmidt_expectation(s.lambdas) - 1.0), 1e-10
    yield "trace-formula-sep", abs(pair.T_form.trace() - beta_sep_pure(s) * dim**2), 1e-10
    yield "separable-form-assembly", certificate_deviation(pair, target, entries, appendix), 1e-9
    certificates = (pair.T_form, pair.complement_form)
    yield "separable-form-psd", max(0.0, -min(f.min_term_eigenvalue() for f in certificates)), 1e-10

    one_way = one_way_test_form(s)
    yield "perfect-detection-one-way", abs(one_way.schmidt_expectation(s.lambdas) - 1.0), 1e-10


def _two_way_checks(s, mc_samples: int, seed: int):
    """The checks of the three-step protocol on four oracle tables (uniform
    and three seeded random ones, drawn in one call) and on the optimal
    table.  The oracle tables are checked as one stack, and all five
    protocols are built and read as one."""
    d = s.rank
    lam = s.effective
    seeded = random_tables(3, d, np.random.default_rng(seed))
    oracle = check_tables(np.concatenate([uniform_table(d)[None], seeded]))
    result = beta_two_way_upper(s)
    tables = np.concatenate([oracle, result.best_delta.table[None]])
    outcomes, bob, alice = protocol_stack(lam, tables)
    traces, detections = accept_reads(lam, tables, bob, alice)
    closed = trace_T_closed_form(lam, oracle)
    yield "two-way-trace-oracle", float(np.abs(traces[:-1] - closed).max()), 1e-9
    yield "two-way-perfect-detection", float(np.abs(detections[:-1] - 1.0).max()), 1e-9

    yield "two-way-optimal-trace", abs(float(traces[-1]) - result.t_value), 1e-9
    yield "two-way-optimal-detection", abs(float(detections[-1]) - 1.0), 1e-9
    protocol = TwoWayProtocol(s, result.best_delta, outcomes[-1], bob[-1], alice[-1])
    yield "two-way-optimal-validity", protocol.validity_defect(), 1e-9
    rate_psi, _ = simulate_protocol(protocol, "psi", mc_samples, seed)
    yield "monte-carlo-type-1", abs(rate_psi - 1.0), 0.0
    rate_mix, _ = simulate_protocol(protocol, "mixed", mc_samples, seed + 1)
    beta = result.t_value / d**2
    accepted = min(round(rate_mix * mc_samples), mc_samples)  # the float product can exceed n
    lo, hi = wilson_interval(accepted, mc_samples, z=3.0)
    yield "monte-carlo-type-2", abs(rate_mix - beta), max(hi - lo, 1e-12)


def check_verify(args):
    s = _parse_capped(args.schmidt)
    if not 1 <= args.mc_samples <= MAX_SAMPLES:
        raise ValueError(f"--mc-samples must be between 1 and {MAX_SAMPLES}")
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer")
    return s, args.mc_samples, args.seed


def cmd_verify(s, mc_samples, seed) -> int:
    lines, failures = [], 0
    for name, dev, tol in _verify_checks(s, mc_samples, seed):
        ok = dev <= tol
        failures += 0 if ok else 1
        lines.append(f"{name:<28s} deviation={dev:.3e}  {'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccdist",
        description="Local-discrimination error bounds against white noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="report the four bounds for one spectrum")
    p.add_argument("--schmidt", required=True, help="comma-separated Schmidt coefficients")
    p.add_argument("--dims", help="override embedding as 'dA,dB'")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.set_defaults(check=check_bounds, run=cmd_bounds)

    p = sub.add_parser("sweep", help="CSV sweep over a spectrum family")
    p.add_argument("--family", required=True, help="fig1..fig6 or 'a+bt,...' expression")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--range", help="t range 'lo,hi' (custom families)")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.set_defaults(check=check_sweep, run=cmd_sweep)

    p = sub.add_parser("optimize", help="minimise the two-way bound for one spectrum")
    p.add_argument("--schmidt", required=True)
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.set_defaults(check=check_optimize, run=cmd_optimize)

    p = sub.add_parser("verify", help="run construction self-checks for one spectrum")
    p.add_argument("--schmidt", required=True)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(check=check_verify, run=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One per process: a fresh parser per main() call leaves ~200 objects in
    # reference cycles, which pile up when one process calls main() often.
    return build_parser()


def main(argv=None) -> int:
    """Parse argv, check every input of the command, then run it.

    Each command's check turns its arguments into validated inputs; any
    error it raises, or a --out that cannot be opened, ends in exit 2 with
    one `error:` line, before any work is done.
    """
    args = _parser().parse_args(argv)
    try:
        inputs = args.check(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return args.run(*inputs)


if __name__ == "__main__":
    raise SystemExit(main())
