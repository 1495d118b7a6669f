"""The stacked two-way solve gives every spectrum its stack-of-one result.

optimize.solve_stack is the one engine: beta_two_way_upper is solve_stack
on a stack of one, and a sweep solves its points a stack per (chunk,
effective rank); neither the other rows of a stack nor their order may
change any bit of a row's result.  families.sweep_rows bounds each stack
to stack_size(d) rows, and stack_size does not grow with d.
"""

import tracemalloc

import numpy as np
import pytest

from loccdist import families, optimize
from loccdist.bounds import pure_state_report, pure_state_reports
from loccdist.families import BUILTIN_FAMILIES, parse_family, sweep, sweep_rows
from loccdist.optimize import (
    BATCH_BYTES,
    TOL,
    StackSolve,
    _barrier_newton,
    _clean,
    _item_bytes,
    beta_two_way_qubit_analytic,
    solve_stack,
    stack_size,
)
from loccdist.states import SchmidtSpectrum, check_spectra
from loccdist.two_way import trace_T_closed_form


def stack(d: int, rng: np.random.Generator) -> np.ndarray:
    """An (n, d) stack of effective spectra of rank d: random, tied,
    exactly uniform, with a 1e-11 level and one taken from a zero-padded
    spectrum."""
    random = [rng.dirichlet(np.ones(d)) for _ in range(2)]
    tied = np.repeat(rng.dirichlet(np.ones(2)), [d - d // 2, d // 2])
    uniform = np.full(d, 1.0 / d)
    tiny = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - 1e-11), 1e-11) if d > 1 else uniform
    padded = np.concatenate([rng.dirichlet(np.ones(d)), [0.0, 0.0]])
    lams = random + [tied / tied.sum(), uniform, tiny, padded]
    return np.stack([SchmidtSpectrum(np.sort(lam)[::-1]).effective for lam in lams])


def barrier_meets_analytic(lam: np.ndarray) -> None:
    """The barrier solve, run directly on an (n, 2) stack of two-outcome
    spectra, certifies each row to TOL, and its value lies within that
    certified gap above the exact minimum (and no further below it than
    rounding)."""
    tables, passes, gaps = _barrier_newton(lam, TOL)
    excess = trace_T_closed_form(lam, _clean(tables)) - [
        4 * beta_two_way_qubit_analytic(l)[0] for l in lam[:, 1].tolist()
    ]
    assert (gaps <= TOL).all() and (passes > 1).all()
    assert (excess >= -1e-15).all() and (excess <= gaps).all()


def rows(solved: StackSolve) -> list:
    """Each row of a StackSolve, as a StackSolve of its row's values."""
    return [StackSolve(*row) for row in zip(*solved)]


def same(a, b) -> bool:
    """Two rows of StackSolves agree in every field, bit for bit."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def alone(lam: np.ndarray) -> list:
    """Each row of lam solved as a stack of one."""
    return [rows(solve_stack(lam[i : i + 1], TOL))[0] for i in range(len(lam))]


@pytest.mark.parametrize("d", range(1, 11))
def test_batch_matches_batch_of_one(d):
    rng = np.random.default_rng(100 + d)
    lam = stack(d, rng)
    assert lam.shape[1] == d
    single = alone(lam)
    assert all(same(a, b) for a, b in zip(rows(solve_stack(lam, TOL)), single))
    order = rng.permutation(len(lam))
    permuted = rows(solve_stack(lam[order], TOL))
    assert all(same(r, single[i]) for r, i in zip(permuted, order))
    fewer = rows(solve_stack(lam[1:], TOL))
    assert all(same(a, b) for a, b in zip(fewer, single[1:]))


def test_batch_matches_batch_of_one_at_the_iteration_cap(monkeypatch):
    """With MAX_ITERS lowered to the pass at which one spectrum finishes,
    some spectra finish on the last pass and others not at all; each keeps
    its stack-of-one table, iteration count and gap."""
    lam = stack(4, np.random.default_rng(9))
    passes = sorted(r.iterations for r in alone(lam))
    monkeypatch.setattr(optimize, "MAX_ITERS", passes[len(passes) // 2])
    single = alone(lam)
    assert any(r.converged for r in single) and not all(r.converged for r in single)
    assert all(same(a, b) for a, b in zip(rows(solve_stack(lam, TOL)), single))


def test_batch_of_exactly_kkt_size():
    """m + d spectra, the size at which a 2-D right-hand side of the stacked
    KKT solve would be read as one matrix."""
    d = 5
    size = d * (d + 1) // 2 + d
    rng = np.random.default_rng(7)
    lam = np.sort(rng.dirichlet(np.ones(d), size=size), axis=1)[:, ::-1].copy()
    solved = rows(solve_stack(lam, TOL))
    assert len(solved) == size
    assert all(same(a, b) for a, b in zip(solved, alone(lam)))


def test_pure_state_reports_span_ranks():
    """Mixed effective ranks come back in input order, each report the
    pure_state_report of its spectrum alone, with a rank-10 group larger
    than stack_size(10) solved as one stack."""
    d = 10
    assert stack_size(d) < 12
    rng = np.random.default_rng(11)
    raw = [np.sort(rng.dirichlet(np.ones(d)))[::-1] for _ in range(12)]
    raw.insert(5, np.array([0.6, 0.4] + [0.0] * (d - 2)))
    raw.insert(0, np.array([1.0] + [0.0] * (d - 1)))
    reports = pure_state_reports(check_spectra(np.stack(raw)))
    assert [len(r.delta_star.split(",")) for r in reports] == [1, *[55] * 5, 3, *[55] * 7]
    assert reports == [pure_state_report(SchmidtSpectrum(lam)) for lam in raw]


def test_two_outcome_batch_matches_analytic():
    """One stacked barrier solve of two-outcome rows, the uniform pair and a
    1e-11 level among them, meets the exact value on every row."""
    rng = np.random.default_rng(3)
    second = np.concatenate([[0.5, 1e-11, 0.125], rng.uniform(0.0, 0.5, 20)])
    barrier_meets_analytic(np.stack([1.0 - second, second], axis=1))


@pytest.mark.parametrize("family", [*BUILTIN_FAMILIES.values(), parse_family("1-2t,t,t", (0, 1 / 3))])
def test_sweep_rows_are_pure_state_reports(family):
    for t, report in sweep(family, 13):
        lam = np.clip(family.coefficients(t), 0.0, None)  # the point's spectrum, checked once
        assert report == pure_state_report(SchmidtSpectrum(lam))


@pytest.mark.parametrize("chunk", [1, 4, 12])
def test_sweep_rows_are_the_same_in_any_chunking(monkeypatch, chunk):
    """sweep_rows solves the grid a stack at a time in t order; how the
    points fall into stacks moves no bit of any row."""
    family = BUILTIN_FAMILIES["fig5"]
    whole = sweep(family, 13)
    monkeypatch.setattr(families, "stack_size", lambda d: chunk)
    rows = list(sweep_rows(family, 13))
    assert rows == whole
    assert [t for t, _ in rows] == sorted(t for t, _ in rows)


def test_stack_size_does_not_grow_with_d():
    """A chunk of stack_size(d) points therefore fits one stack at every
    effective rank r <= d, so solve_spectra need not split it."""
    sizes = [stack_size(d) for d in range(1, 33)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] >= 1


def test_sweep_solves_one_stack_per_chunk_and_rank(monkeypatch):
    """A 400-point 8-level sweep calls solve_stack once per (chunk, rank),
    and no stack holds more than stack_size(8) rows."""
    family = parse_family("1-7t,t,t,t,t,t,t,t", (0.0, 0.125))
    calls, solve = [], optimize.solve_stack

    def counted(lam, tol):
        calls.append(lam.shape)
        return solve(lam, tol)

    monkeypatch.setattr(optimize, "solve_stack", counted)
    points, size = 400, stack_size(8)
    grid = family.grid(points)
    expected = sum(
        len(set(np.count_nonzero(family.spectra_array(grid[lo : lo + size]), axis=1).tolist()))
        for lo in range(0, points, size)
    )
    assert len(sweep(family, points)) == points
    assert len(calls) == expected
    assert max(n for n, _ in calls) <= size
    assert sum(n for n, _ in calls) == points


@pytest.mark.parametrize("d", range(1, 11))
def test_full_stack_peak_is_within_its_budget(d):
    """_item_bytes(d) bounds what each spectrum of a full stack adds to the
    solve's peak memory, so one stack holds at most BATCH_BYTES."""
    rng = np.random.default_rng(40 + d)
    n = stack_size(d)
    lam = np.sort(rng.dirichlet(np.ones(d), size=n), axis=1)[:, ::-1].copy()
    _barrier_newton(lam[:2], TOL)  # one-time caches do not count
    tracemalloc.start()
    try:
        _barrier_newton(lam, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * _item_bytes(d) <= BATCH_BYTES


def test_sweep_memory_is_bounded():
    """sweep_rows solves in stacks of at most stack_size(d) points, so a
    long sweep's peak memory stays near a short one's."""
    family = parse_family("1-7t,t,t,t,t,t,t,t", (0.0, 0.125))
    peaks = []
    for points in (50, 400):
        tracemalloc.start()
        try:
            sweep(family, points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
