"""Minimisation of the three-step protocol's error over feasible tables.

The objective

    t(delta) = sum_i i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(two_way.trace_T_batch) is minimised over a product of row simplices (one
simplex per level k, spread over outcomes i >= k).  It is convex: column
i's term is ||diag(sqrt l) x||**2 / (l . x) for the column x, a
quadratic-over-linear function of a linear map (Boyd & Vandenberghe,
Convex Optimization, 3.1.5 and 3.2.2), extended by its limit 0 where the
column is empty, where it has a kink.

Where no closed form applies (below), beta_two_way_upper is one
deterministic log-barrier Newton solve (ibid., ch. 11) whose iterates
stay strictly interior, away from those kinks.  It stops when the
Frank-Wolfe gap sum_k (sum_i g_ki x_ki - min_i g_ki) is at most the
tolerance; by convexity that gap bounds how far the value lies above the
minimum (Jaggi, ICML 2013), and it is reported as certified_gap.

The barrier weight t starts at 1 and moves only through the certificate:
after every gap it is raised to at least GAP_FLOOR * m / gap, m = d (d + 1)
/ 2 being the number of log terms.  The centre for weight t lies at most
m / t above the minimum (ibid., 11.2.2), so a weight below m / gap aims at
a point the certificate has already passed.  The floor alone also makes
the solve converge: at the exact centre for weight t, row k's gap is
(n_k - 1 / max_i x_ki) / t for its n_k free entries, so the total gap is at
most (m - d) / t.  Newton steps at a fixed t therefore push the gap below
m / t, and the floor then raises t more than GAP_FLOOR-fold.  (After 200
Newton steps at a fixed t, for d = 3, 5, 8 and t = 10, 1e3, 1e6,
gap * t / (m - d) read between 0.1 and 0.6.)  So every pass does the
same: the gap of each row, retiring the rows that are done, the floor,
and one damped Newton step.

GAP_FLOOR is 15, inside the usual 10 to 20 for the multiplier of t
(ibid., 11.3.3, on choosing mu): a larger jump in t takes fewer passes
until the steps after a jump no longer keep up.  Over floors 5, 8, 10,
12, 15, 18, 20 and 30, perfbench's bounds-random spectra (Dirichlet at
d = 5..10) take 13.0, 11.8, 11.2, 11.0, 10.6, 10.3, 10.2 and 9.9 passes
on average, but their slowest takes 17 at 30 (14 at 15, 18 at 5), and the
slowest rank >= 3 spectrum of the certify pool takes 18 at 20 (12 at 15
and 18, 14 at 5); 15 keeps clear of both.  From 5 to 15, Dirichlet
spectra at d = 16..32 go from about 18 to 14 passes; two-level tied
spectra gain least (27.4 to 26.0 on average, their slowest 37 to 38).
The extra calls per second raise perfbench's peak RSS, which keeps a
record per call, by at most about 2% in the median (bounds-random: 46.0
to 47.0 MB; sweep +1.1%, certify +0.4%), inside the benchmark's 5%
bound.

solve_stack is the one engine: it solves a stack of spectra that share
an effective rank (beta_two_way_upper is a stack of one, and a sweep
solves its points in such stacks through solve_spectra): each Newton step
is one stacked KKT solve, and the barrier weight, fraction to the
boundary and Armijo halving are kept per spectrum.  A spectrum leaves the
stack once its own gap is small enough, with its own iteration count.
Every operation acts on each spectrum alone, so a result is bit for bit
the same in any stack.  Nothing is kept between calls; a caller that
solves many spectra bounds each stack to BATCH_BYTES of solver arrays
(stack_size), as families.sweep_rows does.

A Newton pass works on the table's m = d (d + 1) / 2 free entries x
(two_way.table_layout).  trace_T_batch returns the Hessian as its column
pairs, the entries that couple two free entries of one column, and the
pass writes them into the flat KKT systems with one scatter; the barrier
diagonal is added through a strided view.  The spectrum's part of those
entries (two_way.pair_factors) is gathered once per stack; a row that
leaves drops out of them with the rest of the stack state.  The same
loop body damps the step: each Armijo trial runs on the whole stack,
with a step length per row, and the accepted trial's value, gradient and
pair Hessian start the next pass.

Some rows are certified before any pass.  Every three-step protocol is an
LOCC test, and LOCC tests are separable, so no table's Tr T lies below the
separable optimum (sum_k sqrt(l_k))**2 (separable.sep_traces; Owari &
Hayashi, arXiv:0708.3154), while the one-way corner's Tr T is d.  Every
row of a stack starts at the one-way table with iterations 1 and the
slack d - (sum_k sqrt(l_k))**2 as its gap; only the rows whose slack
exceeds tol are solved.  The others keep the corner, t_value = d and that
slack, clipped at 0, as their certified gap.  This covers every uniform
spectrum, near-uniform ones (the slack is about eps**2 d**2 / 2 at
distance eps), and effective rank 1, where the slack is 1 - 1 = 0 and
[[1]] is the only table.

At effective rank 2 the minimum is known exactly (Owari & Hayashi,
arXiv:0708.3154): for the pair (1 - l, l) with l <= 1/2,

    beta = 1/2 - (1 - sqrt(2 l))**2 / (4 (1 - l)),   delta* = (1 - sqrt(2 l)) / (1 - l)

at the table [[delta*, 1 - delta*], [0, 1]].  A rank-2 row whose slack
exceeds tol gets that table with iterations 1 and certified gap 0, exact
by construction as a certified corner is; the barrier solve runs only at
rank 3 and above, where no closed form is known.

solve_stack then makes the whole stack into results at once: its
tables are renormalised and checked together
(two_way.check_tables, DeltaMatrix's rules), one trace_T_closed_form call
gives the operator's Tr T at every table that was solved (a corner row
keeps d, its closed form to the bit, and a stack of corners makes no
call), and the smaller of that and the one-way corner's d is reported (the
solved table on a tie).  The certified gap is reported as max(gap, 0): it
is the rounded difference of two sums and can dip below 0 once the
tolerance nears rounding.  The results are arrays (StackSolve), which a
sweep reads directly (bounds.pure_state_reports); beta_two_way_upper
wraps its one row in an OptimizationResult.

The exhaustive grid oracle for small d stays as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .separable import sep_traces
from .states import SchmidtSpectrum
from .two_way import (
    DeltaMatrix,
    check_tables,
    one_way_table,
    pair_factors,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
    uniform_table,
)


MAX_ITERS = 500  # passes: each takes a gap, and all but the last one damped step
GAP_FLOOR = 15.0  # t >= GAP_FLOOR * m / gap after every gap
ARMIJO_SLACK = 8.0 * np.finfo(float).eps  # relative to the barrier objective
BATCH_BYTES = 1 << 20  # peak solver arrays of one batched solve (_item_bytes each)
TOL = 1e-9  # default certified bound on t_value minus the minimum of Tr T
MAX_GRID_POINTS = 50_000_000  # grid_oracle's largest grid
GRID_CHUNK = 1 << 18  # grid points per trace_T_batch call in grid_oracle


@dataclass(frozen=True)
class OptimizationResult:
    """certified_gap bounds t_value minus the true minimum and is never
    below 0; it is inf for grid_oracle, whose grid point carries no
    certificate."""

    best_delta: DeltaMatrix
    beta_value: float
    method: str
    iterations: int
    converged: bool
    t_value: float
    D: int
    certified_gap: float


def _clean(tables: np.ndarray) -> np.ndarray:
    """A table, or a stack of them, with its rows renormalised before
    check_tables; barrier entries, delta* and grid points are all >= 0."""
    return tables / tables.sum(axis=-1, keepdims=True)


def check_tol(tol: float) -> None:
    """The solve's one input rule: raises ValueError unless 0 < tol < inf."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must satisfy 0 < tol < inf, got {tol!r}")


def _qubit_delta_star(lam):
    """The exact two-outcome minimiser delta* for the smaller coefficient
    lam (0 <= lam <= 1/2, a float or an array), clipped to [0, 1]."""
    return np.clip((1.0 - np.sqrt(2.0 * lam)) / (1.0 - lam), 0.0, 1.0)


def beta_two_way_qubit_analytic(lam: float) -> tuple[float, float]:
    """Exact two-outcome value and minimiser for Schmidt coefficient pair
    (1 - lam, lam) with 0 <= lam <= 1/2."""
    if not -1e-12 <= lam <= 0.5 + 1e-12:
        raise ValueError(f"lam must lie in [0, 1/2], got {lam!r}")
    lam = min(max(lam, 0.0), 0.5)
    beta = 0.5 - (1.0 - np.sqrt(2.0 * lam)) ** 2 / (4.0 * (1.0 - lam))
    return float(beta), float(_qubit_delta_star(lam))


def _item_bytes(d: int) -> int:
    """Bytes one spectrum of effective rank d adds to the peak of a batched
    solve: its KKT matrix, and a budget of 6 d**3 + 24 d**2 + 64 floats for
    its table, free entries, gradient, pair Hessian and pair factors, the
    damped step's two live trials and the temporaries of a trace_T_batch
    call.  tracemalloc measures at most about 1.6 / 11.7 / 84 KB per
    spectrum at d = 2 / 5 / 10, against 1.9 / 14.5 / 102 KB here."""
    size = d * (d + 1) // 2 + d
    return 8 * (size * size + 6 * d**3 + 24 * d**2 + 64)


def stack_size(d: int) -> int:
    """Spectra of effective rank d in one stacked solve: BATCH_BYTES of
    solver arrays, and at least one."""
    return max(1, BATCH_BYTES // _item_bytes(d))


def _barrier_newton(lam: np.ndarray, tol: float):
    """The log-barrier Newton solve of every row of an (n, d) stack of
    effective spectra, as one stacked solve per step.

    Returns the final tables (n, d, d) and, per row, the pass at which its
    Frank-Wolfe gap fell to tol (MAX_ITERS if it never did) and the gap of
    its final table.
    A row leaves the stack once it is done; every operation acts on each
    row alone, so a row's iterates do not depend on the rest of the stack.

    Each pass damps its Newton step dx: fraction to the boundary, then
    Armijo halving on the barrier objective f - w sum log x, with a step
    length per row.  Every trial runs on the whole stack and only the rows
    it rejects halve their step, so a row accepted earlier is accepted
    again at its unchanged step, with the same bits.  A slack of a few ulps
    of that objective lets through a step whose predicted decrease is below
    rounding.
    """
    n, d = lam.shape
    layout = table_layout(d)
    m = layout.entries.size
    size = m + d
    # Equality-constrained Newton systems [[H, A^T], [A, 0]]: A sums each
    # row of the table, and H's column pairs have fixed flat positions.
    into_kkt = layout.p * size + layout.q
    diagonal = slice(0, m * (size + 1), size + 1)  # H's diagonal in the flat system
    kkt = np.zeros((n, size, size))
    kkt[:, m + layout.rows, np.arange(m)] = 1.0
    kkt[:, np.arange(m), m + layout.rows] = 1.0
    rhs = np.zeros((n, size, 1))  # 3-D: numpy 2 reads an (n, size) one as a matrix if n == size

    X = np.repeat(uniform_table(d)[None], n, axis=0)
    x = X.reshape(n, -1).take(layout.entries, axis=1)  # the free entries of X
    factors = pair_factors(lam)  # spectrum-only: gathered once, filtered as rows leave
    f, g, H = trace_T_batch(lam, X, factors)
    w = np.ones(n)  # the barrier weight, carried as 1 / t
    final = np.empty_like(X)
    passes = np.full(n, MAX_ITERS)
    gaps = np.empty(n)
    live = np.arange(n)  # the input row of each row still in the stack
    for it in range(1, MAX_ITERS + 1):
        # By convexity f(X) - min f <= max over vertices V of g . (X - V).
        vertex = np.where(layout.upper, g, np.inf).min(axis=2).sum(axis=1)
        gap = (g * X).reshape(live.size, -1).sum(axis=1) - vertex
        done = gap <= tol
        if np.count_nonzero(done):
            final[live[done]] = X[done]
            passes[live[done]] = it
            gaps[live[done]] = gap[done]
            stay = ~done
            state = (live, lam, w, gap, X, x, f, g, H, *factors)
            live, lam, w, gap, X, x, f, g, H, *factors = (a[stay] for a in state)
        if not live.size or it == MAX_ITERS:  # a row left undone keeps this gap's table
            break
        # At the centre for weight t, f - min f <= m / t: a weight below
        # m / gap asks for less than the certificate has already shown.
        np.minimum(w, gap / (GAP_FLOOR * m), out=w)
        wx = w[:, None] / x
        grad = g.reshape(live.size, -1).take(layout.entries, axis=1) - wx
        system = kkt[: live.size]
        flat = system.reshape(live.size, -1)
        flat[:, into_kkt] = H
        flat[:, diagonal] += wx / x  # a strided view, updated in place
        rhs[: live.size, :m, 0] = -grad
        dx = np.linalg.solve(system, rhs[: live.size])[:, :m, 0]
        decrement = -(grad[:, None, :] @ dx[:, :, None])[:, 0, 0]
        ratio = np.divide(-x, dx, out=np.full_like(x, np.inf), where=dx < 0)
        alpha = np.minimum(1.0, 0.99 * ratio.min(axis=1))
        phi = f - np.log(x).sum(axis=1) * w
        slack = ARMIJO_SLACK * np.abs(phi)
        while True:
            trial = x + alpha[:, None] * dx
            X = np.zeros((live.size, d, d))
            X.reshape(live.size, -1)[:, layout.entries] = trial
            f, g, H = trace_T_batch(lam, X, factors)
            ok = f - np.log(trial).sum(axis=1) * w <= phi - 0.25 * alpha * decrement + slack
            if ok.all():
                break
            alpha[~ok] *= 0.5
        x = trial
    final[live] = X
    gaps[live] = gap
    return final, passes, gaps


class StackSolve(NamedTuple):
    """The two-way bound of every row of a stack (solve_stack), as arrays."""

    tables: np.ndarray  # (n, d, d), checked by DeltaMatrix's rules (two_way.check_tables)
    t_values: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,) passes; 1 for a row certified before any step
    gaps: np.ndarray  # (n,) certified gaps, never below 0
    converged: np.ndarray  # (n,) bool


def solve_stack(lam: np.ndarray, tol: float) -> StackSolve:
    """The two-way bound of every row of an (n, d) stack of effective
    spectra.

    No table's Tr T lies below (sum_k sqrt(l_k))**2 (separable.sep_traces),
    and the one-way corner's is d.  Every row starts at the corner after
    one pass, with that slack as its gap; the rows whose slack exceeds tol
    are overwritten by the exact two-outcome table at d = 2 (gap 0) and by
    one stacked barrier solve above, and the whole stack is finished
    together.  Every operation acts on each row alone, so a row's result
    does not depend on the rest of the stack.  Raises ValueError unless
    0 < tol < inf (check_tol).
    """
    check_tol(tol)
    n, d = lam.shape
    gaps = d - np.array(sep_traces(lam))
    solve = gaps > tol
    tables = np.repeat(one_way_table(d)[None], n, axis=0)
    passes = np.ones(n, dtype=int)
    if d == 2:
        delta = _qubit_delta_star(lam[solve, 1])
        tables[solve, 0] = np.stack([delta, 1.0 - delta], axis=1)
        gaps[solve] = 0.0
    elif solve.any():
        tables[solve], passes[solve], gaps[solve] = _barrier_newton(lam[solve], tol)
    tables = _clean(tables)
    values = np.full(n, float(d))
    if solve.any():
        values[solve] = trace_T_closed_form(lam[solve], tables[solve])
    # The one-way corner is feasible and exact at uniform spectra; taking
    # the better of the two (the solved table on a tie) keeps
    # beta_two_way_upper <= beta_one_way exactly.  Its closed form is d to
    # the bit: its one live column has N = D, and every effective l_k is
    # about states.RANK_TOL = 1e-12 or more, far above the d eps support
    # cutoff.
    tables[values > d] = one_way_table(d)
    values = np.minimum(values, d)
    gaps = np.maximum(gaps, 0.0)  # a rounded difference of two sums can dip below 0
    return StackSolve(check_tables(tables), values, passes, gaps, gaps <= tol)


def solve_spectra(lams: np.ndarray, tol: float):
    """Yield (rows, StackSolve) for each effective rank r among the checked
    spectra lams (n, dim) (states.check_spectra: each row non-increasing,
    zero-padded): the rows of rank r are one stack of their first r
    coefficients.  The stack is not split: the caller bounds its memory
    (families.sweep_rows passes at most stack_size(dim) rows, and
    stack_size does not grow with d)."""
    ranks = np.count_nonzero(lams, axis=1)
    for d in sorted(set(ranks.tolist())):
        rows = np.flatnonzero(ranks == d)
        yield rows, solve_stack(lams[rows, :d], tol)


def beta_two_way_upper(s: SchmidtSpectrum, tol: float = TOL) -> OptimizationResult:
    """The minimum of the protocol error for s, as the module docstring
    describes it (exact at effective rank 2 and at a certified corner, a
    log-barrier Newton solve otherwise): solve_stack on a stack of one, as
    one OptimizationResult.  t_value exceeds the minimum by at most
    certified_gap; `converged` says whether that gap fell to tol within
    MAX_ITERS passes.  Raises ValueError unless 0 < tol < inf.
    """
    solved = solve_stack(s.effective[None], tol)
    D = s.dim**2
    t_value = float(solved.t_values[0])
    return OptimizationResult(
        best_delta=DeltaMatrix(solved.tables[0]),
        beta_value=t_value / D,
        method="log-barrier-newton",
        iterations=int(solved.iterations[0]),
        converged=bool(solved.converged[0]),
        t_value=t_value,
        D=D,
        certified_gap=float(solved.gaps[0]),
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    chunks = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        chunks.append(
            np.hstack([np.full((rest.shape[0], 1), first, dtype=np.int64), rest])
        )
    return np.vstack(chunks)


def grid_size(d: int, step: float) -> tuple[int, int]:
    """(units per row, total points) of the oracle grid for d outcomes.

    Raises ValueError for a step outside (0, 1] (NaN and inf included), or
    for a grid too large to enumerate.
    """
    if not 0 < step <= 1:
        raise ValueError(f"grid step must be in (0, 1], got {step!r}")
    if not math.isfinite(1.0 / step):
        raise ValueError(f"grid step {step!r} is too small")
    units = max(int(round(1.0 / step)), 1)
    total = 1
    for k in range(d):
        total *= math.comb(units + d - k - 1, d - k - 1)
        if total > MAX_GRID_POINTS:  # stop before the product grows to thousands of digits
            raise ValueError(
                f"grid of more than {MAX_GRID_POINTS} points is too large; increase the "
                f"step or use beta_two_way_upper for d = {d}"
            )
    return units, total


def grid_oracle(s: SchmidtSpectrum, step: float) -> OptimizationResult:
    """Exhaustive minimum over per-row simplex grids with the given spacing.

    Deterministic brute force, intended as an independent oracle for small
    d (the point count grows combinatorially).
    """
    lam = s.effective
    D = s.dim**2
    d = lam.size
    units, total = grid_size(d, step)
    row_grids = [_compositions(units, d - k) / units for k in range(d)]
    counts = [grid.shape[0] for grid in row_grids]
    best_val = np.inf
    best_table = None
    for lo in range(0, total, GRID_CHUNK):
        per_row = np.unravel_index(np.arange(lo, min(lo + GRID_CHUNK, total)), counts)
        X = np.zeros((per_row[0].size, d, d))
        for k in range(d):
            X[:, k, k:] = row_grids[k][per_row[k]]
        vals = trace_T_batch(lam, X)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_table = X[j].copy()
    delta = DeltaMatrix(_clean(best_table))
    # Grid points may sit on zero entries, where the operator has fewer Bob
    # outcomes than the envelope counts; report the envelope that was searched.
    t_value = float(trace_T_batch(lam, delta.table[None])[0])
    return OptimizationResult(
        best_delta=delta,
        beta_value=t_value / D,
        method="grid",
        iterations=total,
        converged=True,
        t_value=t_value,
        D=D,
        certified_gap=math.inf,
    )
