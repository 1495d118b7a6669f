"""Minimisation of the three-step protocol's error over feasible tables.

The objective

    t(delta) = sum_i i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(two_way.trace_T_batch) is minimised over a product of row simplices (one
simplex per level k, spread over outcomes i >= k).  It is convex: column
i's term is ||diag(sqrt l) x||**2 / (l . x) for the column x, a
quadratic-over-linear function of a linear map (Boyd & Vandenberghe,
Convex Optimization, 3.1.5 and 3.2.2), extended by its limit 0 where the
column is empty, where it has a kink.

beta_two_way_upper is one deterministic log-barrier Newton solve (ibid.,
ch. 11) whose iterates stay strictly interior, away from those kinks.  It
stops when the Frank-Wolfe gap sum_k (sum_i g_ki x_ki - min_i g_ki) is at
most the tolerance; by convexity that gap bounds how far the value lies
above the minimum (Jaggi, ICML 2013), and it is reported as certified_gap.

The barrier weight t starts at 1 and moves only through the certificate:
after every gap it is raised to at least GAP_FLOOR * m / gap, m = d (d + 1)
/ 2 being the number of log terms.  The centre for weight t lies at most
m / t above the minimum (ibid., 11.2.2), so a weight below m / gap aims at
a point the certificate has already passed.  The floor alone also makes
the solve converge: at the exact centre for weight t, row k's gap is
(n_k - 1 / max_i x_ki) / t for its n_k free entries, so the total gap is at
most (m - d) / t.  Newton steps at a fixed t therefore push the gap below
2 m / t, and the floor then raises t more than twofold.  (After 200 Newton
steps at a fixed t, for d = 3, 5, 8 and t = 10, 1e3, 1e6, gap * t / (m - d)
read between 0.1 and 0.6.)  So every pass does the same: the gap of each
row, retiring the rows that are done, the floor, and one damped Newton
step.

The solve runs on a stack of spectra that share an effective rank
(beta_two_way_upper_batch; beta_two_way_upper is a batch of one, and a
sweep solves its points in such batches): each Newton step is one stacked
KKT solve, and the barrier weight, fraction to the boundary and Armijo
halving are kept per spectrum.  A spectrum leaves the stack once
its own gap is small enough, with its own iteration count.  Every operation
acts on each spectrum alone, so a result is bit for bit the same in any
batch.  A stack holds at most BATCH_BYTES of solver arrays; larger groups
are solved in chunks, and nothing is kept between calls.

A Newton pass works on the table's m = d (d + 1) / 2 free entries x
(two_way.table_layout).  trace_T_batch returns the Hessian as its column
pairs, the entries that couple two free entries of one column, and the
pass writes them into the flat KKT systems with one scatter; the barrier
diagonal is added through a strided view.  The spectrum's part of those
entries (two_way.pair_factors) is gathered once per stack and again only
when rows leave it.  A damped step runs each Armijo trial on the whole
stack, with a step length per row, and hands back the accepted entries
with the table.  At effective rank 1 the only feasible table is [[1]], and
its first gap is 0, so that stack takes no step.

A finished stack is also turned into results as a stack (_finish): its
tables are clipped and renormalised together, and one trace_T_closed_form
call gives the operator's Tr T at every final table.  Per spectrum the
smaller of that and the one-way corner's d is reported (the barrier table
on a tie), the d = 2 analytic check runs, and one DeltaMatrix is built.
The certified gap is reported as max(gap, 0): it is the rounded
difference of two sums and can dip below 0 once the tolerance nears
rounding.

The exhaustive grid oracle for small d and the exact two-outcome solution

    beta = 1/2 - (1 - sqrt(2 l))**2 / (4 (1 - l)),   delta* = (1 - sqrt(2 l)) / (1 - l)

stay as independent checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import SchmidtSpectrum
from .two_way import DeltaMatrix, pair_factors, table_layout, trace_T_batch, trace_T_closed_form


MAX_ITERS = 500  # passes: each takes a gap, and all but the last one damped step
GAP_FLOOR = 2.0  # t >= GAP_FLOOR * m / gap after every gap
ARMIJO_SLACK = 8.0 * np.finfo(float).eps  # relative to the barrier objective
BATCH_BYTES = 1 << 20  # peak solver arrays of one batched solve (_item_bytes each)


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-9  # certified bound on t_value minus the minimum of Tr T


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
    """A table, or a stack of them, with rounding cleaned before the
    validating DeltaMatrix: entries clipped at 0, rows renormalised."""
    tables = np.clip(tables, 0.0, None)
    return tables / tables.sum(axis=-1, keepdims=True)


def beta_two_way_qubit_analytic(lam: float) -> tuple[float, float]:
    """Exact two-outcome value and minimiser for Schmidt coefficient pair
    (1 - lam, lam) with 0 <= lam <= 1/2."""
    if not -1e-12 <= lam <= 0.5 + 1e-12:
        raise ValueError(f"lam must lie in [0, 1/2], got {lam!r}")
    lam = min(max(lam, 0.0), 0.5)
    beta = 0.5 - (1.0 - np.sqrt(2.0 * lam)) ** 2 / (4.0 * (1.0 - lam))
    delta_star = (1.0 - np.sqrt(2.0 * lam)) / (1.0 - lam)
    return float(beta), float(min(max(delta_star, 0.0), 1.0))


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
    At d = 1, [[1]] is the only table and its first gap is exactly 0.
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

    X = np.repeat(DeltaMatrix.uniform(d).table[None], n, axis=0)
    x = X.reshape(n, -1).take(layout.entries, axis=1)  # the free entries of X
    factors = pair_factors(lam)  # spectrum-only, gathered again only when rows leave
    f, g, H = trace_T_batch(lam, X, factors)
    t = np.ones(n)
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
            live, lam, t, gap, X, x, f, g, H = (a[stay] for a in (live, lam, t, gap, X, x, f, g, H))
            factors = tuple(a[stay] for a in factors)
        if not live.size or it == MAX_ITERS:  # a row left undone keeps this gap's table
            break
        # At the centre for weight t, f - min f <= m / t: a weight below
        # m / gap asks for less than the certificate has already shown.
        np.maximum(t, GAP_FLOOR * m / gap, out=t)
        tx = t[:, None] * x
        grad = g.reshape(live.size, -1).take(layout.entries, axis=1) - 1.0 / tx
        system = kkt[: live.size]
        flat = system.reshape(live.size, -1)
        flat[:, into_kkt] = H
        flat[:, diagonal] += 1.0 / (tx * x)  # a strided view, updated in place
        rhs[: live.size, :m, 0] = -grad
        dx = np.linalg.solve(system, rhs[: live.size])[:, :m, 0]
        decrement = -(grad[:, None, :] @ dx[:, :, None])[:, 0, 0]
        X, x, f, g, H = _damped_step(lam, factors, x, dx, f, t, decrement, layout.entries)
    final[live] = X
    gaps[live] = gap
    return final, passes, gaps


def _damped_step(lam, factors, x, dx, f, t, decrement, entries):
    """One damped Newton step along dx from the table entries x at the flat
    positions entries: fraction to the boundary, then Armijo halving on the
    barrier objective f - sum log x / t, with a step length per row.  Every
    trial runs on the whole stack; a row keeps its first accepted trial, and
    only the rows not yet accepted halve their step.  A slack of a few ulps
    of that objective lets through a step whose predicted decrease is below
    rounding.  Returns the new tables, their entries, and trace_T_batch's
    value, gradient and pair Hessian there (factors being the rows'
    pair_factors)."""
    n, d = lam.shape
    ratio = np.divide(-x, dx, out=np.full_like(x, np.inf), where=dx < 0)
    alpha = np.minimum(1.0, 0.99 * ratio.min(axis=1))
    phi = f - np.log(x).sum(axis=1) / t
    slack = ARMIJO_SLACK * np.abs(phi)
    out = None
    while True:
        trial = x + alpha[:, None] * dx
        tables = np.zeros((n, d, d))
        tables.reshape(n, -1)[:, entries] = trial
        value, g, H = trace_T_batch(lam, tables, factors)
        ok = value - np.log(trial).sum(axis=1) / t <= phi - 0.25 * alpha * decrement + slack
        found = (tables, trial, value, g, H)
        if out is None:
            out, accepted = found, ok
        else:
            fresh = ok & ~accepted
            for a, b in zip(out, found):
                a[fresh] = b[fresh]
            accepted |= fresh
        if accepted.all():
            return out
        alpha[~accepted] *= 0.5


def _finish(spectra, lam, tables, passes, gaps, tol) -> list[OptimizationResult]:
    """The OptimizationResults of a finished stacked solve of spectra, whose
    effective spectra are the rows of lam (n, d), from _barrier_newton's
    tables, passes and gaps."""
    d = lam.shape[1]
    tables = _clean(tables)
    values = trace_T_closed_form(lam, tables)
    # The one-way corner is feasible and exact at uniform spectra; taking
    # the better of the two (the barrier table on a tie) keeps
    # beta_two_way_upper <= beta_one_way exactly.  Its closed form is d to
    # the bit: its one live column has N = D, and every effective l_k is
    # about states.RANK_TOL = 1e-12 or more, far above the d eps support
    # cutoff.
    t_corner = float(d)
    gaps = np.maximum(gaps, 0.0)  # a rounded difference of two sums can dip below 0
    results = []
    for k, s in enumerate(spectra):
        t_value = float(values[k])
        if t_corner < t_value:
            delta, t_value = DeltaMatrix.one_way(d), t_corner
        else:
            delta = DeltaMatrix(tables[k])
        gap = float(gaps[k])
        converged = gap <= tol
        if d == 2:
            beta_exact, _ = beta_two_way_qubit_analytic(float(lam[k, 1]))
            if abs(t_value / (d * d) - beta_exact) > 1e-6:
                warnings.warn(
                    f"barrier solve missed the analytic two-outcome value: "
                    f"{t_value / (d * d):.9f} vs {beta_exact:.9f}",
                    RuntimeWarning,
                )
                converged = False
        D = s.dim**2
        results.append(
            OptimizationResult(
                best_delta=delta,
                beta_value=t_value / D,
                method="log-barrier-newton",
                iterations=int(passes[k]),
                converged=converged,
                t_value=t_value,
                D=D,
                certified_gap=gap,
            )
        )
    return results


def beta_two_way_upper_batch(
    spectra: list[SchmidtSpectrum], config: OptimizerConfig | None = None
) -> list[OptimizationResult]:
    """beta_two_way_upper of each spectrum, in order.

    Spectra of one effective rank are solved together, in stacks of at most
    BATCH_BYTES of solver arrays; each result is bit for bit the one its
    spectrum gets alone.
    """
    if config is None:
        config = OptimizerConfig()
    lams = [s.effective for s in spectra]
    results = [None] * len(spectra)
    for d in sorted({lam.size for lam in lams}):
        group = [i for i, lam in enumerate(lams) if lam.size == d]
        size = stack_size(d)
        for lo in range(0, len(group), size):
            chunk = group[lo : lo + size]
            lam = np.stack([lams[i] for i in chunk])
            solved = _barrier_newton(lam, config.tol)
            for i, result in zip(chunk, _finish([spectra[i] for i in chunk], lam, *solved, config.tol)):
                results[i] = result
    return results


def beta_two_way_upper(
    s: SchmidtSpectrum, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Log-barrier Newton minimiser of the protocol error.

    From the uniform table, each pass takes the Frank-Wolfe gap, raises the
    barrier weight t (from 1) to at least GAP_FLOOR * m / gap, with
    m = d (d + 1) / 2 log terms, and takes one Newton step on
    f(x) - (1/t) sum log x_ki under the row sums (one KKT system, kept
    interior by a fraction-to-boundary rule and Armijo halving).  The
    centre for weight t lies within m / t of the minimum, so a lower weight
    would not tighten what the gap has already certified.  Stops once the
    gap is at most config.tol and returns the better of the iterate and
    the one-way corner, so t_value exceeds the minimum by at most
    certified_gap; `converged` says whether that happened within MAX_ITERS
    passes and, for d = 2, matches the analytic solution.  This is
    beta_two_way_upper_batch on a batch of one.
    """
    return beta_two_way_upper_batch([s], config)[0]


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
    if total > 50_000_000:
        raise ValueError(
            f"grid of {total} points is too large; increase the step or use "
            f"beta_two_way_upper for d = {d}"
        )
    return units, total


def grid_oracle(
    s: SchmidtSpectrum, step: float, chunk: int = 1 << 18
) -> OptimizationResult:
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
    for lo in range(0, total, chunk):
        per_row = np.unravel_index(np.arange(lo, min(lo + chunk, total)), counts)
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
