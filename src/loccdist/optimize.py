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
from .two_way import DeltaMatrix, trace_T_batch, trace_T_closed_form


MAX_ITERS = 500  # Newton steps and barrier updates together
BARRIER_GROWTH = 10.0
CENTRING_TOL = 1e-6  # Newton decrement**2 / 2 of t * f - sum log x at a centred point


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-9  # certified bound on t_value minus the minimum of Tr T


@dataclass(frozen=True)
class OptimizationResult:
    """certified_gap bounds t_value minus the true minimum; it is inf for
    grid_oracle, whose grid point carries no certificate."""

    best_delta: DeltaMatrix
    beta_value: float
    method: str
    iterations: int
    converged: bool
    t_value: float
    D: int
    certified_gap: float


def _as_delta(table: np.ndarray) -> DeltaMatrix:
    """Clean rounding (clip, renormalise rows) before the validating constructor."""
    t = np.clip(table, 0.0, None)
    return DeltaMatrix(t / t.sum(axis=1, keepdims=True))


def beta_two_way_qubit_analytic(lam: float) -> tuple[float, float]:
    """Exact two-outcome value and minimiser for Schmidt coefficient pair
    (1 - lam, lam) with 0 <= lam <= 1/2."""
    if not -1e-12 <= lam <= 0.5 + 1e-12:
        raise ValueError(f"lam must lie in [0, 1/2], got {lam!r}")
    lam = min(max(lam, 0.0), 0.5)
    beta = 0.5 - (1.0 - np.sqrt(2.0 * lam)) ** 2 / (4.0 * (1.0 - lam))
    delta_star = (1.0 - np.sqrt(2.0 * lam)) / (1.0 - lam)
    return float(beta), float(min(max(delta_star, 0.0), 1.0))


def beta_two_way_upper(
    s: SchmidtSpectrum, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Log-barrier Newton minimiser of the protocol error.

    From the uniform table, takes Newton steps on f(x) - (1/t) sum log x_ki
    under the row sums (one KKT system each, kept interior by a
    fraction-to-boundary rule and Armijo halving), multiplying t by
    BARRIER_GROWTH whenever the iterate is centred.  Stops once the
    Frank-Wolfe gap is at most config.tol and returns the better of the
    iterate and the one-way corner, so t_value exceeds the minimum by at
    most certified_gap; `converged` says whether that happened within
    MAX_ITERS steps and, for d = 2, matches the analytic solution.
    """
    if config is None:
        config = OptimizerConfig()
    lam = s.effective
    D = s.dim**2
    d = lam.size
    upper = np.triu(np.ones((d, d), dtype=bool))
    rows, cols = np.nonzero(upper)
    m = rows.size
    # Equality-constrained Newton system [[H, A^T], [A, 0]]: A sums each row.
    kkt = np.zeros((m + d, m + d))
    kkt[m + rows, np.arange(m)] = 1.0
    kkt[np.arange(m), m + rows] = 1.0
    same_col = cols[:, None] == cols
    rhs = np.zeros(m + d)

    X = DeltaMatrix.uniform(d).table
    f, g, H = (a[0] for a in trace_T_batch(lam, X[None], hess=True))
    t = 1.0
    for iterations in range(1, MAX_ITERS + 1):
        # By convexity f(X) - min f <= max over vertices V of g . (X - V).
        gap = float(np.sum(g * X) - np.min(np.where(upper, g, np.inf), axis=1).sum())
        if gap <= config.tol:
            break
        x = X[upper]
        grad = g[upper] - 1.0 / (t * x)
        kkt[:m, :m] = np.where(same_col, H[cols[:, None], rows[:, None], rows], 0.0)
        kkt[:m, :m] += np.diag(1.0 / (t * x * x))
        rhs[:m] = -grad
        dx = np.linalg.solve(kkt, rhs)[:m]
        decrement = -float(grad @ dx)
        if t * decrement <= 2.0 * CENTRING_TOL:
            t *= BARRIER_GROWTH
            continue
        # Fraction to the boundary, then Armijo halving on the barrier
        # objective; a slack of a few ulps of phi lets through a step whose
        # predicted decrease is below rounding.
        shrink = dx < 0
        alpha = min(1.0, 0.99 * float(np.min(-x[shrink] / dx[shrink]))) if shrink.any() else 1.0
        step = np.zeros((d, d))
        step[upper] = dx
        phi = f - np.log(x).sum() / t
        slack = 8.0 * np.finfo(float).eps * abs(phi)
        while True:
            X_new = X + alpha * step
            phi_new = trace_T_batch(lam, X_new[None])[0] - np.log(X_new[upper]).sum() / t
            if phi_new <= phi - 0.25 * alpha * decrement + slack:
                break
            alpha *= 0.5
        X = X_new
        f, g, H = (a[0] for a in trace_T_batch(lam, X[None], hess=True))

    # The one-way corner is feasible and exact at uniform spectra; taking
    # the better of the two keeps beta_two_way_upper <= beta_one_way exactly.
    delta = min((_as_delta(X), DeltaMatrix.one_way(d)), key=lambda c: trace_T_closed_form(s, c))
    t_value = trace_T_closed_form(s, delta)
    converged = gap <= config.tol

    if d == 2:
        beta_exact, _ = beta_two_way_qubit_analytic(float(lam[1]))
        if abs(t_value / (d * d) - beta_exact) > 1e-6:
            warnings.warn(
                f"barrier solve missed the analytic two-outcome value: "
                f"{t_value / (d * d):.9f} vs {beta_exact:.9f}",
                RuntimeWarning,
            )
            converged = False

    return OptimizationResult(
        best_delta=delta,
        beta_value=t_value / D,
        method="log-barrier-newton",
        iterations=iterations,
        converged=converged,
        t_value=t_value,
        D=D,
        certified_gap=gap,
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
    delta = _as_delta(best_table)
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
