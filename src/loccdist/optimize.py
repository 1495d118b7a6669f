"""Minimisation of the three-step protocol's error over feasible tables.

The objective

    t(delta) = sum_i i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(two_way.trace_T_batch) is minimised over a product of row simplices (one
simplex per level k, spread over outcomes i >= k).  It is convex: column
i's term is ||diag(sqrt l) x||**2 / (l . x) for the column x, a
quadratic-over-linear function of a linear map (Boyd & Vandenberghe,
Convex Optimization, 3.1.5 and 3.2.2), extended by its limit 0 where the
column is empty.  It is not smooth there: each term has a kink where its
column's weight vanishes, and the one-way corner (every column but the
last empty) is such a point.  Near those faces the gradient jumps, the
gradient-mapping test need not settle, and one projected-gradient run can
creep along a face and stop short (two starts lose 3.5e-8 in beta against
sixteen on the spectrum (4, 4, 3, 2)/13).  So the method stays multi-start
projected gradient (Barzilai-Borwein trial steps, Armijo halving) with a
stall rule that retires a start whose value has stopped improving, guarded
by an exhaustive grid oracle for small d and by the exact two-outcome
solution

    beta = 1/2 - (1 - sqrt(2 l))**2 / (4 (1 - l)),   delta* = (1 - sqrt(2 l)) / (1 - l).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import SchmidtSpectrum
from .two_way import DeltaMatrix, trace_T_batch, trace_T_closed_form


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 16
    tol: float = 1e-9
    max_iters: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    best_delta: DeltaMatrix
    beta_value: float
    method: str
    iterations: int
    converged: bool
    t_value: float
    D: int


def _as_delta(table: np.ndarray) -> DeltaMatrix:
    """Clean rounding (clip, renormalise rows) before the validating constructor."""
    t = np.clip(table, 0.0, None)
    return DeltaMatrix(t / t.sum(axis=1, keepdims=True))


def _project_rows(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row k of each table in the (n, d, d)
    batch X onto the unit simplex over its entries i >= k; entries with
    k > i come back zero.

    With a row's entries sorted in decreasing order u_1 >= u_2 >= ..., the
    shift is theta = max_j (u_1 + ... + u_j - 1) / j: that ratio increases
    while u_j exceeds it and decreases after, so its maximum sits at the
    last entry the projection keeps.
    """
    cols = np.arange(X.shape[-1])
    upper = cols[:, None] <= cols
    # Row k has d - k free entries; sorted in decreasing order they lead.
    lead = upper[:, ::-1]
    u = np.sort(np.where(upper, X, -np.inf), axis=-1)[..., ::-1]
    css = np.cumsum(np.where(lead, u, 0.0), axis=-1)
    theta = np.where(lead, (css - 1.0) / (cols + 1.0), -np.inf).max(axis=-1, keepdims=True)
    out = np.where(upper, np.maximum(X - theta, 0.0), 0.0)
    out[..., -1, -1] = 1.0  # the last row's one entry, free of rounding
    return out


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
    """Multi-start projected-gradient minimiser of the protocol error.

    The returned table is always feasible; `converged` reports whether every
    surviving start reached the gradient-mapping tolerance or a numerical
    stationary point before the iteration cap.  For d = 2 the result is
    cross-checked against the analytic solution.
    """
    if config is None:
        config = OptimizerConfig()
    lam = s.effective
    D = s.dim**2
    d = lam.size
    rng = np.random.default_rng(config.seed)
    # The trivial-first-measurement corner always achieves the one-way value
    # and is the exact optimum at uniform spectra, so it is seeded alongside
    # the uniform table; the rest are random.
    starts = [DeltaMatrix.uniform(d), DeltaMatrix.one_way(d)]
    starts += [DeltaMatrix.random(d, rng) for _ in range(config.starts - 2)]
    X = np.stack([delta.table for delta in starts])
    n = X.shape[0]

    alpha = np.full(n, 1.0)
    done = np.zeros(n, dtype=bool)
    f, g = trace_T_batch(lam, X, grad=True)
    best_f = f.copy()
    stall = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        gm = np.linalg.norm(X - _project_rows(X - g), axis=(1, 2))
        done |= gm <= config.tol
        if done.all():
            break
        active = ~done
        idx = np.flatnonzero(active)
        cand = X.copy()
        fc = f.copy()
        step = alpha.copy()
        pending = idx.copy()
        while pending.size:
            trial = _project_rows(X[pending] - step[pending, None, None] * g[pending])
            ftrial = trace_T_batch(lam, trial)
            slope = np.einsum("nki,nki->n", g[pending], trial - X[pending])
            ok = ftrial <= f[pending] + 1e-4 * slope
            accepted = pending[ok]
            trial_ok = trial[ok]
            cand[accepted] = trial_ok
            fc[accepted] = ftrial[ok]
            # An accepted step that moves nothing means the iterate is
            # stationary to floating-point resolution.
            moved = np.linalg.norm(trial_ok - X[accepted], axis=(1, 2))
            done[accepted[moved <= 1e-13]] = True
            rejected = pending[~ok]
            step[rejected] *= 0.5
            floored = rejected[step[rejected] < 1e-14]
            # No descent at any step length: numerically stationary.
            done[floored] = True
            pending = rejected[step[rejected] >= 1e-14]
        X_old, g_old = X.copy(), g
        X[idx] = cand[idx]
        f, g = trace_T_batch(lam, X, grad=True)
        # Barzilai-Borwein step for the next round; fall back to the last
        # accepted step where the curvature estimate is unusable.
        dx = X - X_old
        dg = g - g_old
        num = np.einsum("nki,nki->n", dx, dx)
        den = np.einsum("nki,nki->n", dx, dg)
        bb = np.where(den > 1e-18, num / np.where(den > 1e-18, den, 1.0), step)
        alpha = np.clip(bb, 1e-10, 1e4)
        # A start whose value has stopped moving is done even if its
        # gradient mapping plateaus above tol (flat valleys, corner creep).
        improved = f < best_f - 1e-12 * (1.0 + np.abs(best_f))
        stall = np.where(improved, 0, stall + 1)
        best_f = np.minimum(best_f, f)
        done |= stall >= 30

    best = int(np.argmin(f))
    delta = _as_delta(X[best])
    t_value = trace_T_closed_form(s, delta)
    converged = bool(done.all())

    if d == 2:
        beta_exact, _ = beta_two_way_qubit_analytic(float(lam[1]))
        if abs(t_value / (d * d) - beta_exact) > 1e-6:
            warnings.warn(
                f"projected gradient missed the analytic two-outcome value: "
                f"{t_value / (d * d):.9f} vs {beta_exact:.9f}",
                RuntimeWarning,
            )
            converged = False

    return OptimizationResult(
        best_delta=delta,
        beta_value=t_value / D,
        method="projected-gradient",
        iterations=iterations,
        converged=converged,
        t_value=t_value,
        D=D,
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

    Raises ValueError for a step that is not positive, or for a grid too
    large to enumerate.
    """
    if not step > 0:
        raise ValueError("grid step must be positive")
    if not math.isfinite(1.0 / step):
        raise ValueError(f"grid step {step!r} is too small")
    units = max(int(round(1.0 / step)), 1)
    total = 1
    for k in range(d):
        total *= math.comb(units + d - k - 1, d - k - 1)
    if total > 50_000_000:
        raise ValueError(
            f"grid of {total} points is too large; increase the step or use "
            f"the projected-gradient method for d = {d}"
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
    t_value = trace_T_closed_form(s, delta)
    return OptimizationResult(
        best_delta=delta,
        beta_value=t_value / D,
        method="grid",
        iterations=total,
        converged=True,
        t_value=t_value,
        D=D,
    )
