"""Minimisation of the three-step protocol's error over feasible tables.

The objective

    t(delta) = sum_i i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

is a sum of quadratic-over-linear ratios over a product of row simplices
(one simplex per level k, spread over outcomes i >= k).  It is smooth on
the interior but not obviously convex, so the main method is multi-start
projected gradient (Barzilai-Borwein trial steps, Armijo halving), guarded
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
from .two_way import DENOM_TOL, DeltaMatrix, trace_T_closed_form


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


class _FlatObjective:
    """Vectorised objective/gradient over row-major flattened feasible tables."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.asarray(lam, dtype=float)
        d = self.lam.size
        self.d = d
        rows, cols = [], []
        for k in range(d):
            for i in range(k, d):
                rows.append(k)
                cols.append(i)
        self.rows = np.array(rows)
        self.cols = np.array(cols)
        self.nvars = len(rows)
        self.lam_flat = self.lam[self.rows]
        self.col_onehot = np.zeros((self.nvars, d))
        self.col_onehot[np.arange(self.nvars), self.cols] = 1.0
        self.weights = np.arange(1, d + 1, dtype=float)
        self.blocks = []
        start = 0
        for k in range(d):
            m = d - k
            self.blocks.append(slice(start, start + m))
            start += m

    def table(self, x: np.ndarray) -> DeltaMatrix:
        t = np.zeros((self.d, self.d))
        t[self.rows, self.cols] = x
        # Clean rounding before constructing the (validating) table.
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=1)
        t /= sums[:, None]
        return DeltaMatrix(t)

    def flatten(self, delta: DeltaMatrix) -> np.ndarray:
        return delta.table[self.rows, self.cols].copy()

    def value_grad(self, X: np.ndarray):
        """Objective and gradient for a batch X of shape (n, nvars)."""
        W = X * self.lam_flat
        Dcol = W @ self.col_onehot
        Ncol = (X * W) @ self.col_onehot
        safe = Dcol > DENOM_TOL
        ratio = np.where(safe, Ncol / np.where(safe, Dcol, 1.0), 0.0)
        f = ratio @ self.weights
        Dx = Dcol[:, self.cols]
        Nx = Ncol[:, self.cols]
        ok = Dx > DENOM_TOL
        grad = np.where(
            ok,
            self.weights[self.cols]
            * self.lam_flat
            * (2.0 * X * np.where(ok, Dx, 1.0) - Nx)
            / np.where(ok, Dx, 1.0) ** 2,
            0.0,
        )
        return f, grad

    def value(self, X: np.ndarray) -> np.ndarray:
        W = X * self.lam_flat
        Dcol = W @ self.col_onehot
        Ncol = (X * W) @ self.col_onehot
        safe = Dcol > DENOM_TOL
        ratio = np.where(safe, Ncol / np.where(safe, Dcol, 1.0), 0.0)
        return ratio @ self.weights

    def project(self, X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X)
        for block in self.blocks:
            out[:, block] = _project_simplex_rows(X[:, block])
        return out


def _project_simplex_rows(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of X onto the unit simplex."""
    n, m = X.shape
    if m == 1:
        return np.ones_like(X)
    u = -np.sort(-X, axis=1)
    css = np.cumsum(u, axis=1)
    idx = np.arange(1, m + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = np.count_nonzero(cond, axis=1)
    theta = (css[np.arange(n), rho - 1] - 1.0) / rho
    return np.maximum(X - theta[:, None], 0.0)


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
    if d == 1:
        return OptimizationResult(
            best_delta=DeltaMatrix(np.ones((1, 1))),
            beta_value=1.0 / D,
            method="projected-gradient",
            iterations=0,
            converged=True,
            t_value=1.0,
            D=D,
        )

    obj = _FlatObjective(lam)
    rng = np.random.default_rng(config.seed)
    # The trivial-first-measurement corner always achieves the one-way value
    # and is the exact optimum at uniform spectra, so it is seeded alongside
    # the uniform table; the rest are random.
    starts = [obj.flatten(DeltaMatrix.uniform(d)), obj.flatten(DeltaMatrix.one_way(d))]
    for _ in range(max(config.starts - 2, 0)):
        starts.append(obj.flatten(DeltaMatrix.random(d, rng)))
    X = np.stack(starts)
    n = X.shape[0]

    alpha = np.full(n, 1.0)
    done = np.zeros(n, dtype=bool)
    f, g = obj.value_grad(X)
    best_f = f.copy()
    stall = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        gm = np.linalg.norm(X - obj.project(X - g), axis=1)
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
            trial = obj.project(X[pending] - step[pending, None] * g[pending])
            ftrial = obj.value(trial)
            slope = np.einsum("ij,ij->i", g[pending], trial - X[pending])
            ok = ftrial <= f[pending] + 1e-4 * slope
            accepted = pending[ok]
            trial_ok = trial[ok]
            cand[accepted] = trial_ok
            fc[accepted] = ftrial[ok]
            # An accepted step that moves nothing means the iterate is
            # stationary to floating-point resolution.
            moved = np.linalg.norm(trial_ok - X[accepted], axis=1)
            done[accepted[moved <= 1e-13]] = True
            rejected = pending[~ok]
            step[rejected] *= 0.5
            floored = rejected[step[rejected] < 1e-14]
            # No descent at any step length: numerically stationary.
            done[floored] = True
            pending = rejected[step[rejected] >= 1e-14]
        X_old, g_old = X.copy(), g
        X[idx] = cand[idx]
        f, g = obj.value_grad(X)
        # Barzilai-Borwein step for the next round; fall back to the last
        # accepted step where the curvature estimate is unusable.
        dx = X - X_old
        dg = g - g_old
        num = np.einsum("ij,ij->i", dx, dx)
        den = np.einsum("ij,ij->i", dx, dg)
        bb = np.where(den > 1e-18, num / np.where(den > 1e-18, den, 1.0), step)
        alpha = np.clip(bb, 1e-10, 1e4)
        # A start whose value has stopped moving is done even if its
        # gradient mapping plateaus above tol (flat valleys, corner creep).
        improved = f < best_f - 1e-12 * (1.0 + np.abs(best_f))
        stall = np.where(improved, 0, stall + 1)
        best_f = np.minimum(best_f, f)
        done |= stall >= 30

    best = int(np.argmin(f))
    delta = obj.table(X[best])
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
    if d == 1:
        return OptimizationResult(
            best_delta=DeltaMatrix(np.ones((1, 1))),
            beta_value=1.0 / D,
            method="grid",
            iterations=1,
            converged=True,
            t_value=1.0,
            D=D,
        )
    obj = _FlatObjective(lam)
    row_grids = [
        _compositions(units, d - k).astype(float) / units for k in range(d)
    ]
    counts = [grid.shape[0] for grid in row_grids]
    best_val = np.inf
    best_x = None
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        flat_idx = np.arange(lo, hi)
        per_row = np.unravel_index(flat_idx, counts)
        X = np.concatenate(
            [row_grids[k][per_row[k]] for k in range(d)], axis=1
        )
        vals = obj.value(X)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_x = X[j].copy()
    delta = obj.table(best_x)
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
