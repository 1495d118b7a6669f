"""Minimisation of the three-step protocol's error over feasible tables.

The objective

    t(delta) = sum_i i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(two_way.trace_T_entries) is minimised over a product of row simplices (one
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

Near an interior minimiser Newton's method on f itself converges
quadratically (ibid., 10.2): one step takes a gap eps to about eps**2,
while a barrier pass only divides it by 30 to 40.  Already at eps = 1e-2
a plain step lands near 1e-4 against a barrier pass's 3e-4, and the next
near 1e-8.  So a row finishes without the barrier: once its gap is at most
FINISH_GAP = 1e-2 and no free entry lies within sqrt(max(w, gap / 20)) of
the boundary (min x**2 >= max(w, gap / 20), for the weight w = 1 / t its
iterate was centred for: face pinning with an empty face), its Newton
steps drop the barrier's w / x gradient and w / x**2 diagonal and keep
the fraction to the boundary, Armijo (on f alone) and the stop at gap <=
tol.  The gap / 20 term keeps on the barrier a row whose Newton step,
about the size of its gap, is about the size of its distance to the
nearest free entry.  FINISH_GAP is fixed, not set by the tol of the call,
so a solve to a tighter tol finishes in the same way.  The row keeps its
finish (a flag in the stack state) until a plain step of its own reaches
the fraction-to-boundary cap: that row returns to its kept weight w and
takes the barrier step instead, with a second KKT solve in that pass.
Where the minimiser lies on the boundary the guard keeps the row on the
barrier.  Without the gap threshold one of the hard test cases retook a
step; without the gap / 20 term fig2's top 20 points at 400 took 424
passes, against 357 with it and 362 on the barrier alone.  On perfbench's
pools the finish takes bounds-random from 10.58 passes to 8.46 and
certify from 7.75 to 6.25 (9.38 and 6.88 when it started at gap
sqrt(TOL)).

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
perfbench keeps a record per call, so every gain in calls per second
also raises its peak RSS (CHANGES.md has the figures of each change).

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
(two_way.table_layout) alone: they are the only iterate, and a row's table
is written once, when the row leaves.  two_way.trace_T_entries reads the
value, the gradient at the free entries and the Hessian, as its column
pairs, straight from x, and the pass writes those pairs into the flat KKT
systems with one scatter; the barrier diagonal is added through a strided
view.  The spectrum's part of those reads (two_way.pair_factors) is
gathered once per stack; a row that leaves drops out of them with the
rest of the stack state, and a stack whose last rows leave is not
compacted.  The Frank-Wolfe gap reads its vertex term as the minimum of
g over each row's contiguous segment of free entries.  The same loop
body damps the step: each Armijo trial runs on the whole stack, with a
step length per row, and the accepted trial's value, gradient, pair
Hessian and sum log x start the next pass.

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
exceeds tol gets that table with iterations 1 and, as its certified gap,
the rounding of its t_value (below).

Above rank 2 a top tie l_0 = ... = l_{r-1} (r >= 2, each l_k within a
relative TIE_RTOL = 1e-9 of l_0) has its minimiser on a known face: the r
tied rows are equal and columns 0 .. r - 2 are empty.  Merging the tied
levels into one level of weight l_0 + ... + l_{r-1} leaves a problem of
rank d - r + 1 whose columns have weights r, r + 1, ..., d, and whose
minimiser, on every top-tied spectrum tried, has no empty entry.  There
(and at r = 1 wherever l_0 > l_1, the interior optimum) the KKT
conditions solve column by column (face_tables): one quadratic per column
for its row multiplier, then the column scales by back substitution of
the row sums.  Such a row gets that table with iterations 1, certified by
the dual bound below, and goes to the barrier only if its gap exceeds tol
(a tie of relative width delta costs about 1.25 delta of gap).  The
barrier never empties those columns: its finish's guard keeps such a row
on the barrier weight, which stops about 1e-6 to 1e-5 short of the face
after 9 to 39 passes.

The Frank-Wolfe gap cannot certify a table with empty columns: there g
reads 0, a valid but loose subgradient.  dual_bound can: by Lagrange
duality on the row sums, for every multiplier vector mu,

    min Tr T >= L(mu) = sum_k mu_k - max(0, max_i eps_i) sum_k l_k,

where eps_i bounds mu . x - h_i(x) over the columns x with sum_k l_k x_k
= 1, h_i being column i's term; h_i is 1-homogeneous, so
mu . x - h_i(x) <= eps_i sum_k l_k x_k for every column, and summed over
the columns that is at most max_i eps_i sum_k l_k on a feasible table.
In y_k = l_k x_k, eps_i is a maximum over the simplex of a concave
quadratic, which water-filling gives exactly.  With mu_k the least
gradient over row k's live entries, L meets t_value to rounding at the
face's exact minimiser (a dual gap of at most 3.6e-15 on the tied solve
pins, before the rounding pads below).  At a table whose entries are all
positive the same mu gives eps_i <= 0 by convexity and L = t_value minus
the Frank-Wolfe gap, so `verify`'s two-way-optimal-dual line (cli) reads
each column's term against the reported certificate on every table.  The
barrier solve runs at rank 3 and above, for the rows no closed form
covers.

solve_stack then makes the whole stack into results at once: its
tables are renormalised and checked together
(two_way.check_tables, DeltaMatrix's rules), one trace_T_closed_form call
gives the operator's Tr T at every table that was solved (a corner row
keeps d, its closed form to the bit, and a stack of corners makes no
call), and the smaller of that and the one-way corner's d is reported (the
solved table on a tie).  The certified gap stays a bound in floats: the
barrier adds 4 ulps of sum |g x| to the rounded difference of its two
sums, and solve_stack clips that at 0 and adds 4 ulps of t_value to every
solved row, the exact rank-2 and face rows included (a face row's gap
is t_value - L(mu) plus 4 ulps of sum |mu_k|).  Once Newton lands on the
minimiser to rounding, the unpadded gap could read 0 with t_value an ulp
above the minimum.  The results are arrays (StackSolve), which a
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
    free_entries,
    one_way_table,
    pair_factors,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
    trace_T_entries,
    uniform_table,
)


MAX_ITERS = 500  # passes: each takes a gap, and all but the last one damped step
GAP_FLOOR = 15.0  # t >= GAP_FLOOR * m / gap after every gap
ARMIJO_SLACK = 8.0 * np.finfo(float).eps  # relative to the barrier objective
BATCH_BYTES = 1 << 20  # peak solver arrays of one batched solve (_item_bytes each)
TOL = 1e-9  # default certified bound on t_value minus the minimum of Tr T
FINISH_GAP = 1e-2  # a row whose gap is at most this may take plain Newton steps
TIE_RTOL = 1e-9  # levels with l_k >= l_0 (1 - TIE_RTOL) are tied with l_0
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
    its final table, free entries, gradient, pair Hessian and pair
    factors, the damped step's two live trials and the temporaries of a
    trace_T_entries call.  On a full stack of Dirichlet spectra,
    tracemalloc measures about 1.3 / 10 / 70 KB per spectrum at d = 2 / 5
    / 10, against 1.9 / 14.5 / 102 KB here."""
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
    its final table plus the rounding bound of its sums.
    A row leaves the stack once it is done; every operation acts on each
    row alone, so a row's iterates do not depend on the rest of the stack.

    Each pass damps its Newton step dx: fraction to the boundary, then
    Armijo halving on the barrier objective f - w sum log x (w = 0 for a
    finishing row, module docstring), with a step length per row.  Every
    trial runs on the whole stack and only the rows
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

    def newton(x, g, H, weight):
        """The Newton step dx of k rows at their barrier weights, solved
        in the first k KKT systems, and the gradient it descends."""
        k = len(x)
        wx = weight[:, None] / x
        grad = g - wx
        system = kkt[:k]
        flat = system.reshape(k, -1)
        flat[:, into_kkt] = H
        barrier = flat[:, diagonal]  # a strided view, updated in place
        barrier += wx / x
        np.negative(grad, out=rhs[:k, :m, 0])
        return grad, np.linalg.solve(system, rhs[:k])[:, :m, 0]

    def step_cap(x, dx):
        """Fraction to the boundary: the longest step, at most 1, that
        keeps 1% of every entry, 0.99 / max(-dx / x)."""
        return 0.99 / np.maximum((-dx / x).max(axis=1), 0.99)

    x = np.repeat(free_entries(uniform_table(d)[None]), n, axis=0)
    factors = pair_factors(lam)  # spectrum-only: gathered once, filtered as rows leave
    f, g, H = trace_T_entries(lam, x, factors)
    logs = np.log(x).sum(axis=1)  # the barrier's sum log x at x
    w = np.ones(n)  # the barrier weight, carried as 1 / t
    finish = np.zeros(n, dtype=bool)  # rows taking plain Newton steps on f
    final = np.zeros((n, d * d))
    passes = np.full(n, MAX_ITERS)
    gaps = np.empty(n)
    live = np.arange(n)  # the input row of each row still in the stack
    for it in range(1, MAX_ITERS + 1):
        # By convexity f(x) - min f <= max over vertices v of g . (x - v),
        # and the best vertex puts each row k on its smallest g_ki.
        vertex = np.minimum.reduceat(g, layout.starts, axis=1).sum(axis=1)
        gx = g * x
        gap = gx.sum(axis=1) - vertex
        done = gap <= tol
        if it == MAX_ITERS:  # a row left undone keeps this gap's table
            done[:] = True
        if np.count_nonzero(done):
            leaving = live[done]
            final[leaving[:, None], layout.entries] = x[done]
            passes[leaving] = it
            # A few ulps of sum |g x| bound the rounding of the gap.
            gaps[leaving] = gap[done] + 4.0 * np.spacing(np.abs(gx[done]).sum(axis=1))
            if done.all():
                break
            stay = ~done
            state = (live, lam, w, finish, gap, x, f, g, H, logs, *factors)
            live, lam, w, finish, gap, x, f, g, H, logs, *factors = (a[stay] for a in state)
        # The finish: a row within sqrt(TOL) of the minimum, with no free
        # entry within sqrt(w) of the boundary for the weight w its iterate
        # was centred for, steps on f alone.
        near = gap <= FINISH_GAP
        finishing = np.count_nonzero(near) or np.count_nonzero(finish)
        if finishing:
            finish |= near & ((x * x).min(axis=1) >= np.maximum(w, gap / 20.0))
        # At the centre for weight t, f - min f <= m / t: a weight below
        # m / gap asks for less than the certificate has already shown.
        np.minimum(w, gap / (GAP_FLOOR * m), out=w)
        weight = np.where(finish, 0.0, w) if finishing else w
        grad, dx = newton(x, g, H, weight)
        alpha = step_cap(x, dx)
        if finishing:
            # A finishing row whose step the cap cuts returns to its
            # weight w and takes the barrier step instead.
            capped = np.flatnonzero(finish & (alpha < 1.0))
            if capped.size:
                finish[capped] = False
                weight[capped] = w[capped]
                grad[capped], dx[capped] = newton(x[capped], g[capped], H[capped], w[capped])
                alpha[capped] = step_cap(x[capped], dx[capped])
        decrement = -(grad[:, None, :] @ dx[:, :, None])[:, 0, 0]
        phi = f - logs * weight
        slack = ARMIJO_SLACK * np.abs(phi)
        while True:
            trial = x + alpha[:, None] * dx
            f, g, H = trace_T_entries(lam, trial, factors)
            logs = np.log(trial).sum(axis=1)
            ok = f - logs * weight <= phi - 0.25 * alpha * decrement + slack
            if ok.all():
                break
            alpha[~ok] *= 0.5
        x = trial
    return final.reshape(n, d, d), passes, gaps


def top_ties(lam: np.ndarray) -> np.ndarray:
    """The multiplicity r of the top level of every row of an (n, d) stack
    of effective spectra: the number of levels with l_k >= l_0 (1 -
    TIE_RTOL)."""
    return np.count_nonzero(lam >= lam[:, :1] * (1.0 - TIE_RTOL), axis=1)


def face_tables(lam: np.ndarray, r: int):
    """The minimiser on the face of a top tie of multiplicity r, for every
    row of an (n, d) stack of effective spectra, from the KKT conditions
    column by column (module docstring): (tables (n, d, d), ok (n,)), ok
    false where no positive table meets the conditions.

    The r tied levels are merged into one level of weight l_0 + ... +
    l_{r-1}, whose row spreads over columns r - 1 .. d - 1, so that the
    merged problem's column j has weight a = r + j and its first column's
    term is r d_00, with multiplier mu_0 = r.  Column j's direction y (k <=
    j), scaled to sum_k l_k y_k = 1, is y_k = N / 2 + mu_k / (2 a l_k); with
    L = sum_{k <= j} l_k, P = sum_{k < j} mu_k, Q = sum_{k < j} mu_k**2 /
    l_k and c = 2 a - P, its multiplier mu_j solves

        (1 - L / l_j) mu_j**2 - 2 c mu_j + c**2 - L Q = 0.

    Of its roots, (c - sqrt(disc)) / (1 - L / l_j) is kept: the other gave
    no positive direction in 35 370 column solves on Dirichlet spectra at
    d = 3..16 with r = 1..4, and a row whose kept root gives none is not
    ok (tests/reference.py's interior_optimum tries both).  The row sums
    then fix the column scales from the last row up, and the merged row
    is copied into the r tied rows, whose columns 0 .. r - 2 stay empty.
    Sums are elementwise products reduced along an axis, no matrix
    product, so a row's table does not depend on the BLAS kernel or on its
    stack.  At r = 1 this is the interior optimum."""
    n, d = lam.shape
    e = d - r + 1
    merged = np.concatenate([lam[:, :r].sum(axis=1, keepdims=True), lam[:, r:]], axis=1)
    mu = np.empty((n, e))
    mu[:, 0] = r
    y = np.zeros((n, e, e))  # column j's direction in y[:, :j + 1, j]
    y[:, 0, 0] = 1.0
    ok = np.ones(n, dtype=bool)
    for j in range(1, e):
        a = r + j
        head = merged[:, : j + 1]
        L = head.sum(axis=1)
        c = 2.0 * a - mu[:, :j].sum(axis=1)
        Q = (mu[:, :j] ** 2 / merged[:, :j]).sum(axis=1)
        A = 1.0 - L / merged[:, j]  # <= -1: l_0's merged weight is at least l_j
        disc = c * c - A * (c * c - L * Q)
        mu[:, j] = (c - np.sqrt(np.maximum(disc, 0.0))) / A
        column = ((c - mu[:, j]) / (2.0 * a * L))[:, None] + mu[:, : j + 1] / (2.0 * a * head)
        ok &= (disc >= 0.0) & (column > 0.0).all(axis=1)
        y[:, : j + 1, j] = np.where(ok[:, None], column, 1.0)  # a failed row stays finite
    scales = np.empty((n, e))
    for k in range(e - 1, -1, -1):
        scales[:, k] = (1.0 - (y[:, k, k + 1 :] * scales[:, k + 1 :]).sum(axis=1)) / y[:, k, k]
    ok &= (scales > 0.0).all(axis=1)
    merged_table = y * np.where(ok[:, None], scales, 1.0)[:, None, :]
    tables = np.zeros((n, d, d))
    tables[:, r - 1 :, r - 1 :] = merged_table
    tables[:, : r - 1, r - 1 :] = merged_table[:, :1]
    return _clean(tables), ok


def row_multipliers(lam: np.ndarray, tables: np.ndarray):
    """(value, mu) of every table of an (n, d, d) stack under its effective
    spectrum lam (n, d): trace_T_entries's value, and mu_k, the least
    gradient g_ki over row k's live entries (d_ki > 0).  An empty column's
    g reads 0, a subgradient too loose to certify with, which the live
    entries leave out."""
    x = free_entries(tables)
    value, g, _ = trace_T_entries(lam, x, pair_factors(lam))
    starts = table_layout(lam.shape[1]).starts
    return value, np.minimum.reduceat(np.where(x > 0.0, g, np.inf), starts, axis=1)


def dual_bound(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """L(mu) = sum_k mu_k - max(0, max_i eps_i) sum_k l_k, a lower bound on
    the minimum of Tr T for every multiplier vector mu (n, d) of an (n, d)
    stack of effective spectra (module docstring): eps_i bounds mu . x -
    h_i(x) over the columns x with sum_k l_k x_k = 1, h_i being column i's
    term.

    With y_k = l_k x_k and r_k = mu_k / l_k, eps_i is the maximum over the
    simplex of r . y - a sum_k y_k**2 / l_k (a = i + 1), and for every level
    nu, nu + sum_k l_k (r_k - nu)_+**2 / (4 a) bounds it from above
    (Lagrange duality on sum_k y_k = 1), with equality at the water-filling
    level: the nu at which y_k = l_k (r_k - nu)_+ / (2 a) sums to 1.  One
    sort per column, on (n, d, d) arrays padded with r = -inf below the
    diagonal, finds it."""
    n, d = lam.shape
    layout = table_layout(d)
    inside, a = layout.upper, layout.weights  # level k lies in column i; a = i + 1
    ratio = np.where(inside, (mu / lam)[:, :, None], -np.inf)
    rows, cols = np.arange(n)[:, None, None], np.arange(d)
    order = np.argsort(-ratio, axis=1)
    ranked = ratio[rows, order, cols]
    cum_l = np.where(inside, lam[:, :, None], 0.0)[rows, order, cols].cumsum(axis=1)
    cum_mu = np.where(inside, mu[:, :, None], 0.0)[rows, order, cols].cumsum(axis=1)
    levels = (cum_mu - 2.0 * a) / cum_l
    active = np.count_nonzero(ranked > levels, axis=1)  # at least 1: the largest r_k
    nu = levels[rows[:, 0], active - 1, cols]
    excess = np.maximum(ratio - nu[:, None, :], 0.0)  # 0 below the diagonal
    eps = nu + (lam[:, :, None] * excess * excess).sum(axis=1) / (4.0 * a)
    return mu.sum(axis=1) - np.maximum(eps.max(axis=1), 0.0) * lam.sum(axis=1)


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
    are overwritten by the exact two-outcome table at d = 2 and by one
    stacked barrier solve above, and the whole stack is finished
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
        # Top-tied rows are solved on their face and certified by the dual
        # bound, with 4 ulps of sum |mu_k| for the rounding of that sum;
        # those certified to tol (r set to 0) leave the barrier's stack.
        ties = np.where(solve, top_ties(lam), 1)
        for r in sorted(set(ties[ties > 1].tolist())):
            rows = np.flatnonzero(ties == r)
            face, ok = face_tables(lam[rows], r)
            value, mu = row_multipliers(lam[rows], face)
            face_gaps = value - dual_bound(lam[rows], mu) + 4.0 * np.spacing(np.abs(mu).sum(axis=1))
            certified = ok & (face_gaps <= tol)
            tables[rows[certified]] = face[certified]
            gaps[rows[certified]] = face_gaps[certified]
            ties[rows[certified]] = 0
        barrier = solve & (ties > 0)
        if barrier.any():
            tables[barrier], passes[barrier], gaps[barrier] = _barrier_newton(lam[barrier], tol)
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
    # A rounded difference of two sums can dip below 0, and a solved row's
    # t_value carries rounding of its own: a few ulps of it.
    gaps = np.maximum(gaps, 0.0)
    gaps[solve] += 4.0 * np.spacing(values[solve])
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
