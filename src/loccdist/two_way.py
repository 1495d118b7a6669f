"""Three-step two-way LOCC discrimination protocol.

Alice measures a diagonal POVM {M_i} built from a feasible coefficient
table, Bob measures a basis that is unbiased for his conditional state, and
Alice finishes with the support projector of her post-measurement state.
Bob's elements are rank one, so Alice's conditional state, her projector
and every accept leaf are rank one too: a protocol is Bob's outcome counts
r_i plus two padded arrays of vectors (his xi_ij, Alice's final v_ij)
(build_two_way_protocol).  Its accept leaves u_ij = sqrt(M_i) v_ij and
xi_ij are T as a SeparableForm (accept_form; LOCC tests are separable),
which build_two_way_T assembles without an eigensolve or a loop; verify
reads T's trace and detection from the leaves instead, and checks each
measurement through its vectors (validity_defect).  The test detects the
pure state perfectly, and its type-2 error is

    Tr T = sum_i  r_i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(trace_T_closed_form).  The paper's closed form puts r_i = i, which holds
when every live column has full support; as a function of the table it is
the convex envelope the optimiser minimises (trace_T_batch).  The
protocol's outcome law is one closed-form table over (Alice's outcome,
Bob's outcome, Alice's check), and the seeded Monte Carlo simulator draws
all its samples from that table in one multinomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import eig_hermitian, psd_sqrt, support_mask
from .separable import SeparableForm
from .states import SchmidtSpectrum

DENOM_TOL = 1e-14  # branch weights below this never occur
MAX_SAMPLES = np.iinfo(np.int64).max  # numpy's samplers take int64 counts


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability zero."""


@functools.cache
def _upper(d: int) -> np.ndarray:
    """Read-only (d, d) mask of the entries k <= i a table may hold
    (TableLayout.upper)."""
    mask = np.triu(np.ones((d, d), dtype=bool))
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class DeltaMatrix:
    """Feasible coefficient table d_ki, 1 <= k <= i <= d.

    Row k distributes the weight of level k over Alice's outcomes i >= k:
    entries are nonnegative and each row sums to one.  Alice's POVM element
    for outcome i is M_i = sum_{k<=i} d_ki |k><k| (rank at most i).
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)  # a private copy, frozen below
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("delta table must be square")
        lo, hi = t.min(), t.max()  # NaN reaches both, inf one of them
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("delta entries must be finite")
        if lo < -1e-12:
            raise ValueError(f"negative delta entry {lo:.3e}")
        if t[~_upper(t.shape[0])].any():
            raise ValueError("entries with k > i must be structurally zero")
        deviation = np.abs(t.sum(axis=1) - 1.0).max()
        if deviation > 1e-12:
            raise ValueError(f"row sums deviate from 1 by {deviation:.3e}")
        np.maximum(t, 0.0, out=t)  # -0.0 included
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        return self.table.shape[0]

    @classmethod
    def uniform(cls, d: int) -> "DeltaMatrix":
        t = np.zeros((d, d))
        for k in range(d):
            t[k, k:] = 1.0 / (d - k)
        return cls(t)

    @classmethod
    def one_way(cls, d: int) -> "DeltaMatrix":
        """All weight on the last outcome: M_d = I, every other M_i = 0."""
        t = np.zeros((d, d))
        t[:, d - 1] = 1.0
        return cls(t)

    @classmethod
    def qubit(cls, delta: float) -> "DeltaMatrix":
        """d = 2 table parameterised by d_11 = delta."""
        return cls(np.array([[delta, 1.0 - delta], [0.0, 1.0]]))

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "DeltaMatrix":
        t = np.zeros((d, d))
        for k in range(d):
            t[k, k:] = rng.dirichlet(np.ones(d - k))
        return cls(t)


@dataclass(frozen=True)
class TwoWayProtocol:
    """Everything needed to run or analyse one three-step protocol instance.

    Branch i gives Bob outcomes[i] = r_i = |S_i| outcomes, 0 if it never
    occurs.  bob[i, :, j] is his vector xi_ij and alice[i, :, j] Alice's
    unit vector v_ij, P_ij = |v_ij><v_ij|; both are exactly 0 for j >= r_i.
    The three arrays are made read-only, like the rest of the protocol.
    """

    spectrum: SchmidtSpectrum
    delta: DeltaMatrix
    outcomes: np.ndarray  # (d,) int
    bob: np.ndarray  # (d, d, d) complex
    alice: np.ndarray  # (d, d, d) complex

    def __post_init__(self):
        for array in (self.outcomes, self.bob, self.alice):
            array.setflags(write=False)

    @property
    def d(self) -> int:
        return self.delta.d

    def accept_form(self) -> SeparableForm:
        """The accept leaves as the SeparableForm sum_ij |u_ij><u_ij| (x)
        |xi_ij><xi_ij|, u_ij = sqrt(M_i) v_ij, over the live (i, j) in
        row-major order: the protocol's accept operator T, unassembled."""
        d = self.d
        inside = np.arange(d) < self.outcomes[:, None]  # [i, j]: j < r_i
        u = np.sqrt(self.delta.table.T)[:, :, None] * self.alice
        leaf_u, leaf_xi = u.transpose(0, 2, 1)[inside], self.bob.transpose(0, 2, 1)[inside]
        return SeparableForm((d, d), np.ones(len(leaf_u)), leaf_u, leaf_xi)

    def validity_defect(self) -> float:
        """Largest defect of the three measurements, 0 for a valid protocol:
        in each branch Bob's vectors are orthonormal (and his padding is 0),
        each of Alice's v_ij is a unit vector (0 for padded j), and the
        table's entries are nonnegative with rows summing to 1, so that
        {M_i} resolves the identity."""
        inside = np.arange(self.d) < self.outcomes[:, None]  # [i, j]: j < r_i
        gram = self.bob.conj().transpose(0, 2, 1) @ self.bob  # [i, j, j'] = <xi_ij|xi_ij'>
        table = self.delta.table
        return max(
            float(np.abs(gram - inside[:, :, None] * np.eye(self.d)).max()),
            float(np.abs(np.linalg.norm(self.alice, axis=1) - inside).max()),
            float(np.abs(table.sum(axis=1) - 1.0).max()),
            float(-table.min()),
        )


def sigma_A(s: SchmidtSpectrum, M, N) -> np.ndarray:
    """Alice's conditional state after outcomes (M, N):

    sqrt(M) sqrt(rho_A) N^T sqrt(rho_A) sqrt(M), normalised.  The transpose
    is taken in the Schmidt basis (here the computational basis).  N may be
    a (r, d, d) stack of Bob's elements; the result is then the matching
    stack of states, and sqrt(M) is taken once.
    """
    lam = s.effective
    sqrt_rho = np.diag(np.sqrt(lam))
    M = np.asarray(M, dtype=complex)
    N = np.asarray(N, dtype=complex)
    core_half = sqrt_rho @ np.swapaxes(N, -1, -2) @ sqrt_rho
    normalizer = np.trace(M @ core_half, axis1=-2, axis2=-1).real
    if np.any(normalizer <= DENOM_TOL):
        raise ZeroProbabilityError("outcome has probability zero")
    sm = psd_sqrt(M)
    return (sm @ core_half @ sm) / normalizer[..., None, None]


class TableLayout(NamedTuple):
    """Index arrays and column constants of d x d coefficient tables, all
    read-only.

    The free entries d_ki, k <= i, in row-major order, sit at rows, cols
    (flat positions entries = rows * d + cols).  Only entries of one column
    interact in trace_T_batch's Hessian: pair j couples free entries p[j]
    and q[j] of one column, in row-major order over (p, q); pair_col and
    pair_at hold the column and the flat positions of both entries of
    every pair.
    """

    upper: np.ndarray  # (d, d) bool, k <= i
    rows: np.ndarray  # (m,)
    cols: np.ndarray  # (m,)
    entries: np.ndarray  # (m,)
    p: np.ndarray  # (P,)
    q: np.ndarray  # (P,)
    pair_col: np.ndarray  # (P,) cols[p]
    pair_at: np.ndarray  # (2, P) entries[p], entries[q]
    weights: np.ndarray  # (d,) i + 1 as floats
    gate: np.ndarray  # (d,) (i + 1) DENOM_TOL, the live-column threshold


@functools.cache
def table_layout(d: int) -> TableLayout:
    """The TableLayout of d x d tables, built once per d."""
    upper = _upper(d)
    rows, cols = np.nonzero(upper)
    entries = rows * d + cols
    p, q = np.nonzero(cols[:, None] == cols)
    n = np.arange(d)
    layout = TableLayout(
        upper, rows, cols, entries, p, q, cols[p], entries[[p, q]], n + 1.0, (n + 1) * DENOM_TOL
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def pair_factors(lam: np.ndarray):
    """The spectrum's part of trace_T_batch's pair Hessian: (l_k l_k',
    [k = k'] l_k) for every pair (d_ki, d_k'i), each (..., P) for a (d,)
    or (n, d) lam."""
    layout = table_layout(lam.shape[-1])
    lk, lkk = (lam.take(layout.rows[e], axis=-1) for e in (layout.p, layout.q))
    return lk * lkk, np.where(layout.p == layout.q, lk, 0.0)


def _column_ratios(lam: np.ndarray, tables: np.ndarray):
    """(live, D, N / D) per column of a batch of (n, d, d) tables, with
    D_i = sum_k l_k d_ki, Alice's outcome probability, and N_i = sum_k
    l_k d_ki**2.  lam is one (d,) spectrum or an (n, d) spectrum per table.
    Column i is live when D_i > (i + 1) DENOM_TOL: Bob's at most i + 1
    outcomes then each have probability at least DENOM_TOL, so the protocol
    never conditions on a zero-probability outcome.  D is 1 and N / D is 0
    on the other columns."""
    row = lam[..., None, :]  # one vector-matrix product per table, whatever the batch
    den = (row @ tables)[:, 0]
    live = den > table_layout(lam.shape[-1]).gate
    safe = np.where(live, den, 1.0)
    return live, safe, np.where(live, (row @ (tables * tables))[:, 0], 0.0) / safe


def _supports(lam: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Masks of the column supports of a (d, d) table or an (n, d, d) stack
    (with lam (d,) or (n, d)): level k lies in S_i when l_k d_ki > d eps
    max_k l_k d_ki, the support_mask cutoff that build_mub_basis applies to
    Bob's conditional state.  Branch i gives Bob |S_i| outcomes."""
    return support_mask(lam[..., :, None] * tables, axis=-2)


def _fourier(r: int) -> np.ndarray:
    """The r x r unitary with entries exp(2 pi i j k / r) / sqrt(r)."""
    return np.exp(2j * np.pi * np.outer(np.arange(r), np.arange(r)) / r) / np.sqrt(r)


def build_mub_basis(omega, r: int | None = None) -> np.ndarray:
    """Orthonormal columns spanning the support of omega, each with
    expectation Tr(omega)/rank against omega.

    Fourier-rotates the support eigenbasis: xi_j = r**-0.5 sum_k
    exp(2 pi i j k / r) |eta_k>, which is unbiased for any spectrum because
    the eigenvalues average to Tr(omega)/r along every column.
    """
    w, v = eig_hermitian(omega)
    rank = int(support_mask(w).sum())
    if r is not None and r != rank:
        raise ValueError(f"requested rank {r} but omega has numerical rank {rank}")
    if rank == 0:
        raise ValueError("omega has empty support")
    return v[:, :rank] @ _fourier(rank)


def build_two_way_protocol(s: SchmidtSpectrum, delta: DeltaMatrix) -> TwoWayProtocol:
    """The three-step protocol of the table delta, without its operator.

    In live branch i Bob measures xi_j, the Fourier transform of the unit
    vectors on S_i ordered by descending l_k d_ki (ties by ascending k):
    unbiased for his diagonal conditional state.  Alice's conditional state
    is then |v_ij><v_ij| = P_ij, with v_ij proportional to sqrt(M_i Lambda)
    conj(xi_j).
    """
    lam = s.effective
    d = lam.size
    if delta.d != d:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {d}")
    weights = lam[:, None] * delta.table
    live, _, _ = _column_ratios(lam, delta.table[None])
    support = _supports(lam, delta.table) & live
    outcomes = support.sum(axis=0)
    # order[p, i]: the level at position p of S_i; levels outside S_i go last.
    order = np.argsort(np.where(support, -weights, np.inf), axis=0, kind="stable")
    n, r = np.arange(d), np.maximum(outcomes, 1)[:, None, None]
    inside = n < outcomes[:, None]  # [i, j]: j < r_i
    block = np.exp(2j * np.pi * (n[:, None] * n) / r) / np.sqrt(r)  # Fourier, padded to d
    bob = np.zeros((d, d, d), dtype=complex)
    bob[n[:, None], order.T] = np.where(inside[:, :, None] & inside[:, None, :], block, 0.0)
    v = np.sqrt(weights.T)[:, :, None] * bob.conj()
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    alice = np.divide(v, norm, out=np.zeros_like(v), where=norm > 0)
    return TwoWayProtocol(s, delta, outcomes, bob, alice)


def build_two_way_T(s: SchmidtSpectrum, delta: DeltaMatrix):
    """Assemble the full POVM element of the three-step protocol.

    Returns (T, protocol), protocol being build_two_way_protocol's and T
    its assembled accept_form().
    """
    protocol = build_two_way_protocol(s, delta)
    return protocol.accept_form().assemble(), protocol


def trace_T_batch(lam: np.ndarray, tables: np.ndarray, factors: tuple | None = None):
    """The paper's closed form sum_i (i + 1) N_i / D_i over the live columns
    of a batch of (n, d, d) upper-triangular tables, under one (d,) spectrum
    or an (n, d) spectrum per table: the convex envelope the optimiser
    minimises.  It is the operator's Tr T (trace_T_closed_form)
    when every live column has full support, as at every interior point.

    Given factors = pair_factors(lam) of the same lam, which a caller
    evaluating many batches under one spectrum stack gathers once, returns
    (value, g, H).  g is dTr T / dd_ki = (i + 1) l_k (2 d_ki - N_i / D_i) /
    D_i, zero below the diagonal and on dropped columns.  H is the Hessian
    as the (n, P) entries that couple two free entries of one column
    (entries of different columns do not interact), in table_layout(d)'s
    pair order: for the pair (d_ki, d_k'i), with s_i = (i + 1) / D_i and
    r_i = N_i / D_i,

        H = 2 s_i ([k = k'] l_k - l_k l_k' ((d_ki + d_k'i) - r_i) / D_i),

    zero on dropped columns.
    """
    layout = table_layout(lam.shape[-1])
    live, safe, ratio = _column_ratios(lam, tables)
    # A row reduction, not a matrix product, so a table's value does not
    # depend on the batch it is evaluated in.
    value = (ratio * layout.weights).sum(axis=1)
    if factors is None:
        return value
    scale = np.where(live, layout.weights / safe, 0.0)
    g = lam[..., :, None] * (2.0 * tables - ratio[:, None, :]) * scale[:, None, :]
    g = np.where(layout.upper, g, 0.0)
    lk_lkk, diag = factors
    x_p, x_q = tables.reshape(len(tables), -1).take(layout.pair_at, axis=1).swapaxes(0, 1)
    column = layout.pair_col
    coupling = (x_p + x_q - ratio.take(column, axis=1)) / safe.take(column, axis=1)
    return value, g, (2.0 * scale).take(column, axis=1) * (diag - lk_lkk * coupling)


def trace_T_closed_form(s: SchmidtSpectrum | np.ndarray, delta: DeltaMatrix | np.ndarray):
    """Tr T of the protocol build_two_way_T assembles: sum_i r_i N_i / D_i
    over the live columns, with r_i = |S_i| Bob outcomes.  On full support
    r_i = i + 1 and the value is trace_T_batch's to the bit.

    Takes a SchmidtSpectrum and a DeltaMatrix and returns a float, or a
    stack: effective spectra (d,) or (n, d) and an (n, d, d) array of
    tables, returning the n values.  Every operation acts on each table
    alone, so a value does not depend on the stack it is in."""
    stacked = not isinstance(delta, DeltaMatrix)
    if stacked:
        lam, tables = s, delta
    else:
        lam, tables = s.effective, delta.table[None]
        if delta.d != lam.size:
            raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {lam.size}")
    _, _, ratio = _column_ratios(lam, tables)
    value = (ratio * _supports(lam, tables).sum(axis=1)).sum(axis=1)
    return value if stacked else float(value[0])


def _branch_probabilities(protocol: TwoWayProtocol, source: str) -> np.ndarray:
    """Exact outcome law of the cascade for either source state, as a
    (d, d + 1, 2) table p[i, j, a]: Alice's outcome i, Bob's outcome j
    (j = d is his reject element, which also takes a branch that never
    occurs) and Alice's final check a (0 accept, 1 reject).

    On psi = sum_k sqrt(l_k) |kk>: p_i = sum_k l_k m_ki, p_ij = sum_k l_k
    m_ki |xi_kj|**2 and accept |sum_k c_k v_kj|**2 = c^T P_ij conj(c) with
    c_k = sqrt(l_k m_ki) xi_kj.  On the maximally mixed state of dimension
    d**2: Tr M_i / d, Tr M_i / d**2 and Tr(M_i P_ij) / d**2.  Padded
    outcomes j >= r_i are zero leaves.  Leaves below 1e-12 are set to 0,
    so the non-accept leaves on psi, rounding-level, are exactly 0.
    """
    if source not in ("psi", "mixed"):
        raise ValueError(f"source must be 'psi' or 'mixed', got {source!r}")
    lam = protocol.spectrum.effective
    d = lam.size
    m = protocol.delta.table.T[:, :, None]  # m_ki at [i, k, 0]
    if source == "psi":
        w = lam[:, None] * m  # l_k m_ki
        p = lam @ protocol.delta.table
        joint = (w * np.abs(protocol.bob) ** 2).sum(axis=1)
        accepted = np.abs((np.sqrt(w) * protocol.bob * protocol.alice).sum(axis=1)) ** 2
    else:
        p = m.sum(axis=1)[:, 0] / d
        joint = np.where(np.arange(d) < protocol.outcomes[:, None], m.sum(axis=1) / d**2, 0.0)
        accepted = (m * np.abs(protocol.alice) ** 2).sum(axis=1) / d**2
    table = np.zeros((d, d + 1, 2))
    table[:, :d] = np.stack([accepted, joint - accepted], axis=-1)
    table[:, d, 1] = p - joint.sum(axis=1)
    table[table < 1e-12] = 0.0
    return table


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score confidence interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    if not 0 <= successes <= n:
        raise ValueError(f"success count {successes} outside 0..{n}")
    phat = successes / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def simulate_protocol(protocol: TwoWayProtocol, source: str, n: int, seed: int = 0):
    """Sample the three-step cascade n times and report the accept rate.

    Each sample follows Alice's Born rule, then Bob's conditional Born rule
    (his reject element declares the mixed state immediately), then Alice's
    final projective check.  All n samples are one multinomial draw over the
    cascade's leaves (_branch_probabilities), which has the cascade's law.
    Deterministic given (seed, n).  Returns (accept_rate, wilson 95%
    interval).
    """
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must be between 1 and {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)
    table = _branch_probabilities(protocol, source)
    counts = rng.multinomial(n, (table / table.sum()).ravel()).reshape(table.shape)
    accepted = int(counts[..., 0].sum())
    return accepted / n, wilson_interval(accepted, n)
