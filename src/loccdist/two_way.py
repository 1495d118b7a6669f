"""Three-step two-way LOCC discrimination protocol.

Alice measures a diagonal POVM {M_i} built from a feasible coefficient
table, Bob measures a basis that is unbiased for his conditional state, and
Alice finishes with the support projector of her post-measurement state.
Bob's elements are rank one, so Alice's conditional state, her projector
and every accept leaf are rank one too: a protocol is Bob's outcome counts
r_i plus two padded arrays of vectors (his xi_ij, Alice's final v_ij),
and the protocols of a stack of tables are built in one pass
(protocol_stack).  Its accept leaves u_ij = sqrt(M_i) v_ij and xi_ij are
T as a SeparableForm (accept_form; LOCC tests are separable), which
build_two_way_T assembles without an eigensolve or a loop; verify reads
the traces and detections of a whole stack from the leaves instead
(accept_reads), and checks each measurement through its vectors
(validity_defect).  The test detects the
pure state perfectly, and its type-2 error is

    Tr T = sum_i  r_i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(trace_T_closed_form), r_i = |S_i| being Bob's outcome count: the levels
of column i above the support cutoff, none on a dead column (_supports,
the one rule, which protocol_stack reads too).  The paper's closed form
puts r_i = i, which holds when every live column has full support; as a
function of the table it is the convex envelope the optimiser minimises
(trace_T_entries, with its derivatives, on a table's free entries;
trace_T_batch, its value alone, on whole tables).  The protocol's
outcome law is one closed-form table over (Alice's outcome, Bob's
outcome, Alice's check), and the seeded Monte Carlo simulator draws all
its samples from that table in one multinomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import eig_hermitian, psd_sqrt, support_mask
from .separable import SeparableForm, _squared_moduli, form_schmidt_expectations, form_traces
from .states import SchmidtSpectrum

DENOM_TOL = 1e-14  # branch weights below this never occur
MAX_SAMPLES = np.iinfo(np.int64).max  # numpy's samplers take int64 counts


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability zero."""


def uniform_table(d: int) -> np.ndarray:
    """The table spreading level k evenly over outcomes i >= k: d_ki = 1 / (d - k)."""
    return table_layout(d).upper / np.arange(d, 0, -1)[:, None]


def random_tables(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n random feasible (d, d) tables, each row k uniform on the simplex
    of the entries i >= k, from one standard_exponential draw.

    This is what n * d successive rng.dirichlet(np.ones(d - k)) calls
    compute, to the bit and to the generator's final state: with unit
    weights dirichlet draws one standard exponential per entry and scales
    each row by the reciprocal of its sum, added in order.  So a stack's
    tables are those of n stacks of one, drawn one after another."""
    layout = table_layout(d)
    tables = np.zeros((n, d * d))
    tables[:, layout.entries] = rng.standard_exponential((n, layout.entries.size))
    tables = tables.reshape(n, d, d)
    tables *= 1.0 / np.cumsum(tables, axis=2)[..., -1:]
    return tables


def one_way_table(d: int) -> np.ndarray:
    """The table putting all weight on the last outcome: M_d = I, every
    other M_i = 0, the one-way protocol's corner."""
    table = np.zeros((d, d))
    table[:, -1] = 1.0
    return table


def check_tables(tables: np.ndarray) -> np.ndarray:
    """DeltaMatrix's rules on every table of a nonempty (n, d, d) stack:
    finite, no entry below -1e-12, zero below the diagonal and rows summing
    to 1 within 1e-12.  Returns a checked copy with the entries clipped at
    0 (-0.0 included), each table bit for bit its DeltaMatrix's; raises
    ValueError at the first rule a table breaks."""
    t = np.array(tables, dtype=float)  # a private copy
    lo, hi = t.min(), t.max()  # NaN reaches both, inf one of them
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("delta entries must be finite")
    if lo < -1e-12:
        raise ValueError(f"negative delta entry {lo:.3e}")
    if t[:, ~table_layout(t.shape[-1]).upper].any():
        raise ValueError("entries with k > i must be structurally zero")
    deviation = np.abs(t.sum(axis=-1) - 1.0).max()
    if deviation > 1e-12:
        raise ValueError(f"row sums deviate from 1 by {deviation:.3e}")
    np.maximum(t, 0.0, out=t)
    return t


@dataclass(frozen=True)
class DeltaMatrix:
    """Feasible coefficient table d_ki, 1 <= k <= i <= d.

    Row k distributes the weight of level k over Alice's outcomes i >= k:
    entries are nonnegative and each row sums to one.  Alice's POVM element
    for outcome i is M_i = sum_{k<=i} d_ki |k><k| (rank at most i).
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("delta table must be square")
        t = check_tables(t[None])[0]
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        return self.table.shape[0]

    @classmethod
    def qubit(cls, delta: float) -> "DeltaMatrix":
        """d = 2 table parameterised by d_11 = delta."""
        return cls(np.array([[delta, 1.0 - delta], [0.0, 1.0]]))


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
        u = _accept_vectors(self.delta.table, self.alice)
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
    (flat positions entries = rows * d + cols); row k's are the segment
    that begins at starts[k], and incidence[j, i] is 1 where free entry j
    lies in column i.  Only entries of one column interact in the
    objective's Hessian: pair j couples free entries p[j] and q[j] of
    column pair_col[j], in row-major order over (p, q).
    """

    upper: np.ndarray  # (d, d) bool, k <= i
    rows: np.ndarray  # (m,)
    cols: np.ndarray  # (m,)
    entries: np.ndarray  # (m,)
    starts: np.ndarray  # (d,)
    incidence: np.ndarray  # (m, d) float, [cols[j] = i]
    p: np.ndarray  # (P,)
    q: np.ndarray  # (P,)
    pair_col: np.ndarray  # (P,) cols[p]
    weights: np.ndarray  # (d,) i + 1 as floats
    gate: np.ndarray  # (d,) (i + 1) DENOM_TOL, the live-column threshold


@functools.cache
def table_layout(d: int) -> TableLayout:
    """The TableLayout of d x d tables, built once per d."""
    upper = np.triu(np.ones((d, d), dtype=bool))
    rows, cols = np.nonzero(upper)
    p, q = np.nonzero(cols[:, None] == cols)
    n = np.arange(d)
    layout = TableLayout(
        upper, rows, cols, rows * d + cols, np.searchsorted(rows, n), (cols[:, None] == n) * 1.0,
        p, q, cols[p], n + 1.0, (n + 1) * DENOM_TOL,
    )
    for array in layout:
        array.setflags(write=False)
    return layout


def free_entries(tables: np.ndarray) -> np.ndarray:
    """The free entries (n, m) of an (n, d, d) stack of tables, in
    table_layout(d)'s order."""
    return tables.reshape(len(tables), -1).take(table_layout(tables.shape[-1]).entries, axis=1)


def pair_factors(lam: np.ndarray):
    """The spectrum's part of the objective's derivatives, for a (d,) or
    (n, d) lam: l_k at every free entry d_ki (..., m), then (l_k l_k',
    [k = k'] l_k) at every pair (d_ki, d_k'i) (..., P)."""
    layout = table_layout(lam.shape[-1])
    lk = lam.take(layout.rows, axis=-1)
    lp, lq = (lk.take(e, axis=-1) for e in (layout.p, layout.q))
    return lk, lp * lq, np.where(layout.p == layout.q, lp, 0.0)


def _live_columns(terms: np.ndarray, layout: TableLayout):
    """(live, D) of the terms l_k d_ki at a stack's free entries (n, m):
    D_i = sum_k l_k d_ki, Alice's outcome probability, by a batched
    (n, 1, m) @ (m, d) product, which gives each row the same bits in any
    stack (a plain (n, m) @ (m, d) product does not).  Column i is live
    when D_i > (i + 1) DENOM_TOL: Bob's at most i + 1 outcomes then each
    have probability at least DENOM_TOL, so the protocol never conditions
    on a zero-probability outcome.  The one live rule: the objective,
    trace_T_closed_form and protocol_stack all read it."""
    den = (terms[:, None, :] @ layout.incidence)[:, 0]
    return den > layout.gate, den


def _column_ratios(lk: np.ndarray, x: np.ndarray, layout: TableLayout):
    """(live, D, N / D) per column of the free entries x (n, m), with
    N_i = sum_k l_k d_ki**2, given l_k at every free entry (lk, (m,) or
    (n, m)).  D is 1 and N / D is 0 on the columns that are not live."""
    terms = lk * x
    live, den = _live_columns(terms, layout)
    safe = np.where(live, den, 1.0)
    num = ((terms * x)[:, None, :] @ layout.incidence)[:, 0]
    return live, safe, np.where(live, num, 0.0) / safe


def _supports(lam: np.ndarray, tables: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Masks of the supports S_i of an (n, d, d) stack of tables (lam (d,)
    or (n, d)) given their live columns (n, d), the one rule for Bob's
    outcome counts r_i = |S_i|: level k lies in S_i when column i is live
    and l_k d_ki > d eps max_k l_k d_ki, the support_mask cutoff that
    build_mub_basis applies to Bob's conditional state."""
    return support_mask(lam[..., :, None] * tables, axis=-2) & live[:, None, :]


@functools.cache
def _fourier_stack(d: int) -> np.ndarray:
    """Read-only (d, d, d) stack of Fourier blocks, built once per d: entry
    r - 1 holds exp(2 pi i j k / r) / sqrt(r) for j, k < d, the r x r
    Fourier unitary in its top-left corner, Bob's blocks for r outcomes."""
    n = np.arange(d)
    r = np.arange(1, d + 1)[:, None, None]
    stack = np.exp(2j * np.pi * np.outer(n, n) / r) / np.sqrt(r)
    stack.setflags(write=False)
    return stack


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
    return v[:, :rank] @ _fourier_stack(rank)[rank - 1]


def protocol_stack(lam: np.ndarray, tables: np.ndarray):
    """The three-step protocols of an (n, d, d) stack of checked tables
    under the effective spectrum lam (d,), as TwoWayProtocol's three
    arrays, each stacked and read-only: outcomes (n, d), bob and alice
    (n, d, d, d).

    In live branch i Bob measures xi_j, the Fourier transform of the unit
    vectors on S_i ordered by descending l_k d_ki (ties by ascending k):
    unbiased for his diagonal conditional state.  Alice's conditional state
    is then |v_ij><v_ij| = P_ij, with v_ij proportional to sqrt(M_i Lambda)
    conj(xi_j).  Every operation acts on each table alone, so a protocol
    does not depend on the stack it is built in.
    """
    d = lam.size
    weights = lam[:, None] * tables
    live, _ = _live_columns(free_entries(weights), table_layout(d))
    support = _supports(lam, tables, live)
    outcomes = support.sum(axis=1)  # (n, d)
    # order[t, p, i]: the level at position p of S_i; levels outside S_i go last.
    order = np.argsort(np.where(support, -weights, np.inf), axis=1, kind="stable")
    n = np.arange(d)
    inside = n < outcomes[:, :, None]  # [t, i, j]: j < r_i
    blocks = _fourier_stack(d)[np.maximum(outcomes, 1) - 1]
    blocks[~(inside[..., None] & inside[..., None, :])] = 0.0
    bob = np.zeros_like(blocks)
    bob[np.arange(len(tables))[:, None, None], n[:, None], order.transpose(0, 2, 1)] = blocks
    alice = np.sqrt(weights.transpose(0, 2, 1))[..., None] * bob.conj()
    # Each nonzero v_ij times 1 / |v_ij|, the zero ones times 0.
    norm = np.sqrt(_squared_moduli(alice).sum(axis=-2, keepdims=True))
    alice *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
    for array in (outcomes, bob, alice):
        array.setflags(write=False)
    return outcomes, bob, alice


def _accept_vectors(tables: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """Alice's accept vectors u_ij = sqrt(M_i) v_ij, laid out as alice is:
    u[..., i, :, j], for a (d, d) table or an (n, d, d) stack."""
    return np.sqrt(np.swapaxes(tables, -1, -2))[..., None] * alice


def accept_reads(lam: np.ndarray, tables: np.ndarray, bob: np.ndarray, alice: np.ndarray):
    """(Tr T, <psi|T|psi>) of every protocol of a protocol_stack, psi the
    Schmidt state of lam, read by the form kernels straight from its
    leaves: one (n,) array each.  The padded leaves are zero terms, which
    the kernels' exact term sums ignore, so each value is its protocol's
    accept_form().trace() and .schmidt_expectation(lam), to the bit."""
    u = _accept_vectors(tables, alice)
    return (
        form_traces(1.0, u, bob, axis=2),
        form_schmidt_expectations(1.0, u, bob, lam, axis=2),
    )


def build_two_way_protocol(s: SchmidtSpectrum, delta: DeltaMatrix) -> TwoWayProtocol:
    """The three-step protocol of the table delta, without its operator:
    row 0 of a protocol_stack of one, as read-only views."""
    lam = s.effective
    if delta.d != lam.size:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {lam.size}")
    return TwoWayProtocol(s, delta, *(a[0] for a in protocol_stack(lam, delta.table[None])))


def build_two_way_T(s: SchmidtSpectrum, delta: DeltaMatrix):
    """Assemble the full POVM element of the three-step protocol.

    Returns (T, protocol), protocol being build_two_way_protocol's and T
    its assembled accept_form().
    """
    protocol = build_two_way_protocol(s, delta)
    return protocol.accept_form().assemble(), protocol


def trace_T_entries(lam: np.ndarray, x: np.ndarray, factors: tuple | None = None):
    """The paper's closed form sum_i (i + 1) N_i / D_i over the live columns
    of a stack of tables given by their free entries x (n, m), in
    table_layout(d)'s order, under one (d,) spectrum or an (n, d) spectrum
    per table: the convex envelope the optimiser minimises.  It is the
    operator's Tr T (trace_T_closed_form) when every live column has full
    support, as at every interior point.

    Given factors = pair_factors(lam) of the same lam, which a caller
    evaluating many stacks under one spectrum stack gathers once, returns
    (value, g, H).  g (n, m) is dTr T / dd_ki = (i + 1) l_k (2 d_ki -
    N_i / D_i) / D_i at every free entry, zero on dropped columns.  H is
    the Hessian as the (n, P) entries that couple two free entries of one
    column (entries of different columns do not interact), in
    table_layout(d)'s pair order: for the pair (d_ki, d_k'i), with s_i =
    (i + 1) / D_i and r_i = N_i / D_i,

        H = 2 s_i ([k = k'] l_k - l_k l_k' ((d_ki + d_k'i) - r_i) / D_i),

    zero on dropped columns.  Every operation acts on each row alone, so a
    row's outputs do not depend on the stack it is in.
    """
    layout = table_layout(lam.shape[-1])
    lk = lam.take(layout.rows, axis=-1) if factors is None else factors[0]
    live, safe, ratio = _column_ratios(lk, x, layout)
    # A row reduction, not a matrix product, so a row's value does not
    # depend on the stack it is evaluated in.
    value = (ratio * layout.weights).sum(axis=1)
    if factors is None:
        return value
    _, lk_lkk, diag = factors
    scale = np.where(live, layout.weights / safe, 0.0)
    g = lk * (2.0 * x - ratio.take(layout.cols, axis=1)) * scale.take(layout.cols, axis=1)
    column = layout.pair_col
    pair_sum = x.take(layout.p, axis=1) + x.take(layout.q, axis=1)
    coupling = (pair_sum - ratio.take(column, axis=1)) / safe.take(column, axis=1)
    return value, g, (2.0 * scale).take(column, axis=1) * (diag - lk_lkk * coupling)


def trace_T_batch(lam: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """trace_T_entries's value on an (n, d, d) stack of upper-triangular
    tables, read at their free entries (entries below the diagonal are not
    read)."""
    return trace_T_entries(lam, free_entries(tables))


def trace_T_closed_form(s: SchmidtSpectrum | np.ndarray, delta: DeltaMatrix | np.ndarray):
    """Tr T of the protocol build_two_way_T assembles: sum_i r_i N_i / D_i
    over the live columns, with r_i = |S_i| Bob outcomes, counted as
    protocol_stack counts them (_supports).  On full support r_i = i + 1
    and the value is trace_T_entries's to the bit.

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
    layout = table_layout(lam.shape[-1])
    live, _, ratio = _column_ratios(lam.take(layout.rows, axis=-1), free_entries(tables), layout)
    value = (ratio * _supports(lam, tables, live).sum(axis=1)).sum(axis=1)
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
