"""Three-step two-way LOCC discrimination protocol.

Alice measures a diagonal POVM {M_i} built from a feasible coefficient
table, Bob measures a basis that is unbiased for his conditional state, and
Alice finishes with the support projector of her post-measurement state.
Bob's elements are rank one, so Alice's conditional state, her projector
and every term of T are rank one too, and build_two_way_T assembles T from
vectors without an eigensolve.  The test detects the pure state perfectly,
and with r_i Bob outcomes in branch i its type-2 error is

    Tr T = sum_i  r_i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki)

(trace_T_closed_form).  The paper's closed form puts r_i = i, which holds
when every live column has full support; as a function of the table it is
the convex envelope the optimiser minimises (trace_T_batch).  A seeded
Monte Carlo simulator samples the cascade outcome by outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import eig_hermitian, psd_sqrt
from .states import SchmidtSpectrum

DENOM_TOL = 1e-14  # branch weights below this never occur
MAX_SAMPLES = np.iinfo(np.int64).max  # numpy's samplers take int64 counts


class ZeroProbabilityError(ValueError):
    """Raised when conditioning on an outcome of probability zero."""


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
        if not np.all(np.isfinite(t)):
            raise ValueError("delta entries must be finite")
        if np.min(t) < -1e-12:
            raise ValueError(f"negative delta entry {np.min(t):.3e}")
        lower = np.tril(t, -1)
        if np.max(np.abs(lower)) > 0:
            raise ValueError("entries with k > i must be structurally zero")
        sums = t.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError(f"row sums deviate from 1 by {np.max(np.abs(sums - 1.0)):.3e}")
        t = np.clip(t, 0.0, None)
        object.__setattr__(self, "table", t)
        self.table.setflags(write=False)

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

    def alice_element(self, i: int) -> np.ndarray:
        """M_i as a diagonal matrix (0-indexed outcome)."""
        diag = np.zeros(self.d)
        diag[: i + 1] = self.table[: i + 1, i]
        return np.diag(diag)


@dataclass(frozen=True)
class TwoWayProtocol:
    """Everything needed to run or analyse one three-step protocol instance."""

    spectrum: SchmidtSpectrum
    delta: DeltaMatrix
    alice_povm: tuple  # M_i for every outcome i
    bob_bases: tuple  # (d, r_i) column arrays, or None for branches that never occur
    final_projectors: dict  # (i, j) -> projector on Alice's side

    @property
    def d(self) -> int:
        return self.delta.d


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


def _column_ratios(lam: np.ndarray, tables: np.ndarray):
    """(live, D, N / D) per column of a batch of (n, d, d) tables, with
    D_i = sum_k l_k d_ki, Alice's outcome probability, and N_i = sum_k
    l_k d_ki**2.  Column i is live when D_i > (i + 1) DENOM_TOL: Bob's at
    most i + 1 outcomes then each have probability at least DENOM_TOL, so
    the protocol never conditions on a zero-probability outcome.  D is 1
    and N / D is 0 on the other columns."""
    den = lam @ tables
    live = den > (np.arange(lam.size) + 1) * DENOM_TOL
    safe = np.where(live, den, 1.0)
    return live, safe, np.where(live, lam @ (tables * tables), 0.0) / safe


def _supports(lam: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(d, d) mask: level k lies in the support S_i of column i when
    l_k d_ki > d eps max_k l_k d_ki, the numerical-rank cutoff that
    build_mub_basis applies to Bob's conditional state.  Branch i gives Bob
    |S_i| outcomes."""
    weights = lam[:, None] * table
    return weights > lam.size * np.finfo(float).eps * weights.max(axis=0)


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
    scale = max(w[0], 0.0)
    cutoff = omega.shape[0] * np.finfo(float).eps * max(scale, 1e-300)
    rank = int(np.sum(w > cutoff))
    if r is not None and r != rank:
        raise ValueError(f"requested rank {r} but omega has numerical rank {rank}")
    if rank == 0:
        raise ValueError("omega has empty support")
    return v[:, :rank] @ _fourier(rank)


def build_two_way_T(s: SchmidtSpectrum, delta: DeltaMatrix):
    """Assemble the full POVM element of the three-step protocol.

    Returns (T, protocol).  In live branch i Bob measures xi_j, the Fourier
    transform of the unit vectors on S_i ordered by descending l_k d_ki
    (ties by ascending k): unbiased for his diagonal conditional state.
    Alice's conditional state is then |v_ij><v_ij| = P_ij, with v_ij
    proportional to sqrt(M_i Lambda) conj(xi_j), and T = W W^dagger for the
    columns u_ij (x) xi_j of W, u_ij = sqrt(M_i) v_ij.
    """
    lam = s.effective
    d = lam.size
    if delta.d != d:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {d}")
    weights = lam[:, None] * delta.table
    live, _, _ = _column_ratios(lam, delta.table[None])
    supports = _supports(lam, delta.table)
    columns, bob_bases, projectors = [], [], {}
    for i in range(d):
        if not live[0, i]:
            bob_bases.append(None)
            continue
        support = np.flatnonzero(supports[:, i])
        support = support[np.argsort(-weights[support, i], kind="stable")]
        xi = np.zeros((d, support.size), dtype=complex)
        xi[support] = _fourier(support.size)
        bob_bases.append(xi)
        v = np.sqrt(weights[:, i, None]) * xi.conj()
        v /= np.linalg.norm(v, axis=0)
        projectors.update(((i, j), np.outer(vj, vj.conj())) for j, vj in enumerate(v.T))
        u = np.sqrt(delta.table[:, i, None]) * v
        columns.append((u[:, None, :] * xi[None, :, :]).reshape(d * d, -1))
    W = np.hstack(columns)
    alice = tuple(delta.alice_element(i) for i in range(d))
    return W @ W.conj().T, TwoWayProtocol(s, delta, alice, tuple(bob_bases), projectors)


def trace_T_batch(lam: np.ndarray, tables: np.ndarray, grad: bool = False, hess: bool = False):
    """The paper's closed form sum_i (i + 1) N_i / D_i over the live columns
    of a batch of (n, d, d) upper-triangular tables: the convex envelope the
    optimiser minimises.  It is the operator's Tr T (trace_T_closed_form)
    when every live column has full support, as at every interior point.

    With grad=True also returns dTr T / dd_ki = (i + 1) l_k (2 d_ki -
    N_i / D_i) / D_i, zero below the diagonal and on dropped columns.  With
    hess=True also returns the (n, d, d, d) column blocks H[n, i, k, k'] =
    d2 Tr T / dd_ki dd_k'i = 2 (i + 1) / D_i (l_k [k = k'] - l_k l_k'
    (d_ki + d_k'i - N_i / D_i) / D_i), zero where k or k' > i and on
    dropped columns; entries of different columns do not interact.
    """
    cols = np.arange(lam.size)
    weights = cols + 1.0
    live, safe, ratio = _column_ratios(lam, tables)
    # A row reduction, not a matrix product, so a table's value does not
    # depend on the batch it is evaluated in.
    value = (ratio * weights).sum(axis=1)
    if not (grad or hess):
        return value
    upper = cols[:, None] <= cols
    scale = np.where(live, weights / safe, 0.0)[:, None, :]
    g = lam[:, None] * (2.0 * tables - ratio[:, None, :]) * scale
    g = np.where(upper, g, 0.0)
    if not hess:
        return value, g
    x = np.swapaxes(tables, 1, 2)[..., None]  # d_ki at [n, i, k, 0]
    coupling = (x + np.swapaxes(x, 2, 3) - ratio[..., None, None]) / safe[..., None, None]
    H = 2.0 * scale[:, 0, :, None, None] * (np.diag(lam) - np.outer(lam, lam) * coupling)
    keep = upper.T[:, :, None] & upper.T[:, None, :]
    return value, g, np.where(keep, H, 0.0)


def trace_T_closed_form(s: SchmidtSpectrum, delta: DeltaMatrix) -> float:
    """Tr T of the protocol build_two_way_T assembles: sum_i r_i N_i / D_i
    over the live columns, with r_i = |S_i| Bob outcomes.  On full support
    r_i = i + 1 and the value is trace_T_batch's to the bit."""
    lam = s.effective
    if delta.d != lam.size:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {lam.size}")
    _, _, ratio = _column_ratios(lam, delta.table[None])
    return float((ratio * _supports(lam, delta.table).sum(axis=0)).sum(axis=1)[0])


def _branch_probabilities(protocol: TwoWayProtocol, source: str):
    """Exact outcome probabilities of the cascade for either source state.

    Returns (level-1 probs including 'lost' mass, per-branch records), where
    each record is (i, p_i, [(p_j_given_i, p_accept_given_ij), ...],
    p_reject_given_i).  On psi = sum_k sqrt(l_k) |kk>: p_i = sum_k l_k m_ki,
    p_i p_j = sum_k l_k m_ki |xi_kj|**2 and p_i p_j p_accept = c^T P_ij
    conj(c) with c_k = sqrt(l_k m_ki) xi_kj.  On the maximally mixed state
    of dimension d**2: Tr M_i / d, Tr M_i / d**2 and Tr(M_i P_ij) / d**2.
    """
    if source not in ("psi", "mixed"):
        raise ValueError(f"source must be 'psi' or 'mixed', got {source!r}")
    lam = SchmidtSpectrum(protocol.spectrum.effective).lambdas
    d = lam.size
    records = []
    for i, (M, xi) in enumerate(zip(protocol.alice_povm, protocol.bob_bases)):
        m = np.diag(M)
        p_i = float(lam @ m) if source == "psi" else float(m.sum()) / d
        if p_i <= DENOM_TOL:
            records.append((i, 0.0, [], 0.0))
            continue
        branch = []
        if xi is not None:
            P = np.array([protocol.final_projectors[(i, j)] for j in range(xi.shape[1])])
            if source == "psi":
                joint = (lam * m) @ np.abs(xi) ** 2
                c = np.sqrt(lam * m)[:, None] * xi
                accepted = np.einsum("kj,jkl,lj->j", c, P, c.conj()).real
            else:
                joint = np.full(xi.shape[1], float(m.sum()) / d**2)
                accepted = np.einsum("k,jkk->j", m, P).real / d**2
            for p_j, acc in zip(np.clip(joint / p_i, 0.0, 1.0).tolist(), accepted.tolist()):
                if p_j <= DENOM_TOL:
                    branch.append((0.0, 0.0))
                    continue
                p_acc = acc / (p_j * p_i)
                # Snap probabilities that are 0 or 1 up to rounding, so the
                # zero-type-1-error property is exact in simulation.
                if p_acc > 1.0 - 1e-12:
                    p_acc = 1.0
                if p_acc < 1e-12:
                    p_acc = 0.0
                branch.append((p_j, p_acc))
        p_reject = max(1.0 - sum(p_j for p_j, _ in branch), 0.0)
        if p_reject < 1e-12:
            p_reject = 0.0
        records.append((i, p_i, branch, p_reject))
    return records


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054):
    """Wilson score confidence interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    phat = successes / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def simulate_protocol(protocol: TwoWayProtocol, source: str, n: int, seed: int = 0):
    """Sample the three-step cascade n times and report the accept rate.

    Each sample follows Alice's Born rule, then Bob's conditional Born rule
    (his reject element declares the mixed state immediately), then Alice's
    final projective check.  Deterministic given (seed, n).  Returns
    (accept_rate, wilson 95% interval).
    """
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must be between 1 and {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)
    records = _branch_probabilities(protocol, source)
    p_first = np.array([rec[1] for rec in records])
    p_first = np.clip(p_first, 0.0, None)
    p_first = p_first / p_first.sum()
    counts_first = rng.multinomial(n, p_first)
    accepted = 0
    for (i, p_i, branch, p_reject), n_i in zip(records, counts_first):
        if n_i == 0 or not branch:
            continue
        probs = np.array([b[0] for b in branch] + [p_reject])
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        counts_second = rng.multinomial(n_i, probs)
        for (p_j, p_acc), n_ij in zip(branch, counts_second[:-1]):
            if n_ij == 0:
                continue
            if p_acc >= 1.0:
                accepted += n_ij
            elif p_acc > 0.0:
                accepted += rng.binomial(n_ij, p_acc)
    rate = accepted / n
    return rate, wilson_interval(accepted, n)
