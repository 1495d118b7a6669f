"""Three-step two-way LOCC discrimination protocol.

Alice measures a diagonal POVM {M_i} built from a feasible coefficient
table, Bob measures a basis that is unbiased for his conditional state, and
Alice finishes with the support projector of her post-measurement state.
The resulting test detects the pure state perfectly, and its type-2 error
has the closed form

    Tr T = sum_i  i * (sum_{k<=i} l_k d_ki**2) / (sum_{k<=i} l_k d_ki),

which this module cross-checks against the assembled operator.  A seeded
Monte Carlo simulator samples the cascade outcome by outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import eig_hermitian, psd_sqrt, support_projection, tensor_sum
from .states import RANK_TOL, SchmidtSpectrum, state_from_spectrum

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


def _rank_one(columns: np.ndarray) -> np.ndarray:
    """(r, d, d) stack of the projectors |c_j><c_j| onto the columns c_j."""
    return columns.T[:, :, None] * columns.T.conj()[:, None, :]


def _branch_occurs(den, i):
    """Whether Alice's outcome i (0-indexed), of probability den on the state,
    keeps a branch; elementwise for arrays.  Bob's at most i + 1 outcomes in
    the branch each have probability den / rank, so gating on den / (i + 1)
    keeps sigma_A from ever conditioning on a zero-probability outcome."""
    return den > (i + 1) * DENOM_TOL


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
    eta = v[:, :rank]
    k = np.arange(rank)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / rank) / np.sqrt(rank)
    return eta @ fourier


def build_two_way_T(s: SchmidtSpectrum, delta: DeltaMatrix):
    """Assemble the full POVM element of the three-step protocol.

    Returns (T, protocol).  T = sum_ij (sqrt(M_i) P_ij sqrt(M_i)) (x) N_j^i
    detects the state perfectly; branches whose Bob outcomes have zero
    probability are skipped entirely, as in trace_T_closed_form.
    """
    lam = s.effective
    d = lam.size
    if delta.d != d:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {d}")
    sqrt_lam = np.sqrt(lam)
    T = np.zeros((d * d, d * d), dtype=complex)
    bob_bases = []
    projectors = {}
    alice = tuple(delta.alice_element(i) for i in range(d))
    for i in range(d):
        weights = lam * np.diag(alice[i])
        den = weights.sum()
        if not _branch_occurs(den, i):
            bob_bases.append(None)
            continue
        omega = np.diag(weights / den)
        xi = build_mub_basis(omega)
        bob_bases.append(xi)
        root = np.sqrt(np.diag(alice[i]))
        N = _rank_one(xi)
        P = support_projection(sigma_A(s, alice[i], N))
        projectors.update(((i, j), Pj) for j, Pj in enumerate(P))
        T += tensor_sum(root[:, None] * P * root, N)  # sqrt(M_i) P sqrt(M_i)
    protocol = TwoWayProtocol(
        spectrum=s,
        delta=delta,
        alice_povm=alice,
        bob_bases=tuple(bob_bases),
        final_projectors=projectors,
    )
    return T, protocol


def trace_T_batch(lam: np.ndarray, tables: np.ndarray, grad: bool = False, hess: bool = False):
    """Closed-form Tr T for a batch of (n, d, d) upper-triangular tables.

    Column i contributes (i + 1) N_i / D_i with D_i = sum_k l_k d_ki and
    N_i = sum_k l_k d_ki**2; columns whose branch never occurs contribute
    nothing.  With grad=True also returns dTr T / dd_ki = (i + 1) l_k
    (2 d_ki - N_i / D_i) / D_i, zero below the diagonal and on dropped
    columns.  With hess=True also returns the (n, d, d, d) column blocks
    H[n, i, k, k'] = d2 Tr T / dd_ki dd_k'i = 2 (i + 1) / D_i (l_k [k = k']
    - l_k l_k' (d_ki + d_k'i - N_i / D_i) / D_i), zero where k or k' > i
    and on dropped columns; entries of different columns do not interact.
    """
    cols = np.arange(lam.size)
    weights = cols + 1.0
    den = lam @ tables
    live = _branch_occurs(den, cols)
    safe = np.where(live, den, 1.0)
    ratio = np.where(live, lam @ (tables * tables), 0.0) / safe
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
    """Closed-form Tr T; zero-weight outcomes contribute nothing."""
    lam = s.effective
    if delta.d != lam.size:
        raise ValueError(f"delta has d = {delta.d}, spectrum has effective rank {lam.size}")
    return float(trace_T_batch(lam, delta.table[None])[0])


def _expectations(X, Y, rho_bd_ac) -> np.ndarray:
    """Tr((X_n (x) Y_n) rho) = sum X_n[c, a] Y_n[e, b] rho[(a, b), (c, e)]
    for (n, d, d) stacks X, Y (either may have n = 1), with rho rearranged
    to rows (b, e) and columns (a, c): two products of O(n d**4), where
    forming X_n (x) Y_n would cost O(n d**6)."""
    partial = np.swapaxes(Y, 1, 2).reshape(len(Y), -1) @ rho_bd_ac  # [n, (a, c)]
    return (np.swapaxes(X, 1, 2).reshape(len(X), -1) * partial).sum(axis=1).real


def _branch_probabilities(protocol: TwoWayProtocol, source: str):
    """Exact outcome probabilities of the cascade for either source state.

    Returns (level-1 probs including 'lost' mass, per-branch records), where
    each record is (i, p_i, [(p_j_given_i, p_accept_given_ij), ...],
    p_reject_given_i).  Every probability is a local expectation
    Tr((X (x) Y) rho): p_i with X = M_i, Y = I; p_i p_j with Y = N_j; and
    p_i p_j p_accept with X = sqrt(M_i) P_ij sqrt(M_i).
    """
    d = protocol.d
    D = d * d
    if source == "psi":
        rho = state_from_spectrum(SchmidtSpectrum(protocol.spectrum.effective)).density()
    elif source == "mixed":
        rho = np.eye(D, dtype=complex) / D
    else:
        raise ValueError(f"source must be 'psi' or 'mixed', got {source!r}")
    rho_bd_ac = rho.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(D, D)
    records = []
    for i in range(d):
        M = protocol.alice_povm[i][None]
        root = np.sqrt(np.diag(M[0]))
        p_i = float(_expectations(M, np.eye(d)[None], rho_bd_ac)[0])
        if p_i <= DENOM_TOL:
            records.append((i, 0.0, [], 0.0))
            continue
        xi = protocol.bob_bases[i]
        branch = []
        covered = 0.0
        if xi is not None:
            N = _rank_one(xi)
            P = np.array([protocol.final_projectors[(i, j)] for j in range(len(N))])
            p_js = np.clip(_expectations(M, N, rho_bd_ac) / p_i, 0.0, 1.0)
            accepted = _expectations(root[:, None] * P * root, N, rho_bd_ac)
            for p_j, acc in zip(p_js.tolist(), accepted.tolist()):
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
                covered += p_j
        p_reject = max(1.0 - covered, 0.0)
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
