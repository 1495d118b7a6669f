"""Separable-POVM discrimination of a pure state against white noise.

Builds the explicit optimal two-outcome separable POVM {T, I - T} for a pure
state with given Schmidt coefficients, certifies separability of both
outcomes constructively, and exposes the closed-form error values and the
mixed-state lower bound.  A certificate is a SeparableForm: weights and
factor vectors a_n, b_n of sum_n w_n |a_n><a_n| (x) |b_n><b_n|, PSD term
by term by construction.  The package's other product sum, the two-way
accept operator, is assembled through the same form.

The group average over the diagonal local phase unitaries is realised in two
equivalent exact ways:
  * `twirl` pinches an operator onto the invariant subspace spanned by
    {|e_j f_k><e_j f_k|, j != k} and {|e_j f_j><e_l f_l|} (used for
    numerical identities), and
  * the separable certificates average over a Sidon phase grid: phases
    exp(2 pi i m s_j / N), m = 0..N-1, where s is a Sidon set (all pairwise
    sums distinct) and N = 2 max(s) + 1.  A rank-one product term carries
    the phase factor phi_i conj(phi_j) conj(phi_k) phi_l, which averages to
    zero unless s_i + s_l = s_j + s_k, i.e. unless {i, l} = {j, k}: exactly
    the invariant modes kept by `twirl`.  The T certificate has
    2 max(s) + 1 terms (3 / 7 / 15 / 41 / 89 / 131 at d = 2 / 3 / 4 / 6 /
    8 / 9), each pair seed of the complement 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import as_operator
from .states import BipartiteState, SchmidtSpectrum, sqrt_trace_reduced


class SeparableForm:
    """A separable operator sum_n w_n |a_n><a_n| (x) |b_n><b_n|.

    Stores read-only copies of the weights (n,) and the factor vectors
    a (n, dA) and b (n, dB).  Every separable operator has this form, and
    each factor |a_n><a_n| is PSD by construction.
    """

    def __init__(self, dims: tuple[int, int], weights, a, b):
        dA, dB = dims
        self.dims = (dA, dB)
        self.weights = np.array(weights, dtype=float).reshape(-1)
        n = self.weights.size
        self.a = np.array(a, dtype=complex).reshape(n, dA)
        self.b = np.array(b, dtype=complex).reshape(n, dB)
        for stack in (self.weights, self.a, self.b):
            stack.setflags(write=False)

    @property
    def terms(self) -> tuple:
        """The (w, a, b) triples, as views into the stored arrays."""
        return tuple(zip(self.weights, self.a, self.b))

    def assemble(self) -> np.ndarray:
        """sum_n w_n |v_n><v_n| over the product vectors v_n = a_n (x) b_n,
        as one matrix product; same index convention as tensor()."""
        v = (self.a[:, :, None] * self.b[:, None, :]).reshape(-1, self.dims[0] * self.dims[1])
        return (v.T * self.weights) @ v.conj()

    def min_term_eigenvalue(self) -> float:
        """Most negative term eigenvalue, 0 for a valid form: rank-one
        factors are PSD, so only a negative weight can go below 0."""
        return float(self.weights.min(initial=0.0))


@dataclass(frozen=True)
class SeparablePovmPair:
    """The optimal separable test {T, I - T} with both outcomes certified."""

    T: np.ndarray
    T_form: SeparableForm
    complement_form: SeparableForm


def beta_sep_pure(s: SchmidtSpectrum, D: int | None = None) -> float:
    """Minimum type-2 error under separable operations, (sum_i sqrt(l_i))**2 / D."""
    if D is None:
        D = s.dim**2
    return float(np.sum(np.sqrt(s.lambdas)) ** 2 / D)


def global_robustness_pure(s: SchmidtSpectrum) -> float:
    """Global robustness of entanglement of the pure state, (sum sqrt(l))**2 - 1."""
    return float(np.sum(np.sqrt(s.lambdas)) ** 2 - 1.0)


def twirl(t, bases: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Average an operator on a d x d bipartite space over the local diagonal
    phase group of the Schmidt bases.

    Equals the pinching onto the invariant operator subspace: the full block
    on span{|e_j f_j>} survives, plus the diagonal entries at every
    |e_j f_k> with j != k.  Idempotent, positive, trace preserving.

    bases, when given, is a pair (E, F) of orthonormal column matrices
    defining the Schmidt bases; default is the computational basis.
    """
    t = as_operator(t)
    D = t.shape[0]
    d = round(np.sqrt(D))
    if d * d != D:
        raise ValueError(f"operator dim {D} is not a perfect square")
    if bases is not None:
        E, F = bases
        W = np.kron(np.asarray(E, dtype=complex), np.asarray(F, dtype=complex))
        return W @ twirl(W.conj().T @ t @ W) @ W.conj().T
    r = t.reshape(d, d, d, d)
    out = np.zeros_like(r)
    j = np.arange(d)
    # Maximally correlated block: rows (j, j), columns (l, l).
    out[j[:, None], j[:, None], j[None, :], j[None, :]] = r[
        j[:, None], j[:, None], j[None, :], j[None, :]
    ]
    # Product-basis diagonal at j != k.
    jj, kk = np.meshgrid(j, j, indexing="ij")
    off = jj != kk
    out[jj[off], kk[off], jj[off], kk[off]] = r[jj[off], kk[off], jj[off], kk[off]]
    return out.reshape(D, D)


def sidon_set(n: int) -> tuple[int, ...]:
    """The first n terms of the greedy (Mian-Chowla) Sidon sequence from 0:
    0, 1, 3, 7, 12, 20, 30, 44, 65, 80, ..., all sums s_i + s_j (i <= j)
    distinct."""
    s: list[int] = []
    sums: set[int] = set()
    c = 0
    while len(s) < n:
        new = {c + x for x in s} | {2 * c}
        if not new & sums:
            s.append(c)
            sums |= new
        c += 1
    return tuple(s)


def sidon_phase_grid(n: int) -> np.ndarray:
    """N x n phase rows exp(2 pi i m s_j / N), m = 0..N-1, with s = sidon_set(n)
    and N = 2 max(s) + 1; each row carries weight 1 / N in an average."""
    s = np.array(sidon_set(n))
    N = 2 * s[-1] + 1
    return np.exp(2j * np.pi * np.outer(np.arange(N), s) / N)


def optimal_test_operator(s: SchmidtSpectrum) -> np.ndarray:
    """The optimal separable POVM element, assembled directly:

    T = (sum_i sqrt(l_i)|ii>)(sum_j sqrt(l_j)<jj|)
        + sum_{i != j} sqrt(l_i l_j) |ij><ij|
    """
    lam = s.lambdas
    d = s.dim
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = np.sqrt(lam)
    T = np.outer(v, v.conj())
    for i in range(d):
        for j in range(d):
            if i != j:
                T[i * d + j, i * d + j] += np.sqrt(lam[i] * lam[j])
    return T


def _complement_form(s: SchmidtSpectrum, pair_grid: np.ndarray) -> SeparableForm:
    """The complement seed as a separable form, each pair seed averaged over
    the rows (phase_i, phase_j) of pair_grid.

    For every ordered pair i != j the seed is half the projector onto
    abar_ij (x) bbar_ij, with
        abar_ij = l_j**(1/4) |e_i> - l_i**(1/4) |e_j>,
        bbar_ij = l_j**(1/4) |f_i> + l_i**(1/4) |f_j>,
    plus the already invariant diagonal term q_ij |e_i f_j><e_i f_j|.  The
    terms of pair (i, j) are its grid terms, then its diagonal term.
    """
    lam = s.lambdas
    d = s.dim
    root4 = lam**0.25
    sq = np.sqrt(lam)
    ii, jj = np.nonzero(~np.eye(d, dtype=bool))  # ordered pairs, row-major
    pairs = np.arange(ii.size)
    g = len(pair_grid)
    pi, pj = pair_grid[:, 0], pair_grid[:, 1]
    # Factor vectors (pairs, grid rows + 1, d); the last row is the diagonal term.
    a = np.zeros((ii.size, g + 1, d), dtype=complex)
    b = np.zeros_like(a)
    a[pairs, :g, ii] = pi * root4[jj][:, None]
    a[pairs, :g, jj] = -pj * root4[ii][:, None]
    b[pairs, :g, ii] = np.conj(pi) * root4[jj][:, None]
    b[pairs, :g, jj] = np.conj(pj) * root4[ii][:, None]
    a[pairs, g, ii] = 1.0
    b[pairs, g, jj] = 1.0
    q = lam.sum() - lam[ii] - lam[jj] + (sq[ii] - sq[jj]) ** 2
    w = np.concatenate([np.full((ii.size, g), 0.5 / g), q[:, None]], axis=1)
    return SeparableForm((d, d), w, a, b)


def build_optimal_separable_povm(s: SchmidtSpectrum) -> SeparablePovmPair:
    """Construct {T, I - T} with explicit separable forms for both outcomes.

    T is the Sidon-grid phase average of the product seed |a><a| (x) |b><b|
    with a = b = sum_i l_i**(1/4) |i>; its complement is the average of the
    complement seed, whose pair terms involve only two phases each.
    """
    d = s.dim
    a = sidon_phase_grid(d) * s.lambdas**0.25
    return SeparablePovmPair(
        T=optimal_test_operator(s),
        T_form=SeparableForm((d, d), np.full(len(a), 1.0 / len(a)), a, a.conj()),
        complement_form=_complement_form(s, sidon_phase_grid(2)),
    )


def complement_seed(s: SchmidtSpectrum) -> np.ndarray:
    """The un-twirled complement seed (pair projectors plus diagonal terms)."""
    return _complement_form(s, np.ones((1, 2))).assemble()


def verify_appendix_identity(s: SchmidtSpectrum) -> float:
    """Max deviation of twirl(complement seed) from I - T.

    Zero (to rounding) for every spectrum; the identity is what certifies
    that the complement of the optimal test is itself separable.
    """
    d = s.dim
    T = optimal_test_operator(s)
    averaged = twirl(complement_seed(s))
    dev = averaged - (np.eye(d * d) - T)
    return float(np.max(np.abs(dev)))


def sep_lower_bound_mixed(state: BipartiteState) -> float:
    """Lower bound max{(Tr sqrt(rho_A))**2, (Tr sqrt(rho_B))**2} / D.

    Tight for pure states, where it equals beta_sep_pure.
    """
    tA, tB = sqrt_trace_reduced(state)
    return max(tA, tB) / state.total_dim


def distinguishable_set_bound(values, D: int) -> float:
    """Upper bound D / mean(t values) on the size of a perfectly
    distinguishable set of states with the given per-state t values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one t value")
    if np.min(values) < 1.0 - 1e-9:
        raise ValueError("t values must be >= 1")
    return float(D / values.mean())
