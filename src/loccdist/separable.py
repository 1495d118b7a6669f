"""Separable-POVM discrimination of a pure state against white noise.

Builds the explicit optimal two-outcome separable POVM {T, I - T} for a pure
state with given Schmidt coefficients as the separability certificates of
its two outcomes, and exposes the closed-form error values.  T is held only
as its certificate; its D x D matrix is assembled on request.  A
certificate is a SeparableForm: weights and factor vectors a_n, b_n of
sum_n w_n |a_n><a_n| (x) |b_n><b_n|, PSD term by term by construction.
The package's other product sums, the two-way accept operator and the
one-way matching test, are the same form.  Three kernels read a form
through its vectors, without assembling it: its trace, its expectation on
the Schmidt state sum_k sqrt(l_k) |kk>, and its phase-invariant entries
(a d x d block and a d x d diagonal).

The group average over the diagonal local phase unitaries (the twirl)
pinches an operator onto the invariant subspace spanned by
{|e_j f_k><e_j f_k|, j != k} and {|e_j f_j><e_l f_l|}.  The separable
certificates realise it exactly by averaging over a Sidon phase grid:
phases exp(2 pi i m s_j / N), m = 0..N-1, where s is a Sidon set (all
pairwise sums distinct) and N = 2 max(s) + 1.  A rank-one product term
carries the phase factor phi_i conj(phi_j) conj(phi_k) phi_l, which
averages to zero unless s_i + s_l = s_j + s_k, i.e. unless {i, l} = {j, k}:
exactly the invariant modes.  The T certificate has 2 max(s) + 1 terms
(3 / 7 / 15 / 41 / 89 / 131 at d = 2 / 3 / 4 / 6 / 8 / 9), each pair seed
of the complement 3.

So each certificate is checked exactly without D x D work (D = d**2),
by one function (certificate_deviation): its invariant entries against the
closed form of those of T or I - T (optimal_test_entries, T's one formula),
and its term structure, each term the image of its seed under the grid's
phase rows with an integer Sidon test on s, which makes every other entry
average to zero.  The certified T then has no other entries, so its
spectrum is that of its d x d block plus its d (d - 1) off-diagonal
scalars.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .states import SchmidtSpectrum


def _squared_moduli(x: np.ndarray) -> np.ndarray:
    return x.real**2 + x.imag**2


def _squared_norms(x: np.ndarray) -> np.ndarray:
    return _squared_moduli(x).sum(axis=-1)


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

    def trace(self) -> float:
        """Tr = sum_n w_n |a_n|**2 |b_n|**2."""
        return float(self.weights @ (_squared_norms(self.a) * _squared_norms(self.b)))

    def schmidt_expectation(self, lam) -> float:
        """<psi| form |psi> on the Schmidt state psi = sum_k sqrt(l_k) |kk>
        (dA = dB = len(lam)): sum_n w_n |sum_k sqrt(l_k) a_nk b_nk|**2."""
        amplitudes = (self.a * self.b) @ np.sqrt(lam)
        return float(self.weights @ _squared_moduli(amplitudes))

    def invariant_entries(self):
        """The entries the twirl keeps, (block, diag), on a d x d form:
        block[j, l] = <jj|form|ll> = sum_n w_n c_nj conj(c_nl) with
        c_n = a_n * b_n, and diag[j, k] = <jk|form|jk> = sum_n w_n
        |a_nj|**2 |b_nk|**2.  Each is d x d, whatever the number of terms."""
        c = self.a * self.b
        block = (c.T * self.weights) @ c.conj()
        diag = (_squared_moduli(self.a).T * self.weights) @ _squared_moduli(self.b)
        return block, diag

    def min_term_eigenvalue(self) -> float:
        """Most negative term eigenvalue, 0 for a valid form: rank-one
        factors are PSD, so only a negative weight can go below 0."""
        return float(self.weights.min(initial=0.0))


@dataclass(frozen=True)
class SeparablePovmPair:
    """The optimal separable test {T, I - T}, held as the certificates of
    its two outcomes."""

    T_form: SeparableForm
    complement_form: SeparableForm

    @functools.cached_property
    def T(self) -> np.ndarray:
        """T as a D x D matrix, assembled from its certificate on first access."""
        return self.T_form.assemble()


def sep_traces(lams: np.ndarray) -> list[float]:
    """(sum_k sqrt(l_k))**2 for every row of an (n, d) stack of spectra: Tr T
    of the optimal separable test, so D beta_sep.  Every LOCC test is
    separable, so no three-step protocol has a smaller Tr T.  Each root sum
    is squared as a float, as one spectrum's would be."""
    return [root**2 for root in np.sqrt(lams).sum(axis=1).tolist()]


def beta_sep_pure(s: SchmidtSpectrum, D: int | None = None) -> float:
    """Minimum type-2 error under separable operations, (sum_i sqrt(l_i))**2 / D."""
    if D is None:
        D = s.dim**2
    return sep_traces(s.lambdas[None])[0] / D


def global_robustness_pure(s: SchmidtSpectrum) -> float:
    """Global robustness of entanglement of the pure state, (sum sqrt(l))**2 - 1."""
    return sep_traces(s.lambdas[None])[0] - 1.0


def _invariant_operator(block, diag) -> np.ndarray:
    """The complex operator on a d x d bipartite space whose only entries
    are the invariant ones: diag[j, k] at <jk|.|jk>, then the d x d block
    at <jj|.|ll>, which takes precedence on the diagonal."""
    out = np.diag(np.asarray(diag, dtype=complex).reshape(-1))
    jj = np.arange(len(block)) * (len(block) + 1)  # the flat indices of |jj>
    out[np.ix_(jj, jj)] = block
    return out


def is_sidon(s) -> bool:
    """Whether the nonnegative integers s have every sum s_i + s_j, i <= j,
    distinct.  Then, with N = 2 max(s) + 1, the phase factor
    exp(2 pi i m (s_p - s_q - s_p' + s_q') / N) of an entry averages to
    zero over m = 0..N-1 unless {p, q'} = {q, p'}: |s_p - s_q - s_p' + s_q'|
    is at most N - 1, so it is 0 mod N only when it is 0."""
    sums = [x + y for i, x in enumerate(s) for y in s[i:]]
    return all(x == int(x) >= 0 for x in s) and len(set(sums)) == len(sums)


@functools.cache
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
    """Read-only N x n phase rows exp(2 pi i m s_j / N), m = 0..N-1, with
    s = sidon_set(n) and N = 2 max(s) + 1; each row carries weight 1 / N in
    an average.  Built once per phase set."""
    return _phase_grid(sidon_set(n))


@functools.cache
def _phase_grid(phases: tuple[int, ...]) -> np.ndarray:
    s = np.array(phases)
    N = 2 * s.max() + 1
    grid = np.exp(2j * np.pi * np.outer(np.arange(N), s) / N)
    grid.setflags(write=False)
    return grid


def optimal_test_entries(s: SchmidtSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """The invariant entries (block, diag) of the optimal separable POVM
    element, in SeparableForm.invariant_entries' layout: block[j, l] =
    sqrt(l_j) sqrt(l_l) and diag[j, k] = sqrt(l_j l_k).  T has no other
    entries."""
    root = np.sqrt(s.lambdas)
    return np.outer(root, root), np.sqrt(np.outer(s.lambdas, s.lambdas))


def optimal_test_operator(s: SchmidtSpectrum) -> np.ndarray:
    """The optimal separable POVM element as a D x D matrix:

    T = (sum_i sqrt(l_i)|ii>)(sum_j sqrt(l_j)<jj|)
        + sum_{i != j} sqrt(l_i l_j) |ij><ij|
    """
    return _invariant_operator(*optimal_test_entries(s))


def _ordered_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) over the ordered pairs i != j, row-major."""
    return np.nonzero(~np.eye(d, dtype=bool))


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
    ii, jj = _ordered_pairs(d)
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
        T_form=SeparableForm((d, d), np.full(len(a), 1.0 / len(a)), a, a.conj()),
        complement_form=_complement_form(s, sidon_phase_grid(2)),
    )


def verify_appendix_identity(s: SchmidtSpectrum) -> float:
    """Max deviation of twirl(complement seed) from I - T, read on the
    invariant entries of the seed's form: the twirl zeroes every other
    entry, and T has none.  Zero (to rounding) for every spectrum; the
    identity certifies that the complement of the optimal test is separable.
    """
    return _entries_deviation(_complement_form(s, np.ones((1, 2))), s, complement=True)


def _entries_deviation(form: SeparableForm, s: SchmidtSpectrum, complement: bool) -> float:
    """Max deviation of form's invariant entries from those of T, or of I - T."""
    block, diag = form.invariant_entries()
    t_block, t_diag = optimal_test_entries(s)
    if complement:
        t_block, t_diag = np.eye(s.dim) - t_block, 1.0 - t_diag
    return max(float(np.abs(block - t_block).max()), float(np.abs(diag - t_diag).max()))


def _orbit_deviation(a, b, w, grid) -> float:
    """How far each stack (..., N, n) of terms is from the images of its
    first term under the phase rows of grid (N, n), at equal weights: a
    under the phases, b under their conjugates.  Row 0 of grid is all ones."""
    return max(
        float(np.abs(a - grid * a[..., :1, :]).max(initial=0.0)),
        float(np.abs(b - grid.conj() * b[..., :1, :]).max(initial=0.0)),
        float(np.abs(w - w[..., :1]).max(initial=0.0)),
    )


def certificate_deviation(s: SchmidtSpectrum, pair: SeparablePovmPair) -> float:
    """Max deviation of pair from a certificate of the optimal test T of s:
    of its forms' invariant entries from those of T and I - T, and of their
    terms from the structure that zeroes every other entry."""
    return max(
        _structure_deviation(pair),
        _entries_deviation(pair.T_form, s, complement=False),
        _entries_deviation(pair.complement_form, s, complement=True),
    )


def _structure_deviation(pair: SeparablePovmPair) -> float:
    """Max deviation of both certificates from the term structure that makes
    every entry outside the invariant pattern average to exactly 0; inf
    when a phase set fails the integer Sidon test or a term count is off.

    T_form's N terms are its first term under the phase rows of
    sidon_phase_grid(d), N = 2 max(s) + 1.  The complement's terms come in
    blocks per ordered pair (i, j), as _complement_form lays them out: the
    pair seed under sidon_phase_grid(2) on levels (i, j), then the
    diagonal term.  Every factor of the pair vanishes off levels i and j,
    and the diagonal term's a off level i and b off level j, so its one
    entry is the invariant <ij|.|ij>.
    """
    d = pair.T_form.dims[0]
    grid, pair_grid = sidon_phase_grid(d), sidon_phase_grid(2)
    g = len(pair_grid)
    ii, jj = _ordered_pairs(d)
    form, comp = pair.T_form, pair.complement_form
    if not (is_sidon(sidon_set(d)) and is_sidon(sidon_set(2))):
        return np.inf
    if form.weights.size != len(grid) or comp.weights.size != ii.size * (g + 1):
        return np.inf
    a = comp.a.reshape(ii.size, g + 1, d)
    b = comp.b.reshape(ii.size, g + 1, d)
    w = comp.weights.reshape(ii.size, g + 1)
    on_i, on_j = np.eye(d, dtype=bool)[ii], np.eye(d, dtype=bool)[jj]
    on_pair = (on_i | on_j)[:, None]
    outside = [(a[:, :g], on_pair), (b[:, :g], on_pair), (a[:, g], on_i), (b[:, g], on_j)]
    off = max(float(np.abs(x * ~mask).max(initial=0.0)) for x, mask in outside)
    levels = np.stack([ii, jj], axis=1)[:, None, :]  # (pairs, 1, 2)
    on_levels = [np.take_along_axis(x[:, :g], levels, axis=2) for x in (a, b)]
    return max(
        _orbit_deviation(form.a, form.b, form.weights, grid),
        _orbit_deviation(*on_levels, w[:, :g], pair_grid),
        off,
    )


def distinguishable_set_bound(values, D: int) -> float:
    """Upper bound D / mean(t values) on the size of a perfectly
    distinguishable set of states with the given per-state t values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one t value")
    if np.min(values) < 1.0 - 1e-9:
        raise ValueError("t values must be >= 1")
    return float(D / values.mean())
