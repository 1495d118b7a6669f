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
(a d x d block and a d x d diagonal).  The first two also read a stack of
forms in one call, and a form's value does not depend on the stack.

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
average to zero.  The complement's entries sit at integer flat positions
built once per d (complement_layout): _complement_form writes its pair
terms through them, and the check reads each factor array with one gather
of the orbit entries and one real |.| pass over the rest, making no complex
(pairs, g, d) temporary.  The certified T then has no other entries, so its
spectrum is that of its d x d block plus its d (d - 1) off-diagonal
scalars.  The average keeps the complement seed's invariant entries, so
the appendix identity twirl(seed) = I - T is the complement's comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .states import SchmidtSpectrum


def _squared_moduli(x: np.ndarray) -> np.ndarray:
    # In place: a stacked read then holds one float temporary, not three.
    out = x.real**2
    out += x.imag**2
    return out


def _in_order(x: np.ndarray, axis: int) -> np.ndarray:
    """The sum of x over a nonempty axis, added in index order: the last
    entry of its running sum, which np.cumsum writes over x, a temporary.
    A sum then depends neither on x's other axes nor on its memory
    layout."""
    return np.cumsum(x, axis=axis, out=x).take(-1, axis=axis)


def _totals(weights, per_term: np.ndarray) -> np.ndarray:
    """sum_n w_n x_n for each form of a stack, correctly rounded
    (math.fsum): axis 0 of per_term indexes the forms, its other axes the
    terms.  An exact sum depends neither on the terms' order nor on zero
    terms."""
    x = weights * per_term
    return np.array([math.fsum(row) for row in x.reshape(len(x), -1).tolist()])


def form_traces(weights, a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
    """Tr = sum_n w_n |a_n|**2 |b_n|**2 of each form of a stack: axis 0 of
    a and b indexes the forms, `axis` the factor vectors' entries and every
    other axis the terms; weights broadcast against the terms.  A vector's
    entries are added in index order and the terms exactly, so a form's
    trace depends neither on the stack or layout it is read in nor on zero
    padding terms."""
    norms = _in_order(_squared_moduli(a), axis) * _in_order(_squared_moduli(b), axis)
    return _totals(weights, norms)


def form_schmidt_expectations(weights, a: np.ndarray, b: np.ndarray, lam, axis: int = -1):
    """<psi| form |psi> of each form of a stack (laid out as form_traces
    takes it, and summed as it sums) on the Schmidt state psi = sum_k
    sqrt(l_k) |kk>, dA = dB = len(lam): sum_n w_n |sum_k sqrt(l_k) a_nk
    b_nk|**2."""
    amplitudes = a * b
    amplitudes *= np.sqrt(lam).reshape(-1, *[1] * (a.ndim - 1 - axis % a.ndim))  # along axis
    return _totals(weights, _squared_moduli(_in_order(amplitudes, axis)))


class SeparableForm:
    """A separable operator sum_n w_n |a_n><a_n| (x) |b_n><b_n|.

    Stores read-only copies of the weights (n,) and the factor vectors
    a (n, dA) and b (n, dB).  Every separable operator has this form, and
    each factor |a_n><a_n| is PSD by construction.  trace and
    schmidt_expectation read the form as the stack of one of form_traces
    and form_schmidt_expectations, which read many forms in one call (the
    two-way protocols' accept leaves, say) and give each the value it has
    alone, to the bit.
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
        """Tr = sum_n w_n |a_n|**2 |b_n|**2: form_traces on the stack of one."""
        return float(form_traces(self.weights[None], self.a[None], self.b[None])[0])

    def schmidt_expectation(self, lam) -> float:
        """<psi| form |psi> on the Schmidt state psi = sum_k sqrt(l_k) |kk>
        (dA = dB = len(lam)): form_schmidt_expectations on the stack of one."""
        stack = (self.weights[None], self.a[None], self.b[None])
        return float(form_schmidt_expectations(*stack, lam)[0])

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
    is squared as a float, as one spectrum's would be, and clamped at the
    row's rank, its Cauchy-Schwarz ceiling, which rounding overshoots at
    uniform spectra (2 + 4.4e-16 at (1/2, 1/2))."""
    ranks = np.count_nonzero(lams, axis=1).tolist()
    return [min(root**2, float(r)) for root, r in zip(np.sqrt(lams).sum(axis=1).tolist(), ranks)]


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


class ComplementLayout(NamedTuple):
    """Flat positions into the raveled (terms, d) factor arrays of a d x d
    complement certificate, in _complement_form's term order, all
    read-only.

    Ordered pair p = (ii[p], jj[p]) holds g + 1 consecutive terms, g =
    len(sidon_phase_grid(2)): its g grid terms, whose entries on levels
    (i, j) sit at orbit[p], then its diagonal term, whose a entry on level
    i sits at diag_a[p] and b entry on level j at diag_b[p].  Every other
    entry of a valid certificate is 0.
    """

    ii: np.ndarray  # (pairs,)
    jj: np.ndarray  # (pairs,)
    orbit: np.ndarray  # (pairs, g, 2)
    diag_a: np.ndarray  # (pairs,)
    diag_b: np.ndarray  # (pairs,)


@functools.cache
def complement_layout(d: int) -> ComplementLayout:
    """The ComplementLayout of d x d complement certificates, built once per d."""
    ii, jj = _ordered_pairs(d)
    g = len(sidon_phase_grid(2))
    first = np.arange(ii.size) * ((g + 1) * d)  # each pair's first entry
    rows = first[:, None] + np.arange(g) * d  # (pairs, g): its grid terms' first entries
    orbit = rows[:, :, None] + np.stack([ii, jj], axis=1)[:, None, :]
    last = first + g * d  # the diagonal term's first entry
    layout = ComplementLayout(ii, jj, orbit, last + ii, last + jj)
    for array in layout:
        array.setflags(write=False)
    return layout


def _complement_form(s: SchmidtSpectrum) -> SeparableForm:
    """The certificate of I - T: the complement seed, each pair seed
    averaged over the rows (phase_i, phase_j) of sidon_phase_grid(2).

    For every ordered pair i != j the seed is half the projector onto
    abar_ij (x) bbar_ij, with
        abar_ij = l_j**(1/4) |e_i> - l_i**(1/4) |e_j>,
        bbar_ij = l_j**(1/4) |f_i> + l_i**(1/4) |f_j>,
    plus the already invariant diagonal term q_ij |e_i f_j><e_i f_j|.  The
    terms of pair (i, j) are its grid terms, then its diagonal term, each
    entry written at its complement_layout(d) position.  The average keeps
    the seed's invariant entries (verify_appendix_identity).
    """
    lam = s.lambdas
    d = s.dim
    root4 = lam**0.25
    sq = np.sqrt(lam)
    layout = complement_layout(d)
    ii, jj = layout.ii, layout.jj
    pi, pj = sidon_phase_grid(2).T
    g = len(pi)
    ri, rj = root4[ii][:, None], root4[jj][:, None]
    a = np.zeros(ii.size * (g + 1) * d, dtype=complex)
    b = np.zeros_like(a)
    a[layout.orbit] = np.stack([pi * rj, -pj * ri], axis=2)
    b[layout.orbit] = np.stack([np.conj(pi) * rj, np.conj(pj) * ri], axis=2)
    a[layout.diag_a] = 1.0
    b[layout.diag_b] = 1.0
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
        complement_form=_complement_form(s),
    )


def verify_appendix_identity(s: SchmidtSpectrum, pair=None, target=None) -> float:
    """Max deviation of twirl(complement seed) from I - T, read on the
    complement certificate's invariant entries: they are the seed's, which
    the twirl keeps, and T has no others.  Zero (to rounding) for every
    spectrum; the identity certifies that the complement of the optimal
    test is separable.  pair, build_optimal_separable_povm(s), and T's
    entries target, optimal_test_entries(s), are built unless given.
    """
    if pair is None:
        pair = build_optimal_separable_povm(s)
    if target is None:
        target = optimal_test_entries(s)
    block, diag = target
    i_minus_t = np.eye(len(block)) - block, 1.0 - diag
    return _entries_deviation(pair.complement_form.invariant_entries(), i_minus_t)


def _entries_deviation(entries, target) -> float:
    """Max deviation of invariant entries (block, diag) from target's."""
    (block, diag), (t_block, t_diag) = entries, target
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


def certificate_deviation(pair: SeparablePovmPair, target, entries, appendix: float) -> float:
    """Max deviation of pair from a certificate of the optimal test T of a
    spectrum s: of its forms' invariant entries from those of T and I - T,
    and of their terms from the structure that zeroes every other entry.
    target is T's entries, optimal_test_entries(s), entries T_form's,
    pair.T_form.invariant_entries(), and appendix the complement's
    deviation, verify_appendix_identity(s, pair, target), which the caller
    also reads for other checks."""
    return max(_structure_deviation(pair), _entries_deviation(entries, target), appendix)


def _structure_deviation(pair: SeparablePovmPair) -> float:
    """Max deviation of both certificates from the term structure that makes
    every entry outside the invariant pattern average to exactly 0; inf
    when a phase set fails the integer Sidon test or a term count is off.

    T_form's N terms are its first term under the phase rows of
    sidon_phase_grid(d), N = 2 max(s) + 1.  The complement's terms come in
    blocks per ordered pair (i, j), as _complement_form lays them out: the
    pair seed under sidon_phase_grid(2) on levels (i, j), at equal weights,
    then the diagonal term.  Its factors are read at complement_layout(d)'s
    flat positions: the orbit entries, gathered in one take, against the
    pair grid's rows, and every other entry, which must be 0, in one |.|
    pass that zeroes the orbit entries and the diagonal term's a on level i
    and b on level j, so that term's one entry is the invariant <ij|.|ij>.
    """
    d = pair.T_form.dims[0]
    grid, pair_grid = sidon_phase_grid(d), sidon_phase_grid(2)
    layout = complement_layout(d)
    form, comp = pair.T_form, pair.complement_form
    if not (is_sidon(sidon_set(d)) and is_sidon(sidon_set(2))):
        return np.inf
    g = len(pair_grid)
    if form.weights.size != len(grid) or comp.weights.size != layout.ii.size * (g + 1):
        return np.inf
    w = comp.weights.reshape(layout.ii.size, g + 1)[:, :g]
    return max(
        _orbit_deviation(form.a, form.b, form.weights, grid),
        float(np.abs(w - w[:, :1]).max(initial=0.0)),
        _pair_factor_deviation(comp.a, layout.orbit, layout.diag_a, pair_grid),
        _pair_factor_deviation(comp.b, layout.orbit, layout.diag_b, pair_grid.conj()),
    )


def _pair_factor_deviation(x, orbit, own, grid) -> float:
    """How far the factor array x (terms, d) of a complement certificate is
    from its pair orbits: the entries at orbit (pairs, g, 2) from the images
    of each pair's first grid term under the rows of grid (g, 2), and
    every entry off orbit and off the diagonal terms' own levels own from 0."""
    flat = x.reshape(-1)
    on = flat.take(orbit)
    off = np.abs(flat)
    off[orbit] = 0.0
    off[own] = 0.0
    return max(float(np.abs(on - grid * on[:, :1]).max(initial=0.0)), float(off.max(initial=0.0)))


def distinguishable_set_bound(values, D: int) -> float:
    """Upper bound D / mean(t values) on the size of a perfectly
    distinguishable set of states with the given per-state t values, each
    finite and at least 1, in a finite dimension D > 0."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one t value")
    if not np.isfinite(values).all():
        raise ValueError("t values must be finite")
    if np.min(values) < 1.0 - 1e-9:
        raise ValueError("t values must be >= 1")
    if not 0 < D < np.inf:
        raise ValueError(f"D must be positive and finite, got {D!r}")
    return float(D / values.mean())
