"""References for `loccdist verify`: every check as the D x D computation
(D = d**2) that the d x d blocks and factor vectors replace, the readers of
dense operators those computations use, and verify's two-way checks with
one protocol build and one closed form per table.  The dense readers
(twirl, one_way_operator, validate_one_way, numerical_rank,
povm_element_check) serve the tests only; no command needs them.

The tests compare `cli._verify_checks` against `dense_verify_checks`, where
each deviation must agree to rounding, and against
`per_table_verify_checks`, where each must agree to the bit.
`structure_deviation` is the certificate structure check through boolean
level masks, which `separable._structure_deviation` must match to the bit.

`interior_optimum` is the two-way solve's exact oracle: the minimiser in
closed form wherever all its entries are positive.
"""

from __future__ import annotations

import numpy as np

from loccdist.cli import _separable_checks
from loccdist.one_way import build_one_way_test
from loccdist.operators import as_operator, eig_hermitian, support_mask, tensor
from loccdist.optimize import beta_two_way_upper
from loccdist.separable import (
    _invariant_operator,
    _ordered_pairs,
    beta_sep_pure,
    build_optimal_separable_povm,
    is_sidon,
    optimal_test_operator,
    sidon_phase_grid,
    sidon_set,
)
from loccdist.states import MaximallyCorrelatedState, SchmidtSpectrum, state_from_spectrum
from loccdist.two_way import (
    DeltaMatrix,
    build_two_way_protocol,
    build_two_way_T,
    pair_factors,
    random_tables,
    simulate_protocol,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
    uniform_table,
    wilson_interval,
)


def uniform_delta(d: int) -> DeltaMatrix:
    """The uniform table d_ki = 1 / (d - k) as a DeltaMatrix."""
    return DeltaMatrix(uniform_table(d))


def random_delta(d: int, rng: np.random.Generator) -> DeltaMatrix:
    """One random table as a DeltaMatrix: the stack of one of random_tables,
    so that n calls draw, to the bit, the n tables of one n-table call."""
    return DeltaMatrix(random_tables(1, d, rng)[0])


def split_invariant(t) -> tuple[np.ndarray, np.ndarray, float]:
    """The entries of an operator on a d x d bipartite space that `twirl`
    keeps, read in place: (block, diag, outside) with block[j, l] =
    <jj|t|ll>, diag[j, k] = <jk|t|jk> and outside the largest |entry| that
    twirl zeroes, 0.0 for a phase-invariant operator."""
    t = as_operator(t)
    d = round(np.sqrt(len(t)))
    jj = np.arange(d) * (d + 1)
    block = t[np.ix_(jj, jj)]
    diag = t.diagonal().reshape(d, d)
    rest = np.abs(t)
    rest[np.ix_(jj, jj)] = 0.0
    np.fill_diagonal(rest, 0.0)
    return block, diag, float(rest.max(initial=0.0))


def twirl(t) -> np.ndarray:
    """The average of an operator on a d x d bipartite space over the local
    diagonal phase group: the pinching that keeps only the invariant
    entries, those of split_invariant.  Idempotent, positive, trace
    preserving."""
    block, diag, _ = split_invariant(t)
    return _invariant_operator(block, diag)


def numerical_rank(t, tol: float | None = None) -> int:
    """Count of eigenvalues above tol * max eigenvalue (Hermitian PSD input)."""
    return int(support_mask(eig_hermitian(t)[0], tol).sum())


def povm_element_check(t, tol: float = 1e-9) -> bool:
    """True iff every eigenvalue lies in [-tol, 1 + tol] (0 <= T <= I)."""
    w, _ = eig_hermitian(t)
    return not w.size or bool(w[-1] >= -tol and w[0] <= 1.0 + tol)


def one_way_operator(protocol) -> np.ndarray:
    """A OneWayProtocol's T = sum over accepted (i, j) of M_i (x) N_j^i, as
    the loop of tensor products."""
    dA, dB = protocol.dims
    T = np.zeros((dA * dB, dA * dB), dtype=complex)
    for i, j in protocol.accept:
        T += tensor(protocol.alice_povm[i], protocol.bob_povms[i][j])
    return T


def validate_one_way(protocol, tol: float = 1e-10) -> None:
    """Raise ValueError unless Alice's POVM and each of Bob's conditional
    POVMs have PSD elements that resolve the identity."""
    dA, dB = protocol.dims
    for povm, dim in [(protocol.alice_povm, dA)] + [(p, dB) for p in protocol.bob_povms]:
        if np.max(np.abs(sum(povm) - np.eye(dim))) > tol:
            raise ValueError("a POVM does not resolve the identity")
        if any(eig_hermitian(m)[0][-1] < -tol for m in povm):
            raise ValueError("a POVM has a non-PSD element")


def alice_element(delta: DeltaMatrix, i: int) -> np.ndarray:
    """Alice's POVM element M_i of the table as a diagonal matrix
    (0-indexed outcome): M_i = sum_{k <= i} delta[k, i] |k><k|."""
    diag = np.zeros(delta.d)
    diag[: i + 1] = delta.table[: i + 1, i]
    return np.diag(diag)


def complement_terms(s: SchmidtSpectrum, pair_grid) -> list:
    """The complement seed term by term, as (w, |a><a|, |b><b|): for each
    ordered pair i != j, half the projector onto abar_ij (x) bbar_ij under
    each row (phase_i, phase_j) of pair_grid at weight 1 / len(pair_grid),
    then its diagonal term q_ij |e_i f_j><e_i f_j|.  On
    separable.sidon_phase_grid(2) these are the complement certificate's
    terms."""
    lam = s.lambdas
    d = s.dim
    root4 = lam**0.25
    sq = np.sqrt(lam)
    unit = np.eye(d, dtype=complex)
    terms = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for pi, pj in pair_grid:
                abar = np.zeros(d, dtype=complex)
                abar[[i, j]] = pi * root4[j], -pj * root4[i]
                bbar = np.zeros(d, dtype=complex)
                bbar[[i, j]] = np.conj(pi) * root4[j], np.conj(pj) * root4[i]
                terms.append(
                    (0.5 / len(pair_grid), np.outer(abar, abar.conj()), np.outer(bbar, bbar.conj()))
                )
            q = float(lam.sum() - lam[i] - lam[j] + (sq[i] - sq[j]) ** 2)
            terms.append((q, np.diag(unit[i]), np.diag(unit[j])))
    return terms


def complement_seed(s: SchmidtSpectrum) -> np.ndarray:
    """The un-twirled complement seed (pair projectors plus diagonal terms),
    assembled from its terms on the one-row grid of ones."""
    seed = np.zeros((s.dim**2, s.dim**2), dtype=complex)
    for w, A, B in complement_terms(s, np.ones((1, 2))):
        seed += w * np.kron(A, B)
    return seed


def dense_appendix_identity(s: SchmidtSpectrum) -> float:
    """Max deviation of twirl(complement seed) from I - T, on D x D matrices."""
    T = optimal_test_operator(s)
    return float(np.max(np.abs(twirl(complement_seed(s)) - (np.eye(s.dim**2) - T))))


def orbit_deviation(a, b, w, grid) -> float:
    """How far each stack (..., N, n) of terms is from the images of its
    first term under the phase rows of grid (N, n), at equal weights: a
    under the phases, b under their conjugates.  Row 0 of grid is all ones."""
    return max(
        float(np.abs(a - grid * a[..., :1, :]).max(initial=0.0)),
        float(np.abs(b - grid.conj() * b[..., :1, :]).max(initial=0.0)),
        float(np.abs(w - w[..., :1]).max(initial=0.0)),
    )


def structure_deviation(pair) -> float:
    """separable._structure_deviation through boolean level masks: the
    complement's factors reshaped to (pairs, g + 1, d), four masked scans
    of the entries off each term's levels, and its orbit entries gathered
    per pair with take_along_axis."""
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
        orbit_deviation(form.a, form.b, form.weights, grid),
        orbit_deviation(*on_levels, w[:, :g], pair_grid),
        off,
    )


def dense_validity_defect(protocol) -> float:
    """TwoWayProtocol.validity_defect as a loop over branches and outcomes,
    with Alice's POVM from its diagonal elements M_i."""
    d = protocol.d
    alice = [alice_element(protocol.delta, i) for i in range(d)]
    defect = float(np.max(np.abs(sum(alice) - np.eye(d))))
    for i in range(d):
        defect = max(defect, -float(np.linalg.eigvalsh(alice[i])[0]))
        r = int(protocol.outcomes[i])
        xi = protocol.bob[i]
        gram = xi[:, :r].conj().T @ xi[:, :r]
        defect = max(defect, float(np.max(np.abs(gram - np.eye(r)), initial=0.0)))
        for j in range(d):
            want = 1.0 if j < r else 0.0
            defect = max(defect, abs(float(np.linalg.norm(protocol.alice[i, :, j])) - want))
            if j >= r:
                defect = max(defect, float(np.linalg.norm(xi[:, j])))
    return defect


def dense_verify_checks(s: SchmidtSpectrum, seed: int) -> dict:
    """name -> deviation for every verify check but the two Monte Carlo
    ones, from assembled D x D operators and their eigensolves."""
    d = s.rank
    D = s.dim**2
    out = {"appendix-identity": dense_appendix_identity(s)}

    pair = build_optimal_separable_povm(s)
    T = pair.T  # the certified operator, assembled
    w, _ = eig_hermitian(T)
    out["povm-element-range"] = max(-w[-1], w[0] - 1.0, 0.0)
    psi = state_from_spectrum(s).psi
    out["perfect-detection-sep"] = abs(float(np.real(psi.conj() @ T @ psi)) - 1.0)
    out["trace-formula-sep"] = abs(float(np.trace(T).real) - beta_sep_pure(s) * D)
    closed_form = optimal_test_operator(s)
    out["separable-form-assembly"] = max(
        float(np.max(np.abs(T - closed_form))),
        float(np.max(np.abs(pair.complement_form.assemble() - (np.eye(D) - closed_form)))),
    )
    out["separable-form-psd"] = max(
        0.0,
        -min(pair.T_form.min_term_eigenvalue(), pair.complement_form.min_term_eigenvalue()),
    )

    mc = MaximallyCorrelatedState.from_spectrum(s)
    protocol, _ = build_one_way_test(mc)
    T_ow = one_way_operator(protocol)  # the loop of tensor products
    out["perfect-detection-one-way"] = abs(float(np.trace(mc.density() @ T_ow).real) - 1.0)

    rng = np.random.default_rng(seed)
    deltas = [uniform_delta(d)] + [random_delta(d, rng) for _ in range(3)]
    psi_eff = state_from_spectrum(SchmidtSpectrum(s.effective)).psi
    oracle, detect = 0.0, 0.0
    for delta in deltas:
        T, _ = build_two_way_T(s, delta)
        oracle = max(oracle, abs(float(np.trace(T).real) - trace_T_closed_form(s, delta)))
        detect = max(detect, abs(float(np.real(psi_eff.conj() @ T @ psi_eff)) - 1.0))
    out["two-way-trace-oracle"] = oracle
    out["two-way-perfect-detection"] = detect

    result = beta_two_way_upper(s)
    T, protocol = build_two_way_T(s, result.best_delta)
    out["two-way-optimal-trace"] = abs(float(np.trace(T).real) - result.t_value)
    out["two-way-optimal-detection"] = abs(float(np.real(psi_eff.conj() @ T @ psi_eff)) - 1.0)
    out["two-way-optimal-validity"] = dense_validity_defect(protocol)
    return out


def per_table_verify_checks(s: SchmidtSpectrum, mc_samples: int, seed: int):
    """Yield verify's (name, deviation, tolerance) triples, its two-way
    checks with one build_two_way_protocol call and one scalar
    trace_T_closed_form call per oracle table, and the optimal table built
    after them."""
    yield from _separable_checks(s)

    d = s.rank
    lam = s.effective
    rng = np.random.default_rng(seed)
    deltas = [uniform_delta(d)] + [random_delta(d, rng) for _ in range(3)]
    forms = [build_two_way_protocol(s, delta).accept_form() for delta in deltas]
    yield "two-way-trace-oracle", max(
        abs(form.trace() - trace_T_closed_form(s, delta)) for form, delta in zip(forms, deltas)
    ), 1e-9
    yield "two-way-perfect-detection", max(
        abs(form.schmidt_expectation(lam) - 1.0) for form in forms
    ), 1e-9

    result = beta_two_way_upper(s)
    protocol = build_two_way_protocol(s, result.best_delta)
    form = protocol.accept_form()
    yield "two-way-optimal-trace", abs(form.trace() - result.t_value), 1e-9
    yield "two-way-optimal-detection", abs(form.schmidt_expectation(lam) - 1.0), 1e-9
    yield "two-way-optimal-validity", protocol.validity_defect(), 1e-9
    rate_psi, _ = simulate_protocol(protocol, "psi", mc_samples, seed)
    yield "monte-carlo-type-1", abs(rate_psi - 1.0), 0.0
    rate_mix, _ = simulate_protocol(protocol, "mixed", mc_samples, seed + 1)
    beta = result.t_value / d**2
    accepted = min(round(rate_mix * mc_samples), mc_samples)
    lo, hi = wilson_interval(accepted, mc_samples, z=3.0)
    yield "monte-carlo-type-2", abs(rate_mix - beta), max(hi - lo, 1e-12)


def interior_optimum(lam: np.ndarray):
    """The minimiser of the two-way solve's objective for an effective
    spectrum lam (d,) where all its entries are positive, solved from the
    KKT conditions column by column: (table, value, gap), gap being the
    table's Frank-Wolfe gap as the solve computes it, or None when no
    positive table meets the conditions (at l_0 = l_1, say).

    At such a minimum every free entry d_ki of row k has gradient mu_k, the
    row's multiplier.  Column i's term is 1-homogeneous, so its direction y,
    scaled to sum_k l_k y_k = 1, is y_k = N / 2 + mu_k / (2 a l_k) with
    a = i + 1 and N = sum_k l_k y_k**2.  Column 0's term is d_00 itself, so
    mu_0 = 1.  For i >= 1, put L = sum_{k <= i} l_k, P = sum_{k < i} mu_k,
    Q = sum_{k < i} mu_k**2 / l_k and c = 2 a - P: the scaling gives
    N = (c - mu_i) / (a L), and N = sum_k l_k y_k**2 then reads

        (1 - L / l_i) mu_i**2 - 2 c mu_i + c**2 - L Q = 0,

    of whose roots the one with a positive direction is kept.  In the last
    column mu_i is the gradient of d_{d-1,d-1} = 1, which no row sum ties,
    and the same quadratic holds.  The row sums then fix the column scales
    from the last row up.
    """
    d = lam.size
    mu = [1.0]
    directions = np.zeros((d, d))
    directions[0, 0] = 1.0
    for i in range(1, d):
        a, L = i + 1, lam[: i + 1].sum()
        c = 2 * a - sum(mu)
        Q = sum(m * m / l for m, l in zip(mu, lam))
        A = 1.0 - L / lam[i]
        disc = c * c - A * (c * c - L * Q)
        if disc < 0:
            return None
        for root in ((c + np.sqrt(disc)) / A, (c - np.sqrt(disc)) / A):
            y = (c - root) / (2 * a * L) + np.array([*mu, root]) / (2 * a * lam[: i + 1])
            if np.all(y > 0):
                break
        else:
            return None
        mu.append(root)
        directions[: i + 1, i] = y
    scales = np.zeros(d)
    for k in range(d - 1, -1, -1):
        scales[k] = (1.0 - directions[k, k + 1 :] @ scales[k + 1 :]) / directions[k, k]
    if not np.all(scales > 0):
        return None
    table = directions * scales
    table /= table.sum(axis=1, keepdims=True)
    value, g, _ = trace_T_batch(lam, table[None], pair_factors(lam))
    vertex = np.where(table_layout(d).upper, g[0], np.inf).min(axis=1).sum()
    return table, float(value[0]), float((g[0] * table).sum() - vertex)
