import numpy as np
import pytest

from loccdist.operators import eig_hermitian
from loccdist.separable import (
    SeparableForm,
    _complement_form,
    _structure_deviation,
    beta_sep_pure,
    build_optimal_separable_povm,
    distinguishable_set_bound,
    global_robustness_pure,
    is_sidon,
    optimal_test_entries,
    optimal_test_operator,
    sep_traces,
    sidon_phase_grid,
    sidon_set,
    verify_appendix_identity,
)
from loccdist.states import spectrum, state_from_spectrum
from reference import (
    complement_seed,
    dense_appendix_identity,
    povm_element_check,
    split_invariant,
    twirl,
)


def random_spectrum(d, rng):
    return spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1])


def test_beta_sep_endpoints():
    assert abs(beta_sep_pure(spectrum([0.5, 0.5]), 4) - 0.5) <= 1e-15
    assert abs(beta_sep_pure(spectrum([1.0]), 4) - 0.25) <= 1e-15


def test_beta_sep_two_qubit_value():
    got = beta_sep_pure(spectrum([0.75, 0.25]), 4)
    assert abs(got - 0.4665064) <= 1e-7
    # same number through the two-qubit closed form
    lam = 0.25
    assert abs(got - (0.25 + 0.5 * np.sqrt(lam * (1 - lam)))) <= 1e-12


def test_beta_sep_bounds_and_symmetry():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        s = random_spectrum(d, rng)
        D = d * d
        val = beta_sep_pure(s)
        assert 1.0 / D - 1e-12 <= val <= s.rank / D + 1e-12
        shuffled = spectrum(rng.permutation(s.lambdas))
        assert abs(beta_sep_pure(shuffled) - val) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 32])
def test_stacked_separable_trace_is_each_spectrum_alone(d):
    """sep_traces squares each root sum as one float, as the scalar
    formula does: numpy's array square can round differently from a
    scalar power, so every row must match the loop below bit for bit."""
    rng = np.random.default_rng(d)
    lams = np.sort(rng.dirichlet(np.ones(d), size=200), axis=1)[:, ::-1]
    reference = [float(np.sum(np.sqrt(lam)) ** 2) for lam in lams]
    assert sep_traces(lams) == reference
    assert [beta_sep_pure(spectrum(lam)) for lam in lams[:5]] == [x / d**2 for x in reference[:5]]


def test_global_robustness():
    assert abs(global_robustness_pure(spectrum([0.5, 0.5])) - 1.0) <= 1e-12
    assert abs(global_robustness_pure(spectrum([1.0]))) <= 1e-12


def test_build_povm_rank_one():
    pair = build_optimal_separable_povm(spectrum([1.0]))
    assert np.allclose(pair.T, [[1.0]])
    assert np.allclose(pair.complement_form.assemble(), np.zeros((1, 1)))


def test_build_povm_bell():
    pair = build_optimal_separable_povm(spectrum([0.5, 0.5]))
    phi = np.zeros(4)
    phi[0] = phi[3] = np.sqrt(0.5)
    expect = np.outer(phi, phi)
    expect[1, 1] += 0.5
    expect[2, 2] += 0.5
    assert np.max(np.abs(pair.T - expect)) <= 1e-12
    assert abs(np.trace(pair.T).real - 2.0) <= 1e-10


def test_build_povm_two_qubit_values():
    s = spectrum([0.75, 0.25])
    pair = build_optimal_separable_povm(s)
    assert abs(np.trace(pair.T).real - 1.8660254) <= 1e-7
    psi = state_from_spectrum(s).psi
    assert abs((psi.conj() @ pair.T @ psi).real - 1.0) <= 1e-10


def test_twirl_identity_invariant():
    assert np.max(np.abs(twirl(np.eye(9)) - np.eye(9))) <= 1e-15


def test_twirl_annihilates_off_invariant_element():
    d = 2
    m = np.zeros((4, 4), dtype=complex)
    m[0 * d + 1, 1 * d + 0] = 1.0  # |e1 f2><e2 f1|
    assert np.max(np.abs(twirl(m))) <= 1e-15


def test_twirl_of_product_seed_gives_optimal_element():
    s = spectrum([0.75, 0.25])
    root4 = s.lambdas**0.25
    seed = np.kron(np.outer(root4, root4), np.outer(root4, root4))
    assert np.max(np.abs(twirl(seed) - optimal_test_operator(s))) <= 1e-12


@pytest.mark.parametrize("lam", [[0.75, 0.25], [0.5, 0.3, 0.2, 0.0], [0.4, 0.2, 0.2, 0.1, 0.1]])
def test_optimal_test_operator_is_its_entrywise_definition(lam):
    """The indexed diagonal add gives the entrywise definition's T to the bit."""
    s = spectrum(lam)
    d = s.dim
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = np.sqrt(s.lambdas)
    expected = np.outer(v, v.conj())
    for i in range(d):
        for j in range(d):
            if i != j:
                expected[i * d + j, i * d + j] += np.sqrt(s.lambdas[i] * s.lambdas[j])
    assert np.array_equal(optimal_test_operator(s).view(np.uint64), expected.view(np.uint64))


def test_twirl_is_idempotent_positive_trace_preserving():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        t = g @ g.conj().T
        out = twirl(t)
        assert np.max(np.abs(twirl(out) - out)) <= 1e-12
        assert abs(np.trace(out) - np.trace(t)) <= 1e-12 * (1 + abs(np.trace(t)))
        w, _ = eig_hermitian(out)
        assert w[-1] >= -1e-10


def test_twirl_linear():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = twirl(2.0 * a + 3.0 * b)
    rhs = 2.0 * twirl(a) + 3.0 * twirl(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_appendix_identity_examples():
    assert verify_appendix_identity(spectrum([0.5, 0.5])) <= 1e-9
    assert verify_appendix_identity(spectrum([0.8, 0.1, 0.1])) <= 1e-9


def test_appendix_identity_random_d5():
    rng = np.random.default_rng(4)
    assert verify_appendix_identity(random_spectrum(5, rng)) <= 1e-9


def test_complement_seed_is_positive():
    rng = np.random.default_rng(5)
    s = random_spectrum(3, rng)
    w, _ = eig_hermitian(complement_seed(s))
    assert w[-1] >= -1e-10


def test_povm_corpus_invariants():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        s = random_spectrum(d, rng)
        pair = build_optimal_separable_povm(s)
        assert povm_element_check(pair.T, 1e-10)
        psi = state_from_spectrum(s).psi
        assert abs((psi.conj() @ pair.T @ psi).real - 1.0) <= 1e-10
        assert abs(np.trace(pair.T).real - np.sum(np.sqrt(s.lambdas)) ** 2) <= 1e-10
        assert pair.T_form.min_term_eigenvalue() >= -1e-10
        assert pair.complement_form.min_term_eigenvalue() >= -1e-10
        closed = optimal_test_operator(s)
        assert np.max(np.abs(pair.T_form.assemble() - closed)) <= 1e-9
        eye = np.eye(d * d)
        assert np.max(np.abs(pair.complement_form.assemble() - (eye - closed))) <= 1e-9
        assert verify_appendix_identity(s) <= 1e-9


def _check_sidon_certificates(s):
    d = s.dim
    pair = build_optimal_separable_povm(s)
    closed = optimal_test_operator(s)
    assert np.max(np.abs(pair.T_form.assemble() - closed)) <= 1e-9
    eye = np.eye(d * d)
    assert np.max(np.abs(pair.complement_form.assemble() - (eye - closed))) <= 1e-9
    assert pair.T_form.min_term_eigenvalue() >= -1e-10
    assert pair.complement_form.min_term_eigenvalue() >= -1e-10
    assert len(pair.T_form.terms) == 2 * max(sidon_set(d)) + 1


def test_sidon_grid_certificates_random_d1_to_16():
    rng = np.random.default_rng(7)
    for d in range(1, 17):
        _check_sidon_certificates(random_spectrum(d, rng))


def test_sidon_grid_certificates_zero_padded_to_d9():
    rng = np.random.default_rng(8)
    for rank in (2, 3, 4):
        padded = np.zeros(9)
        padded[:rank] = random_spectrum(rank, rng).lambdas
        _check_sidon_certificates(spectrum(padded))


def test_sidon_set_is_sidon():
    assert sidon_set(10) == (0, 1, 3, 7, 12, 20, 30, 44, 65, 80)
    for n in range(1, 17):
        s = sidon_set(n)
        assert len(s) == n
        sums = [a + b for k, a in enumerate(s) for b in s[k:]]
        assert len(sums) == len(set(sums))


def test_sidon_phase_grid_is_built_once_and_read_only():
    for n in (1, 2, 3, 9):
        grid = sidon_phase_grid(n)
        assert sidon_phase_grid(n) is grid
        assert grid.shape == (2 * max(sidon_set(n)) + 1, n)
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


def test_distinguishable_set_bound():
    assert abs(distinguishable_set_bound([1, 1, 1, 1], 4) - 4.0) <= 1e-12
    assert abs(distinguishable_set_bound([2, 2], 4) - 2.0) <= 1e-12
    assert abs(distinguishable_set_bound([1, 2, 1], 9) - 6.75) <= 1e-12
    with pytest.raises(ValueError):
        distinguishable_set_bound([], 4)
    with pytest.raises(ValueError):
        distinguishable_set_bound([0.5], 4)


def equivalence_spectra():
    """Random, tied, zero-padded (rank 2..4 -> d = 9) and 7 x 1/7 spectra."""
    rng = np.random.default_rng(30)
    out = [random_spectrum(d, rng) for d in range(1, 11)]
    out += [spectrum([0.4, 0.4, 0.2]), spectrum([0.3, 0.3, 0.2, 0.2]), spectrum([1 / 7] * 7)]
    for rank in (2, 3, 4):
        padded = np.zeros(9)
        padded[:rank] = random_spectrum(rank, rng).lambdas
        out.append(spectrum(padded))
    return out


def reference_complement_terms(s, pair_grid):
    """The pair seed term by term: for each ordered pair i != j, its grid
    terms, then its diagonal term."""
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


def test_complement_form_matches_term_loop():
    for s in equivalence_spectra():
        for grid in (sidon_phase_grid(2), np.ones((1, 2))):
            form = _complement_form(s, grid)
            ref = reference_complement_terms(s, grid)
            assert len(form.terms) == len(ref)
            for (w, a, b), (w_ref, A_ref, B_ref) in zip(form.terms, ref):
                assert abs(w - w_ref) <= 1e-15
                assert np.max(np.abs(np.outer(a, a.conj()) - A_ref)) <= 1e-15
                assert np.max(np.abs(np.outer(b, b.conj()) - B_ref)) <= 1e-15


def test_min_term_eigenvalue_matches_per_factor_loop():
    for s in equivalence_spectra():
        pair = build_optimal_separable_povm(s)
        for form in (pair.T_form, pair.complement_form):
            for _, a, b in form.terms:
                assert np.linalg.eigvalsh(np.outer(a, a.conj()))[0] >= -1e-12
                assert np.linalg.eigvalsh(np.outer(b, b.conj()))[0] >= -1e-12
            assert form.min_term_eigenvalue() == 0.0
    rng = np.random.default_rng(32)
    w = rng.random(4)
    w[2] = -0.25
    form = SeparableForm((2, 3), w, rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))
    assert form.min_term_eigenvalue() == -0.25


def test_separable_form_assembles_and_holds_read_only_copies():
    rng = np.random.default_rng(31)
    w = rng.random(5)
    a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    form = SeparableForm((2, 3), w, a, b)
    assert len(form.terms) == 5
    ref = sum(
        wn * np.kron(np.outer(an, an.conj()), np.outer(bn, bn.conj()))
        for wn, an, bn in zip(w, a, b)
    )
    assembled = form.assemble()
    assert np.max(np.abs(assembled - ref)) <= 1e-12
    w[0], a[0], b[0] = 0.0, 0.0, 0.0  # the form holds its own copies
    assert np.array_equal(form.assemble(), assembled)
    for stored in (form.weights, form.a, form.b):
        with pytest.raises(ValueError):
            stored[0] = 1.0
    empty = SeparableForm((2, 3), [], np.zeros((0, 2)), np.zeros((0, 3)))
    assert len(empty.terms) == 0 and empty.min_term_eigenvalue() == 0.0
    assert np.array_equal(empty.assemble(), np.zeros((6, 6)))


def random_form(rng, n, d):
    """A random complex d x d form of n terms with positive weights."""
    a = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    b = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return SeparableForm((d, d), rng.random(n), a, b)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_form_kernels_match_the_assembled_operator(d):
    """trace, schmidt_expectation and invariant_entries read from the
    vectors what the assembled operator holds."""
    rng = np.random.default_rng(40 + d)
    lam = spectrum(rng.dirichlet(np.ones(d))).lambdas
    psi = state_from_spectrum(spectrum(lam)).psi
    for n in (0, 1, 7):
        form = random_form(rng, n, d)
        F = form.assemble()
        scale = max(1.0, float(np.abs(F).max()))
        assert abs(form.trace() - np.trace(F).real) <= 1e-13 * scale * d * d
        assert abs(form.schmidt_expectation(lam) - (psi.conj() @ F @ psi).real) <= 1e-13 * scale
        block, diag = form.invariant_entries()
        dense_block, dense_diag, _ = split_invariant(F)
        assert np.max(np.abs(block - dense_block)) <= 1e-13 * scale
        assert np.max(np.abs(diag - dense_diag)) <= 1e-13 * scale


def test_split_invariant_reads_what_twirl_keeps():
    rng = np.random.default_rng(41)
    for d in (1, 2, 4):
        t = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        block, diag, outside = split_invariant(t)
        kept = twirl(t)
        assert np.array_equal(split_invariant(kept)[0], block)
        assert np.array_equal(split_invariant(kept)[1], diag)
        assert split_invariant(kept)[2] == 0.0
        assert outside == np.abs(t - kept).max()


@pytest.mark.parametrize("s", equivalence_spectra(), ids=lambda s: f"d{s.dim}")
def test_optimal_test_entries_are_those_of_the_operator(s):
    block, diag, outside = split_invariant(optimal_test_operator(s))
    want_block, want_diag = optimal_test_entries(s)
    assert outside == 0.0
    assert np.max(np.abs(block - want_block)) <= 1e-15
    assert np.max(np.abs(diag - want_diag)) <= 1e-15


@pytest.mark.parametrize("s", equivalence_spectra(), ids=lambda s: f"d{s.dim}")
def test_appendix_identity_matches_its_dense_reference(s):
    assert abs(verify_appendix_identity(s) - dense_appendix_identity(s)) <= 1e-12


def test_is_sidon():
    assert is_sidon(()) and is_sidon((0,)) and is_sidon((0, 1, 3, 7))
    assert not is_sidon((0, 1, 2))  # 0 + 2 = 1 + 1
    assert not is_sidon((0, 3, 3))
    assert not is_sidon((-1, 0, 2))
    assert not is_sidon((0, 1.5))


@pytest.mark.parametrize("s", equivalence_spectra(), ids=lambda s: f"d{s.dim}")
def test_certificates_have_the_sidon_orbit_structure(s):
    assert _structure_deviation(build_optimal_separable_povm(s)) == 0.0
