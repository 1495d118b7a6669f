import numpy as np
import pytest

from loccdist.operators import (
    as_operator,
    eig_hermitian,
    is_hermitian,
    numerical_rank,
    partial_trace,
    povm_element_check,
    psd_check,
    psd_sqrt,
    require_hermitian,
    support_mask,
    support_projection,
    tensor,
    tensor_vec,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_psd(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_projectors():
    got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_double_bit_flip():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(tensor(X, X) @ ket00, ket11)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_hermitian(3, rng)
        b = random_hermitian(4, rng)
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12 * (
            1 + abs(np.trace(a) * np.trace(b))
        )


def test_partial_trace_schmidt_form():
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(0.75)
    psi[3] = np.sqrt(0.25)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, (2, 2), "A"), np.diag([0.75, 0.25]), atol=1e-12)
    assert np.allclose(partial_trace(rho, (2, 2), "B"), np.diag([0.75, 0.25]), atol=1e-12)


def test_partial_trace_maximally_mixed():
    assert np.allclose(partial_trace(np.eye(4) / 4, (2, 2), "A"), np.eye(2) / 2)


def test_partial_trace_factorised():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        got = partial_trace(tensor(a, b), (3, 2), "A")
        assert np.max(np.abs(got - a * np.trace(b))) <= 1e-12
        got_b = partial_trace(tensor(a, b), (3, 2), "B")
        assert np.max(np.abs(got_b - b * np.trace(a))) <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    t = random_hermitian(6, rng)
    for keep in ("A", "B"):
        assert abs(np.trace(partial_trace(t, (2, 3), keep)) - np.trace(t)) <= 1e-12 * (
            1 + abs(np.trace(t))
        )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), "A")


def test_eig_descending_diag():
    w, _ = eig_hermitian(np.diag([0.25, 0.75]))
    assert np.allclose(w, [0.75, 0.25])


def test_eig_identity():
    w, _ = eig_hermitian(np.eye(5))
    assert np.allclose(w, np.ones(5))


def test_eig_plus_projector():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    w, v = eig_hermitian(np.outer(plus, plus.conj()))
    assert np.allclose(w, [1.0, 0.0], atol=1e-12)
    overlap = abs(np.vdot(v[:, 0], plus))
    assert abs(overlap - 1.0) <= 1e-10


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5, 8):
        t = random_hermitian(d, rng)
        w, v = eig_hermitian(t)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - t)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_support_projection_diagonal():
    p = support_projection(np.diag([0.3, 0.0, 0.7]))
    assert np.allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_support_projection_zero_matrix():
    assert np.allclose(support_projection(np.zeros((3, 3))), np.zeros((3, 3)))


def test_support_projection_rank_one():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    assert np.max(np.abs(support_projection(proj) - proj)) <= 1e-10


def test_support_projection_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_psd(4, rng)
        p = support_projection(t)
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        scale = np.max(np.abs(np.linalg.eigvalsh(t)))
        assert np.max(np.abs(p @ t @ p - t)) <= 1e-9 * scale


def test_support_projection_rejects_negative():
    with pytest.raises(ValueError):
        support_projection(np.diag([1.0, -0.5]))


def test_povm_element_check_examples():
    assert povm_element_check(np.eye(2) / 2)
    assert not povm_element_check(2 * np.eye(2))


def test_povm_element_check_optimal_separable_test():
    # Optimal separable element for coefficients (0.75, 0.25): the cross
    # weights sqrt(l_i l_j) <= 1 keep it below the identity.
    lam = np.array([0.75, 0.25])
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.sqrt(lam)
    T = np.outer(v, v.conj())
    T[1, 1] += np.sqrt(lam[0] * lam[1])
    T[2, 2] += np.sqrt(lam[0] * lam[1])
    assert povm_element_check(T)


def test_psd_check():
    assert psd_check(np.diag([0.0, 1.0]))
    assert not psd_check(np.diag([-1.0, 1.0]))


def test_psd_sqrt():
    rng = np.random.default_rng(6)
    t = random_psd(5, rng)
    r = psd_sqrt(t)
    assert np.max(np.abs(r @ r - t)) <= 1e-9 * max(np.max(np.abs(t)), 1.0)


def test_numerical_rank():
    assert numerical_rank(np.diag([0.5, 0.0, 0.2])) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_support_mask():
    x = np.array([[1.0, 1e-20], [1e-17, 1e-20]])
    assert np.array_equal(support_mask(x, axis=0), [[True, True], [False, True]])
    assert np.array_equal(support_mask(x), [[True, False], [True, True]])
    # the cutoff is relative: no floor on the largest entry
    assert np.array_equal(support_mask(1e-200 * x, axis=0), support_mask(x, axis=0))
    assert not support_mask(np.array([0.0, -1.0])).any()
    assert np.array_equal(support_mask([0.5, 0.3], tol=0.7), [True, False])


def test_is_hermitian():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_tensor_vec_convention():
    # row (i_a, i_b) -> i_a * dim_b + i_b
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert np.allclose(tensor_vec(u, v), [0.0, 1.0, 0.0, 0.0])


def psd_corpus(d, rng):
    """PSD matrices: random full rank, rank-deficient, tied spectra, zero
    and rank-one members."""
    members = [random_psd(d, rng) for _ in range(3)]
    for rank in range(1, d):
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        members.append(g @ g.conj().T)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    ties = np.repeat([0.7, 0.2], [d - d // 2, d // 2])
    members += [(u * ties) @ u.conj().T, np.eye(d) / d, np.zeros((d, d))]
    return members


def reference_psd_sqrt(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def reference_support_projection(m):
    w, v = np.linalg.eigh(m)
    cols = v[:, w > m.shape[0] * np.finfo(float).eps * max(w[-1], 0.0)]
    return cols @ cols.conj().T


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_kernel_matches_reference(d):
    rng = np.random.default_rng(40 + d)
    corpus = psd_corpus(d, rng)
    for m in corpus:
        w, v = eig_hermitian(m)
        assert np.max(np.abs(w - np.linalg.eigvalsh(m)[::-1])) <= 1e-12
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12
        assert np.max(np.abs(psd_sqrt(m) - reference_psd_sqrt(m))) <= 1e-12
        assert np.max(np.abs(support_projection(m) - reference_support_projection(m))) <= 1e-12
    assert np.max(np.abs(support_projection(corpus[-1]))) == 0.0  # the zero member projects to zero


def test_bad_matrix_raises():
    with pytest.raises(ValueError, match="PSD"):
        psd_sqrt(np.diag([1.0, 0.5, -0.5]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        support_projection(np.diag([1.0, 0.5, -0.5]))
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_single_matrix_functions_reject_stacks():
    stack = np.array([np.eye(2), np.eye(2)])
    for call in (
        lambda: as_operator(stack),
        lambda: is_hermitian(stack),
        lambda: require_hermitian(stack),
        lambda: eig_hermitian(stack),
        lambda: psd_sqrt(stack),
        lambda: support_projection(stack),
        lambda: tensor(stack, np.eye(2)),
        lambda: partial_trace(stack, (1, 2), "A"),
        lambda: numerical_rank(stack),
        lambda: psd_check(stack),
        lambda: povm_element_check(stack),
    ):
        with pytest.raises(ValueError, match="square matrix"):
            call()
