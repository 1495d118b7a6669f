import numpy as np

from loccdist.one_way import OneWayProtocol, beta_one_way, build_one_way_test, check_lemma3
from loccdist.operators import eig_hermitian, partial_trace
from loccdist.separable import beta_sep_pure
from loccdist.states import BipartiteState, MaximallyCorrelatedState, spectrum
from reference import numerical_rank, one_way_operator, validate_one_way


def random_psd(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


def random_density(d, rng):
    rho = random_psd(d, rng)
    return rho / np.trace(rho).real


def random_povm(d, n_out, rng):
    """n_out PSD elements resolving the identity."""
    mats = [random_psd(d, rng) + 0.1 * np.eye(d) for _ in range(n_out)]
    total = sum(mats)
    w, v = eig_hermitian(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ m @ inv_sqrt for m in mats]


def test_beta_one_way_two_qubit():
    mc = MaximallyCorrelatedState.from_spectrum(spectrum([0.75, 0.25]))
    assert abs(beta_one_way(mc) - 0.5) <= 1e-12


def test_beta_one_way_qutrit_family():
    mc = MaximallyCorrelatedState.from_spectrum(spectrum([0.8, 0.1, 0.1]))
    assert abs(beta_one_way(mc) - 1.0 / 3.0) <= 1e-12


def test_beta_one_way_product_embedded():
    mc = MaximallyCorrelatedState.from_spectrum(spectrum([1.0, 0.0]))
    dA, dB = mc.dims
    assert dA * dB == 4
    assert abs(beta_one_way(mc) - 0.25) <= 1e-12


def test_build_test_diagonal_alpha():
    mc = MaximallyCorrelatedState(np.diag([0.5, 0.5]), np.eye(2), np.eye(2))
    protocol, T = build_one_way_test(mc)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 1.0
    assert np.max(np.abs(T - expect)) <= 1e-12
    assert abs(np.trace(T).real - 2.0) <= 1e-12
    validate_one_way(protocol)


def test_build_test_pure_state():
    s = spectrum([0.75, 0.25])
    mc = MaximallyCorrelatedState.from_spectrum(s)
    _, T = build_one_way_test(mc)
    rho = mc.density()
    assert abs(np.trace(rho @ T).real - 1.0) <= 1e-10
    # type-2 error of the test against white noise
    assert abs(np.trace(T).real / 4.0 - 0.5) <= 1e-12


def test_build_test_zero_diagonal_excluded():
    alpha = np.diag([0.6, 0.4, 0.0])
    mc = MaximallyCorrelatedState(alpha, np.eye(3), np.eye(3))
    _, T = build_one_way_test(mc)
    assert abs(np.trace(T).real - 2.0) <= 1e-12


def test_one_way_exactness_random_mc_states():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        alpha = random_density(d, rng)
        qa, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        qb, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        mc = MaximallyCorrelatedState(alpha, qa, qb)
        _, T = build_one_way_test(mc)
        rho = mc.density()
        assert abs(np.trace(rho @ T).real - 1.0) <= 1e-10
        rho_a = partial_trace(rho, mc.dims, "A")
        assert abs(np.trace(T).real - numerical_rank(rho_a)) <= 1e-9


def test_build_test_assembles_its_tensor_loop():
    """T, assembled from one_way_test_form, is the protocol's loop of tensor
    products: bit for bit on identity bases, to 1e-14 on random ones."""
    for lam in ([1.0], [0.75, 0.25], [0.5, 0.3, 0.2, 0.0], [0.25] * 4, [0.4, 0.4, 0.2, 0, 0]):
        protocol, T = build_one_way_test(MaximallyCorrelatedState.from_spectrum(spectrum(lam)))
        assert np.array_equal(T, one_way_operator(protocol))
    rng = np.random.default_rng(17)
    for d, extra in ((2, 0), (3, 1), (4, 0), (5, 2)):
        alpha = random_density(d, rng)
        alpha[-1, :] = alpha[:, -1] = 0.0  # one level off the support
        alpha /= np.trace(alpha).real
        qa, qb = (
            np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for n in (d + extra, d)
        )
        protocol, T = build_one_way_test(MaximallyCorrelatedState(alpha, qa, qb))
        assert np.max(np.abs(T - one_way_operator(protocol))) <= 1e-14
        assert abs(np.trace(T).real - (d - 1)) <= 1e-12


def test_lemma_check_on_built_test():
    mc = MaximallyCorrelatedState.from_spectrum(spectrum([0.6, 0.4]))
    protocol, _ = build_one_way_test(mc)
    assert check_lemma3(protocol, mc.to_state())


def test_lemma_check_accept_all():
    eye2 = np.eye(2, dtype=complex)
    protocol = OneWayProtocol(
        alice_povm=(eye2,),
        bob_povms=((eye2,),),
        accept=frozenset({(0, 0)}),
    )
    rng = np.random.default_rng(1)
    st = BipartiteState.from_density(random_density(4, rng), (2, 2))
    assert check_lemma3(protocol, st)


def test_lemma_check_misaligned_product_state():
    # The matching-basis test for the balanced pair misses a product state
    # whose own Schmidt vectors are |+>|+>: Tr(rho T) = 0.5, not 1.
    mc = MaximallyCorrelatedState(np.diag([0.5, 0.5]), np.eye(2), np.eye(2))
    protocol, T = build_one_way_test(mc)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = np.kron(plus, plus)
    st = BipartiteState.from_pure(psi, (2, 2))
    assert abs(np.trace(st.density() @ T).real - 0.5) <= 1e-12
    assert not check_lemma3(protocol, st)


def test_lemma_check_agrees_with_direct_trace():
    rng = np.random.default_rng(2)
    agree_true = 0
    for trial in range(50):
        dA = int(rng.integers(2, 4))
        dB = int(rng.integers(2, 4))
        if trial % 3 == 0:
            # perfect-detection instances: matching test on its own state
            d = min(dA, dB)
            alpha = random_density(d, rng)
            mc = MaximallyCorrelatedState(alpha, np.eye(d), np.eye(d))
            protocol, T = build_one_way_test(mc)
            st = mc.to_state()
        else:
            n_a = int(rng.integers(1, 4))
            alice = random_povm(dA, n_a, rng)
            bobs = tuple(tuple(random_povm(dB, int(rng.integers(1, 4)), rng)) for _ in alice)
            pairs = [(i, j) for i in range(len(alice)) for j in range(len(bobs[i]))]
            take = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
            protocol = OneWayProtocol(
                alice_povm=tuple(alice),
                bob_povms=bobs,
                accept=frozenset(pairs[k] for k in take),
            )
            T = one_way_operator(protocol)
            st = BipartiteState.from_density(random_density(dA * dB, rng), (dA, dB))
        direct = abs(np.trace(st.density() @ T).real - 1.0) <= 1e-9
        assert check_lemma3(protocol, st) == direct
        agree_true += direct
    assert agree_true >= 10  # both branches exercised


def test_ordering_chain_endpoints():
    # rank one and maximally entangled states collapse the chain
    for lam in ([1.0, 0.0], [0.5, 0.5]):
        s = spectrum(lam)
        mc = MaximallyCorrelatedState.from_spectrum(s)
        dA, dB = mc.dims
        bo = beta_one_way(mc)
        bs = beta_sep_pure(s, dA * dB)
        assert bo >= bs - 1e-12
        assert abs(bo - bs) <= 1e-12
    # strict gap in between
    s = spectrum([0.75, 0.25])
    assert beta_one_way(MaximallyCorrelatedState.from_spectrum(s)) > beta_sep_pure(s) + 0.01


def test_equality_without_maximal_correlation():
    # Non-orthogonal Bob vectors still give perfect detection with
    # Tr T = rank rho_A, so the converse of the equality condition fails.
    u = np.eye(2, dtype=complex)
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    a = np.array([[0.5, 0.2], [0.2, 0.5]])
    w1 = np.kron(u[:, 0], v1)
    w2 = np.kron(u[:, 1], v2)
    W = np.stack([w1, w2], axis=1)
    rho = W @ a @ W.conj().T
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    T = np.outer(w1, w1.conj()) + np.outer(w2, w2.conj())
    assert abs(np.trace(rho @ T).real - 1.0) <= 1e-12
    rho_a = partial_trace(rho, (2, 2), "A")
    assert numerical_rank(rho_a) == 2
    assert abs(np.trace(T).real - 2.0) <= 1e-12
    # yet the Bob vectors are not orthogonal: not a correlated-basis state
    assert abs(np.vdot(v1, v2)) > 0.5
