import numpy as np
import pytest

from loccdist.operators import eig_hermitian, povm_element_check, support_projection
from loccdist.states import spectrum, state_from_spectrum
from loccdist.optimize import beta_two_way_upper
from loccdist.two_way import (
    DENOM_TOL,
    MAX_SAMPLES,
    DeltaMatrix,
    ZeroProbabilityError,
    _branch_probabilities,
    build_mub_basis,
    build_two_way_T,
    sigma_A,
    simulate_protocol,
    trace_T_batch,
    trace_T_closed_form,
    wilson_interval,
)

OPT_DELTA_EIGHTH = (1.0 - np.sqrt(0.25)) / (1.0 - 0.125)  # 4/7 at lam = 1/8


def random_spectrum(d, rng):
    return spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1])


def random_psd(d, rng, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_delta_validation():
    with pytest.raises(ValueError):
        DeltaMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]))  # row sum 0.9
    with pytest.raises(ValueError):
        DeltaMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))  # structural zero broken
    with pytest.raises(ValueError):
        DeltaMatrix(np.array([[1.5, -0.5], [0.0, 1.0]]))  # negative entry
    with pytest.raises(ValueError):
        DeltaMatrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))  # NaN fails every comparison
    with pytest.raises(ValueError):
        DeltaMatrix(np.array([[np.inf, -np.inf], [0.0, 1.0]]))


def test_delta_constructors():
    u = DeltaMatrix.uniform(3)
    assert np.allclose(u.table.sum(axis=1), 1.0)
    ow = DeltaMatrix.one_way(3)
    assert np.allclose(ow.table[:, 2], 1.0)
    q = DeltaMatrix.qubit(0.25)
    assert np.allclose(q.table, [[0.25, 0.75], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    r = DeltaMatrix.random(4, rng)
    assert np.allclose(r.table.sum(axis=1), 1.0)
    assert np.min(r.table) >= 0


def test_delta_alice_povm_resolves_identity():
    rng = np.random.default_rng(1)
    delta = DeltaMatrix.random(4, rng)
    total = sum(delta.alice_element(i) for i in range(4))
    assert np.max(np.abs(total - np.eye(4))) <= 1e-12


def test_sigma_no_backaction():
    s = spectrum([0.6, 0.3, 0.1])
    sig = sigma_A(s, np.eye(3), np.eye(3))
    assert np.max(np.abs(sig - np.diag(s.lambdas))) <= 1e-12


def test_sigma_steering_to_plus():
    s = spectrum([0.5, 0.5])
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(plus, plus.conj())
    sig = sigma_A(s, np.eye(2), proj)
    assert np.max(np.abs(sig - proj)) <= 1e-12


def test_sigma_rank_one_conditioning():
    s = spectrum([0.75, 0.25])
    m = np.diag([1.0, 0.0])
    sig = sigma_A(s, m, np.eye(2))
    assert np.max(np.abs(sig - np.diag([1.0, 0.0]))) <= 1e-12


def test_sigma_zero_probability():
    s = spectrum([0.75, 0.25])
    with pytest.raises(ZeroProbabilityError):
        sigma_A(s, np.zeros((2, 2)), np.eye(2))


def test_mub_balanced():
    xi = build_mub_basis(np.diag([0.5, 0.5]), r=2)
    assert xi.shape == (2, 2)
    assert np.max(np.abs(xi.conj().T @ xi - np.eye(2))) <= 1e-12
    omega = np.diag([0.5, 0.5])
    for j in range(2):
        assert abs((xi[:, j].conj() @ omega @ xi[:, j]).real - 0.5) <= 1e-12


def test_mub_skewed():
    omega = np.diag([0.9, 0.1])
    xi = build_mub_basis(omega)
    for j in range(2):
        assert abs((xi[:, j].conj() @ omega @ xi[:, j]).real - 0.5) <= 1e-9


def test_mub_rank_one():
    omega = np.diag([1.0, 0.0])
    xi = build_mub_basis(omega)
    assert xi.shape == (2, 1)
    assert abs((xi[:, 0].conj() @ omega @ xi[:, 0]).real - 1.0) <= 1e-12


def test_mub_rank_mismatch():
    with pytest.raises(ValueError):
        build_mub_basis(np.diag([0.5, 0.5, 0.0]), r=3)


def test_mub_random_corpus():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        rank = int(rng.integers(1, dim + 1))
        omega = random_psd(dim, rng, rank)
        xi = build_mub_basis(omega)
        r = xi.shape[1]
        assert np.max(np.abs(xi.conj().T @ xi - np.eye(r))) <= 1e-10
        for j in range(r):
            val = (xi[:, j].conj() @ omega @ xi[:, j]).real
            assert abs(val - 1.0 / r) <= 1e-9


def test_build_T_trivial_first_measurement():
    s = spectrum([0.75, 0.25])
    T, _ = build_two_way_T(s, DeltaMatrix.one_way(2))
    assert abs(np.trace(T).real - 2.0) <= 1e-10
    assert povm_element_check(T, 1e-9)


def test_build_T_optimal_two_qubit():
    s = spectrum([7 / 8, 1 / 8])
    T, _ = build_two_way_T(s, DeltaMatrix.qubit(OPT_DELTA_EIGHTH))
    assert abs(np.trace(T).real / 4.0 - 0.428571) <= 1e-6
    psi = state_from_spectrum(s).psi
    assert abs((psi.conj() @ T @ psi).real - 1.0) <= 1e-9


def test_build_T_uniform_spectrum_any_delta():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        s = spectrum([1.0 / d] * d)
        delta = DeltaMatrix.random(d, rng)
        T, _ = build_two_way_T(s, delta)
        assert np.trace(T).real / (d * d) >= 1.0 / d - 1e-9
        assert povm_element_check(T, 1e-9)


def test_closed_form_single_outcome():
    for d in (2, 3, 4):
        s = spectrum([1.0 / d] * d)
        assert abs(trace_T_closed_form(s, DeltaMatrix.one_way(d)) - d) <= 1e-12


def test_closed_form_hand_arithmetic():
    s = spectrum([0.5, 0.5])
    delta = DeltaMatrix.qubit(1.0)
    # The envelope weights column 1 by 2: beta 0.75, worse than one-way.
    assert abs(trace_T_batch(s.effective, delta.table[None])[0] - 3.0) <= 1e-12
    # The operator measures both levels locally, |00><00| + |11><11|: Bob's
    # conditional state in branch 1 is |1><1|, so he has one outcome.
    assert abs(trace_T_closed_form(s, delta) - 2.0) <= 1e-12


def test_closed_form_matches_operator_at_optimum():
    s = spectrum([7 / 8, 1 / 8])
    delta = DeltaMatrix.qubit(OPT_DELTA_EIGHTH)
    T, _ = build_two_way_T(s, delta)
    closed = trace_T_closed_form(s, delta)
    assert abs(closed - 4 * 0.4285714285714286) <= 1e-9
    assert abs(np.trace(T).real - closed) <= 1e-9


def test_oracle_equivalence_corpus():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        s = random_spectrum(d, rng)
        delta = DeltaMatrix.random(d, rng)
        T, _ = build_two_way_T(s, delta)
        assert abs(np.trace(T).real - trace_T_closed_form(s, delta)) <= 1e-9
        psi = state_from_spectrum(s).psi
        assert abs((psi.conj() @ T @ psi).real - 1.0) <= 1e-9
    # The batched objective on random, degenerate and zero-padded spectra,
    # including tables with empty columns.
    spectra = [random_spectrum(d, rng) for d in (2, 3, 4, 5)]
    spectra += [spectrum([0.4, 0.2, 0.2, 0.2]), spectrum([1 / 3] * 3)]
    spectra += [spectrum([0.5, 0.3, 0.2, 0.0, 0.0]), spectrum([0.7, 0.3, 0.0])]
    for s in spectra:
        d = s.rank
        deltas = [DeltaMatrix.random(d, rng) for _ in range(3)]
        deltas += [DeltaMatrix.uniform(d), DeltaMatrix.one_way(d)]
        values = trace_T_batch(s.effective, np.stack([delta.table for delta in deltas]))
        for delta, value in zip(deltas, values):
            T, _ = build_two_way_T(s, delta)
            assert abs(np.trace(T).real - value) <= 1e-9
            assert value == trace_T_closed_form(s, delta)
    # Sparse tables: a live column with a zero (or 1e-300) on {0..i} gives Bob
    # fewer than i + 1 outcomes, and the operator's trace drops below the
    # envelope's.
    for s in spectra:
        lam = s.effective
        d = lam.size
        psi = state_from_spectrum(spectrum(lam)).psi
        base = DeltaMatrix.random(d, rng).table
        rows = [rng.integers(i) for i in range(1, d)]
        closed_by_tiny = []
        for tiny in (0.0, 1e-300):
            sparse = base.copy()
            sparse[rows, np.arange(1, d)] = tiny
            sparse /= sparse.sum(axis=1, keepdims=True)
            for delta in (DeltaMatrix(np.eye(d)), DeltaMatrix(sparse)):
                T, _ = build_two_way_T(s, delta)
                closed = trace_T_closed_form(s, delta)
                assert abs(np.trace(T).real - closed) <= 1e-9
                assert closed <= trace_T_batch(lam, delta.table[None])[0] + 1e-12
                assert abs((psi.conj() @ T @ psi).real - 1.0) <= 1e-9
            closed_by_tiny.append(closed)
        # 1e-300 lies below the support cutoff: the same protocol as 0.
        assert abs(closed_by_tiny[0] - closed_by_tiny[1]) <= 1e-12
    s = spectrum([0.5, 0.3, 0.2])
    delta = DeltaMatrix(np.eye(3))
    assert trace_T_closed_form(s, delta) == 3.0
    assert abs(np.trace(build_two_way_T(s, delta)[0]).real - 3.0) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_objective_gradient_matches_finite_differences(d):
    rng = np.random.default_rng(10 + d)
    lam = random_spectrum(d, rng).effective
    tables = np.stack([DeltaMatrix.random(d, rng).table for _ in range(3)])
    _, grad, hess = trace_T_batch(lam, tables, hess=True)
    assert np.array_equal(trace_T_batch(lam, tables, grad=True)[1], grad)
    h = 1e-6
    for k in range(d):
        for i in range(d):
            step = np.zeros((d, d))
            step[k, i] = h
            fd = (trace_T_batch(lam, tables + step) - trace_T_batch(lam, tables - step)) / (2 * h)
            _, g_plus = trace_T_batch(lam, tables + step, grad=True)
            _, g_minus = trace_T_batch(lam, tables - step, grad=True)
            fd_hess = (g_plus - g_minus) / (2 * h)
            if k > i:
                assert np.all(grad[:, k, i] == 0.0)
                assert np.all(hess[:, i, k, :] == 0.0) and np.all(hess[:, i, :, k] == 0.0)
            else:
                assert np.max(np.abs(grad[:, k, i] - fd)) <= 1e-7
                # Column i's block holds every second derivative through d_ki;
                # other columns do not move.
                scale = 1.0 + np.max(np.abs(hess[:, i]))
                assert np.max(np.abs(hess[:, i, :, k] - fd_hess[:, :, i])) <= 1e-7 * scale
                others = np.arange(d) != i
                assert np.max(np.abs(fd_hess[:, :, others])) <= 1e-7 * scale


def test_oracle_equivalence_degenerate_spectrum():
    # uniform coefficients leave the eigenbasis gauge free; the trace must
    # not depend on it
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        s = spectrum([1.0 / d] * d)
        delta = DeltaMatrix.random(d, rng)
        T, _ = build_two_way_T(s, delta)
        assert abs(np.trace(T).real - trace_T_closed_form(s, delta)) <= 1e-9


def test_zero_weight_outcome_skipped():
    # delta_11 = 0 makes Alice's first outcome impossible; both routes agree
    s = spectrum([0.5, 0.5])
    delta = DeltaMatrix.qubit(0.0)
    T, protocol = build_two_way_T(s, delta)
    assert protocol.bob_bases[0] is None
    assert abs(np.trace(T).real - trace_T_closed_form(s, delta)) <= 1e-12
    assert abs(np.trace(T).real - 2.0) <= 1e-12


def test_simulate_type_one_error_is_zero():
    s = spectrum([7 / 8, 1 / 8])
    _, protocol = build_two_way_T(s, DeltaMatrix.qubit(OPT_DELTA_EIGHTH))
    rate, _ = simulate_protocol(protocol, "psi", 20_000, seed=0)
    assert rate == 1.0


def test_simulate_mixed_matches_trace():
    s = spectrum([7 / 8, 1 / 8])
    T, protocol = build_two_way_T(s, DeltaMatrix.qubit(OPT_DELTA_EIGHTH))
    beta = np.trace(T).real / 4.0
    n = 100_000
    rate, (lo, hi) = simulate_protocol(protocol, "mixed", n, seed=0)
    sigma = np.sqrt(beta * (1 - beta) / n)
    assert abs(rate - beta) <= 3 * sigma
    assert lo <= rate <= hi


def test_simulate_accept_all_protocol():
    # rank-one spectrum: the test operator is the identity on its space
    s = spectrum([1.0])
    T, protocol = build_two_way_T(s, DeltaMatrix(np.ones((1, 1))))
    assert np.allclose(T, np.eye(1))
    rate, _ = simulate_protocol(protocol, "mixed", 5_000, seed=1)
    assert rate == 1.0


def test_simulate_deterministic_given_seed():
    s = spectrum([0.6, 0.4])
    _, protocol = build_two_way_T(s, DeltaMatrix.uniform(2))
    a = simulate_protocol(protocol, "mixed", 10_000, seed=42)
    b = simulate_protocol(protocol, "mixed", 10_000, seed=42)
    assert a == b
    c = simulate_protocol(protocol, "mixed", 10_000, seed=43)
    assert a[0] != c[0]


def test_simulate_validates_inputs():
    s = spectrum([0.6, 0.4])
    _, protocol = build_two_way_T(s, DeltaMatrix.uniform(2))
    with pytest.raises(ValueError):
        simulate_protocol(protocol, "mixed", 0, seed=0)
    with pytest.raises(ValueError):
        simulate_protocol(protocol, "mixed", MAX_SAMPLES + 1, seed=0)
    with pytest.raises(ValueError):
        simulate_protocol(protocol, "white", 10, seed=0)


def test_two_wayness_gap_witness():
    # at lam = 1/8 the three-step protocol beats every one-way protocol
    s = spectrum([7 / 8, 1 / 8])
    T, _ = build_two_way_T(s, DeltaMatrix.qubit(OPT_DELTA_EIGHTH))
    beta_two = np.trace(T).real / 4.0
    beta_one = 0.5
    assert beta_one - beta_two >= 0.05


def test_final_projectors_are_projectors():
    rng = np.random.default_rng(6)
    s = random_spectrum(3, rng)
    _, protocol = build_two_way_T(s, DeltaMatrix.random(3, rng))
    for P in protocol.final_projectors.values():
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        w, _ = eig_hermitian(P)
        assert w[-1] >= -1e-10


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def equivalence_cases():
    """(spectrum, delta) pairs over random, tied, zero-padded (rank 2..4 ->
    d = 9) and 7 x 1/7 spectra, each with the uniform, a random and the
    optimal table."""
    rng = np.random.default_rng(60)
    spectra = [random_spectrum(d, rng) for d in (2, 3, 4, 6)]
    spectra += [spectrum([0.4, 0.4, 0.2]), spectrum([0.3, 0.3, 0.2, 0.2]), spectrum([1 / 7] * 7)]
    for rank in (2, 3, 4):
        padded = np.zeros(9)
        padded[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
        spectra.append(spectrum(padded))
    for s in spectra:
        d = s.effective.size
        for delta in (DeltaMatrix.uniform(d), DeltaMatrix.random(d, rng)):
            yield s, delta
        yield s, beta_two_way_upper(s).best_delta


def reference_two_way_T(s, delta, bob_bases):
    """One sigma_A, support projection and Kronecker product per Bob outcome,
    for Bob's bases as given (test_bob_bases_span_the_support checks them)."""
    lam = s.effective
    d = lam.size
    T = np.zeros((d * d, d * d), dtype=complex)
    projectors = {}
    for i in range(d):
        M = delta.alice_element(i)
        den = (lam * np.diag(M)).sum()
        if not den > (i + 1) * DENOM_TOL:
            assert bob_bases[i] is None
            continue
        xi = bob_bases[i]
        sm = np.diag(np.sqrt(np.diag(M)))
        for j in range(xi.shape[1]):
            N = np.outer(xi[:, j], xi[:, j].conj())
            P = support_projection(sigma_A(s, M, N))
            projectors[(i, j)] = P
            T += np.kron(sm @ P @ sm, N)
    return T, projectors


def reference_branch_probabilities(protocol, source):
    """The cascade's probabilities from D x D Kronecker products and traces."""
    d = protocol.d
    D = d * d
    if source == "psi":
        rho = state_from_spectrum(spectrum(protocol.spectrum.effective)).density()
    else:
        rho = np.eye(D, dtype=complex) / D
    records = []
    for i in range(d):
        K = np.kron(np.diag(np.sqrt(np.diag(protocol.alice_povm[i]))), np.eye(d))
        rho_i = K @ rho @ K
        p_i = float(np.trace(rho_i).real)
        if p_i <= DENOM_TOL:
            records.append((i, 0.0, [], 0.0))
            continue
        xi = protocol.bob_bases[i]
        branch = []
        covered = 0.0
        for j in range(0 if xi is None else xi.shape[1]):
            Kb = np.kron(np.eye(d), np.outer(xi[:, j], xi[:, j].conj()))
            rho_ij = Kb @ rho_i @ Kb
            p_j = min(max(float(np.trace(rho_ij).real) / p_i, 0.0), 1.0)
            if p_j <= DENOM_TOL:
                branch.append((0.0, 0.0))
                continue
            P = np.kron(protocol.final_projectors[(i, j)], np.eye(d))
            p_acc = float(np.trace(P @ rho_ij).real) / (p_j * p_i)
            p_acc = 1.0 if p_acc > 1.0 - 1e-12 else 0.0 if p_acc < 1e-12 else p_acc
            branch.append((p_j, p_acc))
            covered += p_j
        p_reject = max(1.0 - covered, 0.0)
        records.append((i, p_i, branch, 0.0 if p_reject < 1e-12 else p_reject))
    return records


def test_build_two_way_T_matches_per_outcome_loop():
    for s, delta in equivalence_cases():
        T, protocol = build_two_way_T(s, delta)
        T_ref, projectors_ref = reference_two_way_T(s, delta, protocol.bob_bases)
        assert np.max(np.abs(T - T_ref)) <= 1e-12
        assert protocol.final_projectors.keys() == projectors_ref.keys()
        for key, P_ref in projectors_ref.items():
            assert np.max(np.abs(protocol.final_projectors[key] - P_ref)) <= 1e-12


def test_bob_bases_span_the_support():
    """Each basis is orthonormal, lives on S_i = {k : l_k d_ki > d eps max},
    is unbiased there, is the same on every build, and is the Fourier
    transform of S_i's unit vectors ordered by descending weight, ties by
    ascending index.  With distinct support weights that is build_mub_basis's
    basis; eig_hermitian's order inside a tie is solver-dependent."""
    untied = 0
    tied = [(spectrum([0.3, 0.3, 0.2, 0.2]), DeltaMatrix.one_way(4))]
    for s, delta in list(equivalence_cases()) + tied:
        lam = s.effective
        d = lam.size
        _, protocol = build_two_way_T(s, delta)
        _, again = build_two_way_T(s, delta)
        for i, xi in enumerate(protocol.bob_bases):
            if xi is None:
                continue
            assert np.array_equal(xi, again.bob_bases[i])
            w = lam * delta.table[:, i]
            support = w > d * np.finfo(float).eps * w.max()
            r = int(support.sum())
            assert xi.shape == (d, r)
            assert np.max(np.abs(xi.conj().T @ xi - np.eye(r))) <= 1e-12
            assert np.all(xi[~support] == 0)
            assert np.max(np.abs(np.abs(xi[support]) ** 2 - 1.0 / r)) <= 1e-12
            order = sorted(np.flatnonzero(support), key=lambda k: (-w[k], k))
            n = np.arange(r)
            fourier = np.exp(2j * np.pi * np.outer(n, n) / r) / np.sqrt(r)
            assert np.max(np.abs(xi[order] - fourier)) <= 1e-15
            ordered = np.sort(w[support])
            if np.all(np.diff(ordered) > 1e-9 * ordered[-1]):
                untied += 1
                mub = build_mub_basis(np.diag(w / w.sum()))
                assert np.max(np.abs(xi - mub)) <= 1e-12
    assert untied >= 20


def test_branch_probabilities_match_kron_formula():
    for s, delta in equivalence_cases():
        _, protocol = build_two_way_T(s, delta)
        for source in ("psi", "mixed"):
            got = _branch_probabilities(protocol, source)
            ref = reference_branch_probabilities(protocol, source)
            assert len(got) == len(ref)
            for (i, p_i, branch, p_rej), (i_ref, p_i_ref, branch_ref, p_rej_ref) in zip(got, ref):
                assert i == i_ref and len(branch) == len(branch_ref)
                assert abs(p_i - p_i_ref) <= 1e-12 and abs(p_rej - p_rej_ref) <= 1e-12
                for (p_j, p_acc), (p_j_ref, p_acc_ref) in zip(branch, branch_ref):
                    assert abs(p_j - p_j_ref) <= 1e-12
                    assert abs(p_acc - p_acc_ref) <= 1e-12


def test_sigma_a_stack_matches_per_element():
    rng = np.random.default_rng(61)
    s = random_spectrum(4, rng)
    M = DeltaMatrix.random(4, rng).alice_element(3)
    xi = build_mub_basis(np.diag(s.lambdas))
    N = np.array([np.outer(xi[:, j], xi[:, j].conj()) for j in range(4)])
    stacked = sigma_A(s, M, N)
    for j in range(4):
        assert np.max(np.abs(stacked[j] - sigma_A(s, M, N[j]))) <= 1e-12
    N[2] = 0.0
    with pytest.raises(ZeroProbabilityError):
        sigma_A(s, M, N)
