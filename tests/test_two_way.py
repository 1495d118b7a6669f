import re

import numpy as np
import pytest
from reference import (
    alice_element,
    dense_validity_defect,
    povm_element_check,
    random_delta,
    uniform_delta,
)

from loccdist.operators import eig_hermitian, support_projection
from loccdist.states import spectrum, state_from_spectrum
from loccdist.optimize import beta_two_way_upper
from loccdist.two_way import (
    DENOM_TOL,
    MAX_SAMPLES,
    DeltaMatrix,
    TwoWayProtocol,
    ZeroProbabilityError,
    _branch_probabilities,
    _column_ratios,
    build_mub_basis,
    build_two_way_protocol,
    build_two_way_T,
    check_tables,
    one_way_table,
    pair_factors,
    protocol_stack,
    random_tables,
    sigma_A,
    simulate_protocol,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
    uniform_table,
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
    for table, message in [
        ([[0.5, 0.4], [0.0, 1.0]], "row sums deviate from 1 by 1.000e-01"),
        ([[1.0, 0.0], [0.5, 0.5]], "entries with k > i must be structurally zero"),
        ([[1.5, -0.5], [0.0, 1.0]], "negative delta entry -5.000e-01"),
        ([[np.nan, 1.0], [0.0, 1.0]], "delta entries must be finite"),  # NaN fails every comparison
        ([[np.inf, -np.inf], [0.0, 1.0]], "delta entries must be finite"),
        ([[1.0, 0.0]], "delta table must be square"),
        ([[[1.0]]], "delta table must be square"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DeltaMatrix(np.array(table))
        if np.shape(table) == (2, 2):  # the same rule on a stack, the bad table second
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_tables(np.array([[[0.5, 0.5], [0.0, 1.0]], table]))


def test_delta_matrix_neither_freezes_nor_aliases_the_callers_array():
    table = np.array([[1.0 + 1e-13, -1e-13], [-0.0, 1.0]])
    delta = DeltaMatrix(table)
    assert table.flags.writeable and not delta.table.flags.writeable
    assert not np.shares_memory(table, delta.table)
    # Rounding below 0 is clipped in the copy, -0.0 included.
    assert delta.table[0, 1] == 0.0 and not np.signbit(delta.table[1, 0])
    table[0, 0] = 0.5
    assert delta.table[0, 0] == 1.0 + 1e-13


def test_delta_constructors():
    u = uniform_delta(3)
    assert np.allclose(u.table.sum(axis=1), 1.0)
    ow = DeltaMatrix(one_way_table(3))
    assert np.allclose(ow.table[:, 2], 1.0)
    q = DeltaMatrix.qubit(0.25)
    assert np.allclose(q.table, [[0.25, 0.75], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    r = random_delta(4, rng)
    assert np.allclose(r.table.sum(axis=1), 1.0)
    assert np.min(r.table) >= 0


@pytest.mark.parametrize("d", range(1, 33))
def test_random_tables_are_the_dirichlet_rows_bit_for_bit(d):
    """One call draws, to the bit and to the generator's final state, the
    tables of n successive one-table draws, and each row is the
    rng.dirichlet(np.ones(d - k)) draw it replaces: verify's seeded oracle
    tables are those of its former per-row loop.  They are feasible as
    drawn, so checking them changes no bit."""
    for seed in (0, 1, 2):
        one, successive, rows = (np.random.default_rng(seed) for _ in range(3))
        tables = random_tables(3, d, one)
        alone = np.stack([random_delta(d, successive).table for _ in range(3)])
        dirichlet = np.zeros((3, d, d))
        for table in dirichlet:
            for k in range(d):
                table[k, k:] = rows.dirichlet(np.ones(d - k))
        assert tables.shape == (3, d, d)
        assert tables.tobytes() == alone.tobytes() == dirichlet.tobytes()
        assert check_tables(tables).tobytes() == tables.tobytes()
        assert one.bit_generator.state == successive.bit_generator.state
        assert one.bit_generator.state == rows.bit_generator.state


def test_delta_alice_povm_resolves_identity():
    rng = np.random.default_rng(1)
    delta = random_delta(4, rng)
    total = sum(alice_element(delta, i) for i in range(4))
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
    T, _ = build_two_way_T(s, DeltaMatrix(one_way_table(2)))
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
        delta = random_delta(d, rng)
        T, _ = build_two_way_T(s, delta)
        assert np.trace(T).real / (d * d) >= 1.0 / d - 1e-9
        assert povm_element_check(T, 1e-9)


def test_closed_form_single_outcome():
    for d in (2, 3, 4):
        s = spectrum([1.0 / d] * d)
        assert abs(trace_T_closed_form(s, DeltaMatrix(one_way_table(d))) - d) <= 1e-12


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
        delta = random_delta(d, rng)
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
        deltas = [random_delta(d, rng) for _ in range(3)]
        deltas += [uniform_delta(d), DeltaMatrix(one_way_table(d))]
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
        base = random_delta(d, rng).table
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
    tables = np.stack([random_delta(d, rng).table for _ in range(3)])
    factors = pair_factors(lam)
    _, grad, hess = trace_T_batch(lam, tables, factors)
    layout = table_layout(d)
    h = 1e-6
    for k in range(d):
        for i in range(d):
            step = np.zeros((d, d))
            step[k, i] = h
            fd = (trace_T_batch(lam, tables + step) - trace_T_batch(lam, tables - step)) / (2 * h)
            _, g_plus, _ = trace_T_batch(lam, tables + step, factors)
            _, g_minus, _ = trace_T_batch(lam, tables - step, factors)
            fd_hess = (g_plus - g_minus) / (2 * h)
            if k > i:
                assert np.all(grad[:, k, i] == 0.0)
            else:
                assert np.max(np.abs(grad[:, k, i] - fd)) <= 1e-7
                # The pairs (d_ki, d_k'i) hold every second derivative
                # through d_ki; other columns do not move.
                entry = np.flatnonzero((layout.rows == k) & (layout.cols == i))[0]
                pairs = layout.p == entry
                scale = 1.0 + np.max(np.abs(hess[:, layout.pair_col == i]))
                fd_pairs = fd_hess[:, layout.rows[layout.q[pairs]], i]
                assert np.max(np.abs(hess[:, pairs] - fd_pairs)) <= 1e-7 * scale
                others = np.arange(d) != i
                assert np.max(np.abs(fd_hess[:, :, others])) <= 1e-7 * scale
    # An (n, d) stack of spectra, one per table, gives each table the bits
    # its spectrum gives it alone.
    lams = np.stack([rng.dirichlet(np.ones(d)) for _ in range(len(tables))])
    stacked = trace_T_batch(lams, tables, pair_factors(lams))
    for j in range(len(tables)):
        alone = trace_T_batch(lams[j], tables[j : j + 1], pair_factors(lams[j]))
        assert all(np.array_equal(a[j], b[0]) for a, b in zip(stacked, alone))


def dense_hessian_blocks(lam, tables):
    """trace_T_batch's Hessian written out as (n, d, d, d) column blocks
    H[n, i, k, k'] = d2 Tr T / dd_ki dd_k'i, zero where k or k' > i: the
    reference for its column-pair entries."""
    d = lam.shape[-1]
    cols = np.arange(d)
    upper = cols[:, None] <= cols
    live, safe, ratio = _column_ratios(lam, tables)
    scale = np.where(live, (cols + 1.0) / safe, 0.0)[:, None, :]
    x = np.swapaxes(tables, 1, 2)[..., None]  # d_ki at [n, i, k, 0]
    coupling = (x + np.swapaxes(x, 2, 3) - ratio[..., None, None]) / safe[..., None, None]
    lk = lam[..., None, :, None]  # l_k at [n, ., k, .]
    diag = np.where(np.eye(d, dtype=bool), lk, 0.0)
    H = 2.0 * scale[:, 0, :, None, None] * (diag - lk * np.swapaxes(lk, -1, -2) * coupling)
    keep = upper.T[:, :, None] & upper.T[:, None, :]
    return np.where(keep, H, 0.0)


def test_closed_form_of_a_stack_is_the_closed_form_of_each_table():
    """trace_T_closed_form of a stack of tables, under one spectrum or one
    per table, is its value on each table alone to the bit, sparse tables
    included."""
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 5, 8):
        spectra = [random_spectrum(d, rng), spectrum([1.0 / d] * d)]
        deltas = [random_delta(d, rng) for _ in range(3)]
        deltas += [DeltaMatrix(np.eye(d)), uniform_delta(d), DeltaMatrix(one_way_table(d))]
        tables = np.stack([delta.table for delta in deltas])
        for s in spectra:
            alone = [trace_T_closed_form(s, delta) for delta in deltas]
            assert trace_T_closed_form(s.effective, tables).tolist() == alone
        mixed = np.stack([spectra[k % 2].effective for k in range(len(deltas))])
        expected = [trace_T_closed_form(spectra[k % 2], delta) for k, delta in enumerate(deltas)]
        assert trace_T_closed_form(mixed, tables).tolist() == expected


def test_one_way_corner_closed_form_is_d_to_the_bit():
    """The one-way corner's closed form is exactly d for any effective
    spectrum, down to coefficients just above RANK_TOL: the stacked finish
    of the two-way solve compares with d itself."""
    rng = np.random.default_rng(13)
    for d in range(1, 11):
        geometric = 10.0 ** -np.arange(d)
        lams = [rng.dirichlet(np.ones(d)), geometric / geometric.sum(), np.full(d, 1.0 / d)]
        tiny = np.full(d, 1.1e-12)
        tiny[0] = 1.0 - tiny[1:].sum()
        for lam in lams + [tiny]:
            s = spectrum(np.sort(lam)[::-1])
            assert s.effective.size == d
            assert trace_T_closed_form(s, DeltaMatrix(one_way_table(d))) == float(d)


def test_protocol_is_build_two_way_T_s_protocol():
    rng = np.random.default_rng(13)
    for s in (random_spectrum(4, rng), spectrum([0.5, 0.3, 0.2, 0.0])):
        for delta in (random_delta(s.rank, rng), DeltaMatrix(np.eye(s.rank))):
            _, built = build_two_way_T(s, delta)
            protocol = build_two_way_protocol(s, delta)
            assert protocol.spectrum is s and protocol.delta is delta
            for name in ("outcomes", "bob", "alice"):
                assert np.array_equal(getattr(protocol, name), getattr(built, name))
    with pytest.raises(ValueError, match="effective rank"):
        build_two_way_protocol(spectrum([0.5, 0.5]), uniform_delta(3))


def stacked_protocol_cases():
    """(spectrum, tables) pairs at effective rank 1, 2, 3, 4, 5 and 9, on
    random, tied and zero-padded spectra: uniform, one-way corner, three
    seeded random tables, one with its first column dropped (rank > 1) and
    the spectrum's optimal table."""
    rng = np.random.default_rng(21)
    spectra = [spectrum([1.0]), spectrum([1.0, 0.0]), spectrum([0.5, 0.5]), spectrum([0.4, 0.4, 0.2])]
    spectra += [random_spectrum(d, rng) for d in (2, 3, 5, 9)]
    spectra += [spectrum([0.5, 0.3, 0.2, 0.0, 0.0]), spectrum([0.25] * 4 + [0.0] * 5)]
    cases = []
    for s in spectra:
        d = s.rank
        deltas = [uniform_delta(d), DeltaMatrix(one_way_table(d))]
        deltas += [random_delta(d, rng) for _ in range(3)]
        if d > 1:
            dropped = np.array(deltas[-1].table)
            dropped[:, -1] += dropped[:, 0]
            dropped[:, 0] = 0.0
            deltas.append(DeltaMatrix(dropped))
        cases.append((s, deltas + [beta_two_way_upper(s).best_delta]))
    return cases


def test_stacked_protocols_are_each_table_alone_bit_for_bit():
    for s, deltas in stacked_protocol_cases():
        stacked = protocol_stack(s.effective, np.stack([delta.table for delta in deltas]))
        assert all(len(array) == len(deltas) for array in stacked)
        for j, delta in enumerate(deltas):
            alone = build_two_way_protocol(s, delta)
            for name, array in zip(("outcomes", "bob", "alice"), stacked):
                got, want = array[j], getattr(alone, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[...] = 0
        if s.rank > 1:  # the dropped column has no outcome
            assert stacked[0][5, 0] == 0


def test_stacked_protocols_refuse_a_table_of_another_rank():
    """build_two_way_protocol names a table of another rank than the
    spectrum's effective one, and protocol_stack refuses a stack of them."""
    s = spectrum([0.5, 0.3, 0.2])
    for delta in (uniform_delta(3), DeltaMatrix(one_way_table(3))):
        assert build_two_way_protocol(s, delta).d == 3
    with pytest.raises(ValueError, match="^delta has d = 2, spectrum has effective rank 3$"):
        build_two_way_protocol(s, uniform_delta(2))
    with pytest.raises(ValueError):
        protocol_stack(s.effective, uniform_table(2)[None])


@pytest.mark.parametrize("d", range(1, 9))
def test_pair_hessian_is_the_dense_blocks_bit_for_bit(d):
    """Scattered into (n, d, d, d) blocks, the pair entries are the dense
    reference to the bit (signed zeros included), so no entry outside a
    column pair is nonzero; the same holds under an (n, d) spectrum
    stack."""
    rng = np.random.default_rng(40 + d)
    tables = [random_delta(d, rng).table for _ in range(4)]
    tables += [np.eye(d), one_way_table(d), uniform_delta(d).table]
    tables = np.stack(tables)
    layout = table_layout(d)
    spectra = [random_spectrum(d, rng).effective, np.full(d, 1.0 / d)]
    spectra.append(np.stack([rng.dirichlet(np.ones(d)) for _ in range(len(tables))]))
    for lam in spectra:
        _, _, pairs = trace_T_batch(lam, tables, pair_factors(lam))
        assert pairs.shape == (len(tables), layout.p.size)
        blocks = np.zeros((len(tables), d, d, d))
        blocks[:, layout.pair_col, layout.rows[layout.p], layout.rows[layout.q]] = pairs
        assert np.array_equal(blocks.view(np.uint64), dense_hessian_blocks(lam, tables).view(np.uint64))


def test_oracle_equivalence_degenerate_spectrum():
    # uniform coefficients leave the eigenbasis gauge free; the trace must
    # not depend on it
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        s = spectrum([1.0 / d] * d)
        delta = random_delta(d, rng)
        T, _ = build_two_way_T(s, delta)
        assert abs(np.trace(T).real - trace_T_closed_form(s, delta)) <= 1e-9


def test_zero_weight_outcome_skipped():
    # delta_11 = 0 makes Alice's first outcome impossible, and 1e-15 puts it
    # below the DENOM_TOL gate although its level is in the support; both
    # routes agree
    s = spectrum([0.5, 0.5])
    for delta_11 in (0.0, 1e-15):
        delta = DeltaMatrix.qubit(delta_11)
        T, protocol = build_two_way_T(s, delta)
        assert protocol.outcomes.tolist() == [0, 2]
        assert np.all(protocol.bob[0] == 0) and np.all(protocol.alice[0] == 0)
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
    _, protocol = build_two_way_T(s, uniform_delta(2))
    a = simulate_protocol(protocol, "mixed", 10_000, seed=42)
    b = simulate_protocol(protocol, "mixed", 10_000, seed=42)
    assert a == b
    c = simulate_protocol(protocol, "mixed", 10_000, seed=43)
    assert a[0] != c[0]


def test_simulate_validates_inputs():
    s = spectrum([0.6, 0.4])
    _, protocol = build_two_way_T(s, uniform_delta(2))
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
    _, protocol = build_two_way_T(s, random_delta(3, rng))
    assert protocol.outcomes.sum() == 6
    for P in final_projectors(protocol).values():
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        w, _ = eig_hermitian(P)
        assert w[-1] >= -1e-10


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


def test_wilson_interval_ends_solve_the_score_equation():
    """Each end p of the Wilson interval that is not clipped solves the
    score equation n (phat - p)**2 = z**2 p (1 - p), so dividing by
    1 + z**2 / n, not multiplying, is what places it; and at 0 or n
    successes, where rounding can leave the unclipped ends an ulp outside
    [0, 1] (n = 16 and 21 at z = 1.96), the ends stay inside."""
    for k, n, z in ((50, 100, 1.959963984540054), (3, 20, 3.0), (1990, 2000, 3.0), (1, 7, 1.0)):
        phat = k / n
        for p in wilson_interval(k, n, z):
            assert abs(n * (phat - p) ** 2 - z**2 * p * (1.0 - p)) <= 1e-12 * z**2
    for n in range(1, 101):
        for k in (0, n):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= hi <= 1.0


def test_a_column_is_live_above_one_denom_tol_per_outcome():
    """Column i is live when D_i > (i + 1) DENOM_TOL: with D_i at (i + 1.5)
    DENOM_TOL every column of the table below is live, and at (i + 0.5)
    DENOM_TOL the first two are not, nor at exactly (i + 1) DENOM_TOL (the
    spectrum's powers of two make every product and sum exact there)."""
    lam = np.array([0.5, 0.25, 0.25])
    cases = ((1.5, [True, True, True]), (0.5, [False, False, True]), (1.0, [False, False, True]))
    for offset, live in cases:
        table = np.zeros((3, 3))
        table[0, 0] = offset * DENOM_TOL / lam[0]  # D_0 = offset DENOM_TOL
        table[1, 1] = (1 + offset) * DENOM_TOL / lam[1]  # D_1, as d_01 = 0
        table[:2, 2] = 1.0 - table[:2, :2].sum(axis=1)
        table[2, 2] = 1.0
        if offset == 1.0:
            assert (lam @ table)[:2].tolist() == [DENOM_TOL, 2 * DENOM_TOL]
        assert _column_ratios(lam, table[None])[0][0].tolist() == live


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
        for delta in (uniform_delta(d), random_delta(d, rng)):
            yield s, delta
        yield s, beta_two_way_upper(s).best_delta


def gated_tables(lam):
    """For each column i < d - 1, the uniform table with column i scaled to
    D_i = (i + 0.5) DENOM_TOL and the rest of its weight moved to the last
    column: a nonempty support under the live gate."""
    d = lam.size
    for i in range(d - 1):
        table = uniform_table(d)
        column = table[:, i] * ((i + 0.5) * DENOM_TOL / (lam @ table[:, i]))
        table[:, -1] += table[:, i] - column
        table[:, i] = column
        yield i, DeltaMatrix(table)


def test_closed_form_counts_the_protocol_outcomes():
    """trace_T_closed_form is sum_i outcomes[i] N_i / D_i to the bit, with
    protocol_stack's outcome counts on the same stack: one rule for r_i.  A
    column under the live gate gives Bob no outcome, though its support
    is not empty."""
    cases = [(s, delta, None) for s, delta in equivalence_cases()]
    for s, _, _ in cases[::3]:
        cases += [(s, delta, i) for i, delta in gated_tables(s.effective)]
    assert sum(i is not None for _, _, i in cases) >= 20
    for s, delta, gated in cases:
        lam, tables = s.effective, delta.table[None]
        outcomes, _, _ = protocol_stack(lam, tables)
        _, _, ratio = _column_ratios(lam, tables)
        expected = (ratio * outcomes).sum(axis=1)
        assert trace_T_closed_form(lam, tables).tolist() == expected.tolist()
        assert trace_T_closed_form(s, delta) == float(expected[0])
        if gated is not None:
            assert outcomes[0, gated] == 0 and lam @ delta.table[:, gated] > 0


def bob_basis(protocol, i):
    """Bob's (d, r_i) basis in branch i."""
    return protocol.bob[i, :, : protocol.outcomes[i]]


def final_projectors(protocol):
    """(i, j) -> P_ij = |v_ij><v_ij| for every live Bob outcome."""
    return {
        (i, j): np.outer(protocol.alice[i, :, j], protocol.alice[i, :, j].conj())
        for i in range(protocol.d)
        for j in range(protocol.outcomes[i])
    }


def reference_two_way_T(s, delta, protocol):
    """One sigma_A, support projection and Kronecker product per Bob outcome,
    for the protocol's Bob bases (test_bob_bases_span_the_support checks
    them)."""
    lam = s.effective
    d = lam.size
    T = np.zeros((d * d, d * d), dtype=complex)
    projectors = {}
    for i in range(d):
        M = alice_element(delta, i)
        den = (lam * np.diag(M)).sum()
        if not den > (i + 1) * DENOM_TOL:
            assert protocol.outcomes[i] == 0
            continue
        assert protocol.outcomes[i] > 0
        xi = bob_basis(protocol, i)
        sm = np.diag(np.sqrt(np.diag(M)))
        for j in range(xi.shape[1]):
            N = np.outer(xi[:, j], xi[:, j].conj())
            P = support_projection(sigma_A(s, M, N))
            projectors[(i, j)] = P
            T += np.kron(sm @ P @ sm, N)
    return T, projectors


def reference_branch_probabilities(protocol, source):
    """The cascade's outcome table p[i, j, a] from D x D Kronecker products
    and traces, with the same 1e-12 cut per leaf."""
    d = protocol.d
    D = d * d
    if source == "psi":
        rho = state_from_spectrum(spectrum(protocol.spectrum.effective)).density()
    else:
        rho = np.eye(D, dtype=complex) / D
    table = np.zeros((d, d + 1, 2))
    projectors = final_projectors(protocol)
    for i in range(d):
        K = np.kron(np.diag(np.sqrt(np.diag(alice_element(protocol.delta, i)))), np.eye(d))
        rho_i = K @ rho @ K
        xi = bob_basis(protocol, i)
        covered = 0.0
        for j in range(xi.shape[1]):
            Kb = np.kron(np.eye(d), np.outer(xi[:, j], xi[:, j].conj()))
            rho_ij = Kb @ rho_i @ Kb
            P = np.kron(projectors[(i, j)], np.eye(d))
            p_ij = float(np.trace(rho_ij).real)
            table[i, j, 0] = float(np.trace(P @ rho_ij).real)
            table[i, j, 1] = p_ij - table[i, j, 0]
            covered += p_ij
        table[i, d, 1] = float(np.trace(rho_i).real) - covered
    table[table < 1e-12] = 0.0
    return table


def test_build_two_way_T_matches_per_outcome_loop():
    for s, delta in equivalence_cases():
        T, protocol = build_two_way_T(s, delta)
        T_ref, projectors_ref = reference_two_way_T(s, delta, protocol)
        assert np.max(np.abs(T - T_ref)) <= 1e-12
        projectors = final_projectors(protocol)
        assert projectors.keys() == projectors_ref.keys()
        for key, P_ref in projectors_ref.items():
            assert np.max(np.abs(projectors[key] - P_ref)) <= 1e-12


def test_bob_bases_span_the_support():
    """Each basis is orthonormal, lives on S_i = {k : l_k d_ki > d eps max},
    is unbiased there, is the same on every build, and is the Fourier
    transform of S_i's unit vectors ordered by descending weight, ties by
    ascending index.  With distinct support weights that is build_mub_basis's
    basis; eig_hermitian's order inside a tie is solver-dependent."""
    untied = 0
    tied = [(spectrum([0.3, 0.3, 0.2, 0.2]), DeltaMatrix(one_way_table(4)))]
    for s, delta in list(equivalence_cases()) + tied:
        lam = s.effective
        d = lam.size
        _, protocol = build_two_way_T(s, delta)
        _, again = build_two_way_T(s, delta)
        assert np.array_equal(protocol.bob, again.bob)
        assert np.array_equal(protocol.alice, again.alice)
        for i in np.flatnonzero(protocol.outcomes):
            xi = bob_basis(protocol, i)
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


def test_support_is_relative_to_the_column():
    """Level 2 carries 1e-17 of column 2: below d eps times the column's
    largest weight, so outside S_2, although it is its row's largest."""
    s = spectrum([0.5, 0.5 - 2e-11, 1e-11, 1e-11])
    table = np.array(
        [[0.4, 0.3, 0.3, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 1e-6, 1 - 1e-6], [0.0, 0.0, 0.0, 1.0]]
    )
    _, protocol = build_two_way_T(s, DeltaMatrix(table))
    assert protocol.outcomes[2] == 2
    assert np.all(protocol.bob[2, 2] == 0)


def test_protocol_padding_invariant():
    """outcomes[i] counts the live support S_i, bob and alice are exactly 0
    beyond r_i and on dead branches, and every live v_ij is a unit vector."""
    for s, delta in equivalence_cases():
        lam = s.effective
        d = lam.size
        _, protocol = build_two_way_T(s, delta)
        live = lam @ delta.table > (np.arange(d) + 1) * DENOM_TOL
        w = lam[:, None] * delta.table
        counts = np.where(live, (w > d * np.finfo(float).eps * w.max(axis=0)).sum(axis=0), 0)
        assert np.issubdtype(protocol.outcomes.dtype, np.integer)
        assert np.array_equal(protocol.outcomes, counts)
        assert protocol.bob.shape == protocol.alice.shape == (d, d, d)
        for i, r in enumerate(protocol.outcomes):
            assert np.all(protocol.bob[i, :, r:] == 0) and np.all(protocol.alice[i, :, r:] == 0)
            norms = np.linalg.norm(protocol.alice[i, :, :r], axis=0)
            assert np.max(np.abs(norms - 1.0), initial=0.0) <= 1e-12


def test_protocol_arrays_are_read_only():
    _, protocol = build_two_way_T(spectrum([0.5, 0.3, 0.2]), uniform_delta(3))
    table = _branch_probabilities(protocol, "mixed")
    for array in (protocol.outcomes, protocol.bob, protocol.alice):
        with pytest.raises(ValueError):
            array[:] = 0
    assert np.array_equal(_branch_probabilities(protocol, "mixed"), table)


def test_branch_probabilities_match_kron_formula():
    for s, delta in equivalence_cases():
        _, protocol = build_two_way_T(s, delta)
        for source in ("psi", "mixed"):
            got = _branch_probabilities(protocol, source)
            ref = reference_branch_probabilities(protocol, source)
            assert got.shape == ref.shape == (protocol.d, protocol.d + 1, 2)
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_outcome_table_identities():
    """Both tables are probability laws, psi is never rejected, and the
    mixed state is accepted with probability Tr T / d**2."""
    for s, delta in equivalence_cases():
        T, protocol = build_two_way_T(s, delta)
        d = protocol.d
        psi = _branch_probabilities(protocol, "psi")
        mixed = _branch_probabilities(protocol, "mixed")
        assert abs(psi.sum() - 1.0) <= 1e-12 and abs(mixed.sum() - 1.0) <= 1e-12
        assert np.all(psi[..., 1] == 0.0) and np.all(psi[:, d] == 0.0)
        assert abs(mixed[..., 0].sum() - np.trace(T).real / d**2) <= 1e-12


def test_sigma_a_stack_matches_per_element():
    rng = np.random.default_rng(61)
    s = random_spectrum(4, rng)
    M = alice_element(random_delta(4, rng), 3)
    xi = build_mub_basis(np.diag(s.lambdas))
    N = np.array([np.outer(xi[:, j], xi[:, j].conj()) for j in range(4)])
    stacked = sigma_A(s, M, N)
    for j in range(4):
        assert np.max(np.abs(stacked[j] - sigma_A(s, M, N[j]))) <= 1e-12
    N[2] = 0.0
    with pytest.raises(ZeroProbabilityError):
        sigma_A(s, M, N)


def test_accept_form_reads_the_assembled_T():
    """The accept form's trace and Schmidt expectation are those of the T
    build_two_way_T assembles from it."""
    for s, delta in equivalence_cases():
        T, protocol = build_two_way_T(s, delta)
        form = protocol.accept_form()
        lam = spectrum(s.effective / s.effective.sum()).lambdas
        psi = state_from_spectrum(spectrum(lam)).psi
        assert np.array_equal(form.assemble(), T)
        assert abs(form.trace() - np.trace(T).real) <= 1e-12
        assert abs(form.schmidt_expectation(lam) - (psi.conj() @ T @ psi).real) <= 1e-12


def test_validity_defect_matches_its_loop_reference():
    for s, delta in equivalence_cases():
        protocol = build_two_way_protocol(s, delta)
        defect = protocol.validity_defect()
        assert defect <= 1e-12
        assert abs(defect - dense_validity_defect(protocol)) <= 1e-12


def test_validity_defect_sees_each_broken_measurement():
    s = spectrum([0.5, 0.3, 0.2])
    protocol = build_two_way_protocol(s, uniform_delta(3))
    bob, alice = protocol.bob.copy(), protocol.alice.copy()
    bob[2, :, 1] *= 1.01  # a Bob vector off the unit sphere
    alice[1, :, 0] *= 0.99  # one of Alice's projectors not a projector
    table = protocol.delta.table.copy()
    table[0, 2] += 0.1  # Alice's POVM no longer resolves the identity
    unchecked = object.__new__(DeltaMatrix)  # DeltaMatrix would reject the table
    object.__setattr__(unchecked, "table", table)
    cases = [
        TwoWayProtocol(s, protocol.delta, protocol.outcomes.copy(), bob, protocol.alice.copy()),
        TwoWayProtocol(s, protocol.delta, protocol.outcomes.copy(), protocol.bob.copy(), alice),
        TwoWayProtocol(s, unchecked, protocol.outcomes.copy(), protocol.bob.copy(),
                       protocol.alice.copy()),
    ]
    for broken, defect in zip(cases, (0.0201, 0.01, 0.1)):
        assert abs(broken.validity_defect() - defect) <= 1e-12
        assert abs(dense_validity_defect(broken) - defect) <= 1e-12
