import numpy as np
import pytest

from loccdist.operators import eig_hermitian, partial_trace
from loccdist.states import (
    RANK_TOL,
    BipartiteState,
    MaximallyCorrelatedState,
    SchmidtSpectrum,
    check_spectra,
    parse_spectrum,
    schmidt_decompose,
    spectrum,
    sqrt_trace_reduced,
    state_from_spectrum,
)


def test_spectrum_sorted_and_normalised():
    s = spectrum([0.25, 0.75])
    assert np.allclose(s.lambdas, [0.75, 0.25])
    assert s.rank == 2
    assert s.dim == 2


def test_spectrum_renormalises_small_error():
    s = spectrum([0.75, 0.25 + 5e-10])
    assert abs(s.lambdas.sum() - 1.0) <= 1e-15


def test_spectrum_rejects_bad_sum():
    with pytest.raises(ValueError):
        spectrum([0.9, 0.2])


@pytest.mark.parametrize("values", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
def test_spectrum_rejects_non_finite(values):
    with pytest.raises(ValueError, match="finite"):
        spectrum(values)


def test_spectrum_rejects_negative():
    with pytest.raises(ValueError):
        spectrum([1.2, -0.2])


def test_spectrum_effective_strips_zeros():
    s = spectrum([0.6, 0.4, 0.0])
    assert s.dim == 3
    assert s.rank == 2
    assert np.allclose(s.effective, [0.6, 0.4])


@pytest.mark.parametrize(
    "lam, kept",
    [
        ([1.0, 1e-13], 1),
        ([0.5, 0.5, 1e-13], 2),
        ([1.0, -1e-13], 1),
        ([1.0 - 2e-12, 2e-12], 2),
        # Above RANK_TOL before renormalising, just below it after.
        ([1.0 + 5e-10, 1.0000000001e-12], 2),
    ],
)
def test_spectrum_zeroes_levels_at_or_below_the_rank_cutoff(lam, kept):
    """Every bound counts the same levels: a coefficient at or below
    RANK_TOL = 1e-12 is stored as 0, and the rank and the effective
    spectrum are the nonzero levels."""
    s = spectrum(lam)
    assert np.count_nonzero(s.lambdas) == s.rank == s.effective.size == kept
    assert abs(s.lambdas.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("d", [3, 9, 32])
def test_stacked_check_is_each_spectrum_alone(d):
    """check_spectra gives each row of a stack, bit for bit, what the rules
    give one spectrum (the loop below is the reference) and what
    SchmidtSpectrum stores; a bad row anywhere in the stack is refused."""
    rng = np.random.default_rng(d)
    rows = rng.dirichlet(np.ones(d), size=6) * (1.0 + rng.uniform(-5e-10, 5e-10, (6, 1)))
    rows[1, :2] = rows[1, :2].sum() / 2  # a tie
    rows[2, -1], rows[2, 0] = 1e-13, rows[2, 0] + rows[2, -1] - 1e-13  # below RANK_TOL
    rows[3, -1], rows[3, 0] = 0.0, rows[3, 0] + rows[3, -1]
    for row, lam in zip(rows, check_spectra(rows)):
        alone = np.where(row > RANK_TOL, row, 0.0)
        alone = alone / alone.sum()
        alone = alone[np.argsort(-alone, kind="stable")]
        for got in (lam, SchmidtSpectrum(row).lambdas):
            assert got.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
    for at, value, message in [(slice(None), rows[4] * 0.9, "sum to"), (-1, -0.1, "negative"),
                               (0, np.nan, "finite")]:
        bad = rows.copy()
        bad[4, at] = value
        with pytest.raises(ValueError, match=message):
            check_spectra(bad)


def test_parse_spectrum():
    s = parse_spectrum("0.75,0.25")
    assert np.allclose(s.lambdas, [0.75, 0.25])
    with pytest.raises(ValueError):
        parse_spectrum("0.75,zzz")
    with pytest.raises(ValueError):
        parse_spectrum("")


def test_state_from_spectrum_trivial():
    st = state_from_spectrum(spectrum([1.0]))
    assert st.total_dim == 1
    assert np.allclose(st.psi, [1.0])


def test_state_from_spectrum_bell():
    st = state_from_spectrum(spectrum([0.5, 0.5]))
    expect = np.zeros(4)
    expect[0] = expect[3] = np.sqrt(0.5)
    assert np.allclose(st.psi, expect)


def test_state_from_spectrum_qutrit_family_point():
    lam = [0.8, 0.1, 0.1]
    st = state_from_spectrum(spectrum(lam))
    expect = np.zeros(9)
    expect[0] = np.sqrt(0.8)
    expect[4] = np.sqrt(0.1)
    expect[8] = np.sqrt(0.1)
    assert np.allclose(st.psi, expect)


def test_state_from_spectrum_reduces_to_diagonal():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        st = state_from_spectrum(spectrum(lam))
        for side in ("A", "B"):
            assert np.max(np.abs(st.reduced(side) - np.diag(lam))) <= 1e-12


def test_schmidt_decompose_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # |0>|1>
    s, _, _ = schmidt_decompose(psi, (2, 2))
    assert np.allclose(s.lambdas, [1.0, 0.0], atol=1e-12)


def test_schmidt_decompose_bell():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = np.sqrt(0.5)
    s, _, _ = schmidt_decompose(psi, (2, 2))
    assert np.allclose(s.lambdas, [0.5, 0.5], atol=1e-12)


def test_schmidt_decompose_rotated_state():
    # 0.6 |0>|+> + 0.8 |1>|->; the reduced-state eigenvalues are the oracle.
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    psi = 0.6 * np.kron([1, 0], plus) + 0.8 * np.kron([0, 1], minus)
    s, e, f = schmidt_decompose(psi, (2, 2))
    rho_a = partial_trace(np.outer(psi, psi.conj()), (2, 2), "A")
    oracle, _ = eig_hermitian(rho_a)
    assert np.allclose(s.lambdas, oracle, atol=1e-12)
    assert np.allclose(s.lambdas, [0.64, 0.36], atol=1e-12)
    rebuilt = sum(
        np.sqrt(s.lambdas[k]) * np.kron(e[:, k], f[:, k]) for k in range(2)
    )
    phase = np.vdot(rebuilt, psi)
    phase /= abs(phase)
    assert np.max(np.abs(phase * rebuilt - psi)) <= 1e-9


def test_schmidt_round_trip_random():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 6):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        st = state_from_spectrum(spectrum(lam))
        s, _, _ = schmidt_decompose(st.psi, (d, d))
        assert np.max(np.abs(s.lambdas - lam)) <= 1e-10


def test_sqrt_trace_reduced_bell():
    st = state_from_spectrum(spectrum([0.5, 0.5]))
    tA, tB = sqrt_trace_reduced(st)
    assert abs(tA - 2.0) <= 1e-10 and abs(tB - 2.0) <= 1e-10


def test_sqrt_trace_reduced_maximally_mixed():
    st = BipartiteState.from_density(np.eye(4) / 4, (2, 2))
    tA, tB = sqrt_trace_reduced(st)
    assert abs(tA - 2.0) <= 1e-10 and abs(tB - 2.0) <= 1e-10


def test_sqrt_trace_reduced_unbalanced_pair():
    st = state_from_spectrum(spectrum([0.75, 0.25]))
    tA, tB = sqrt_trace_reduced(st)
    expect = (np.sqrt(0.75) + np.sqrt(0.25)) ** 2
    cross_check = 1 + 2 * np.sqrt(0.75 * 0.25)
    assert abs(expect - cross_check) <= 1e-15
    assert abs(tA - expect) <= 1e-10
    assert abs(tA - 1.8660254037844386) <= 1e-9


def test_sqrt_trace_reduced_pure_sides_match():
    rng = np.random.default_rng(2)
    for d in (2, 4):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        st = state_from_spectrum(spectrum(lam))
        tA, tB = sqrt_trace_reduced(st)
        assert abs(tA - tB) <= 1e-10
        assert abs(tA - np.sum(np.sqrt(lam)) ** 2) <= 1e-10


def test_degenerate_ordering_is_stable_and_value_blind():
    a = spectrum([0.4, 0.4, 0.2])
    b = spectrum([0.2, 0.4, 0.4])
    assert np.allclose(a.lambdas, b.lambdas)


def test_bipartite_state_validation():
    with pytest.raises(ValueError):
        BipartiteState.from_pure(np.array([1.0, 1.0]), (1, 2))
    with pytest.raises(ValueError):
        BipartiteState.from_density(np.diag([1.5, -0.5]), (1, 2))


def test_maximally_correlated_matches_pure_projector():
    s = spectrum([0.75, 0.25])
    mc = MaximallyCorrelatedState.from_spectrum(s)
    st = state_from_spectrum(s)
    assert np.max(np.abs(mc.density() - st.density())) <= 1e-12


def test_maximally_correlated_validation():
    good = np.eye(2) / 2
    with pytest.raises(ValueError):
        MaximallyCorrelatedState(good * 2, np.eye(2), np.eye(2))  # trace 2
    skew = np.array([[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        MaximallyCorrelatedState(skew, np.eye(2), np.eye(2))  # not PSD
    with pytest.raises(ValueError):
        MaximallyCorrelatedState(good, np.ones((2, 2)), np.eye(2))  # bad basis


def test_spectrum_round_trip_through_mc_state():
    s = spectrum([0.6, 0.3, 0.1])
    mc = MaximallyCorrelatedState.from_spectrum(s)
    st = mc.to_state()
    lam, _ = eig_hermitian(st.reduced("A"))
    assert np.allclose(lam, s.lambdas, atol=1e-10)
