import numpy as np
import pytest

from loccdist.optimize import (
    OptimizerConfig,
    _project_rows,
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    grid_oracle,
)
from loccdist.states import spectrum
from loccdist.two_way import trace_T_batch, trace_T_closed_form


def random_spectrum(d, rng):
    return spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1])


def test_analytic_product_state():
    beta, delta = beta_two_way_qubit_analytic(0.0)
    assert abs(beta - 0.25) <= 1e-15
    assert abs(delta - 1.0) <= 1e-15


def test_analytic_maximally_entangled():
    beta, delta = beta_two_way_qubit_analytic(0.5)
    assert abs(beta - 0.5) <= 1e-15
    assert abs(delta - 0.0) <= 1e-15


def test_analytic_one_eighth():
    beta, delta = beta_two_way_qubit_analytic(0.125)
    assert abs(beta - (0.5 - 0.25 / 3.5)) <= 1e-15
    assert abs(beta - 0.4285714285714286) <= 1e-12
    assert abs(delta - 4.0 / 7.0) <= 1e-12


def test_analytic_domain():
    with pytest.raises(ValueError):
        beta_two_way_qubit_analytic(0.6)
    with pytest.raises(ValueError):
        beta_two_way_qubit_analytic(-0.1)


def test_optimizer_rank_one():
    res = beta_two_way_upper(spectrum([1.0, 0.0]))
    assert abs(res.beta_value - 0.25) <= 1e-12
    assert res.t_value == 1.0
    assert res.converged
    grid = grid_oracle(spectrum([1.0, 0.0]), 0.1)
    assert grid.t_value == 1.0 and grid.beta_value == 0.25


def test_optimizer_objective_is_reported_value():
    # The minimised objective and the reported t_value share one gate: on an
    # exactly uniform spectrum, whose optimum empties every column but the
    # last, they agree to the bit.
    s = spectrum([1 / 7] * 7)
    res = beta_two_way_upper(s)
    assert trace_T_batch(s.effective, res.best_delta.table[None])[0] == res.t_value
    assert abs(res.t_value - 7.0) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_project_rows(d):
    rng = np.random.default_rng(d)
    X = 3.0 * rng.standard_normal((20, d, d))
    P = _project_rows(X)
    upper = np.triu(np.ones((d, d), dtype=bool))
    assert np.all(P[:, ~upper] == 0.0)
    assert np.min(P) >= 0.0
    assert np.max(np.abs(P.sum(axis=2) - 1.0)) <= 1e-12
    assert np.max(np.abs(_project_rows(P) - P)) <= 1e-12
    # Euclidean projection onto a simplex: P = max(X - theta, 0) per row,
    # one theta per row, so every kept entry is shifted by the same amount
    # and every dropped entry sits at or below the shift.
    for n in range(X.shape[0]):
        for k in range(d):
            x, p = X[n, k, k:], P[n, k, k:]
            theta = np.mean((x - p)[p > 0])
            assert np.max(np.abs((x - p)[p > 0] - theta)) <= 1e-12
            assert np.all(x[p == 0] <= theta + 1e-12)


def test_optimizer_maximally_entangled_two_outcomes():
    res = beta_two_way_upper(spectrum([0.5, 0.5]))
    assert abs(res.beta_value - 0.5) <= 1e-9
    assert res.best_delta.table[0, 0] <= 1e-6


def test_optimizer_one_eighth():
    res = beta_two_way_upper(spectrum([7 / 8, 1 / 8]))
    assert abs(res.beta_value - 0.4285714) <= 1e-6
    assert abs(res.best_delta.table[0, 0] - 0.5714286) <= 1e-5


def test_optimizer_matches_analytic_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_spectrum(2, rng)
        res = beta_two_way_upper(s)
        exact, _ = beta_two_way_qubit_analytic(float(s.lambdas[1]))
        assert abs(res.beta_value - exact) <= 1e-6


def test_optimizer_result_invariants():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        s = random_spectrum(d, rng)
        res = beta_two_way_upper(s)
        # feasibility is enforced by the DeltaMatrix constructor itself
        assert np.allclose(res.best_delta.table.sum(axis=1), 1.0, atol=1e-12)
        assert np.min(res.best_delta.table) >= 0.0
        assert abs(res.beta_value - trace_T_closed_form(s, res.best_delta) / res.D) <= 1e-12


def test_optimizer_between_sep_and_one_way():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        s = random_spectrum(d, rng)
        res = beta_two_way_upper(s)
        beta_sep = np.sum(np.sqrt(s.lambdas)) ** 2 / s.dim**2
        beta_ow = s.rank / s.dim**2
        assert res.beta_value >= beta_sep - 1e-9
        assert res.beta_value <= beta_ow + 1e-9


def test_objective_invariant_under_zero_padding():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.dirichlet(np.ones(3)))[::-1]
    plain = beta_two_way_upper(spectrum(lam))
    padded = beta_two_way_upper(spectrum(list(lam) + [0.0, 0.0]))
    assert abs(plain.t_value - padded.t_value) <= 1e-9
    assert padded.D == 25 and plain.D == 9


def test_grid_oracle_two_outcomes():
    s = spectrum([7 / 8, 1 / 8])
    res = grid_oracle(s, 1e-3)
    exact, _ = beta_two_way_qubit_analytic(0.125)
    assert abs(res.beta_value - exact) <= 1e-5


def test_grid_oracle_flat_optimum():
    res = grid_oracle(spectrum([0.5, 0.5]), 0.1)
    assert abs(res.beta_value - 0.5) <= 1e-12


def test_grid_oracle_brackets_projected_gradient():
    s = spectrum([0.8, 0.1, 0.1])
    step = 0.05
    grid = grid_oracle(s, step)
    pg = beta_two_way_upper(s)
    assert pg.beta_value <= grid.beta_value + 1e-9
    assert grid.beta_value - pg.beta_value <= 2 * step


def test_grid_oracle_monotone_refinement():
    s = spectrum([0.7, 0.3])
    values = [grid_oracle(s, step).beta_value for step in (0.2, 0.1, 0.05, 0.025)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-15


def test_grid_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        grid_oracle(spectrum([0.5, 0.5]), 0.0)


def test_optimizer_value_independent_of_coefficient_order():
    res_a = beta_two_way_upper(spectrum([0.3, 0.3, 0.4]))
    res_b = beta_two_way_upper(spectrum([0.4, 0.3, 0.3]))
    assert abs(res_a.beta_value - res_b.beta_value) <= 1e-9


def test_optimizer_config_seed_determinism():
    s = spectrum([0.55, 0.3, 0.15])
    a = beta_two_way_upper(s, OptimizerConfig(seed=5))
    b = beta_two_way_upper(s, OptimizerConfig(seed=5))
    assert a.beta_value == b.beta_value
    assert np.array_equal(a.best_delta.table, b.best_delta.table)
