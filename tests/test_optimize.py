import warnings

import numpy as np
import pytest

from loccdist import optimize
from loccdist.bounds import pure_state_report, pure_state_reports
from loccdist.cli import MAX_LEVELS
from loccdist.families import BUILTIN_FAMILIES
from loccdist.optimize import (
    TOL,
    _finish,
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    grid_oracle,
    solve_stack,
)
from loccdist.separable import beta_sep_pure, sep_traces
from loccdist.states import SchmidtSpectrum, check_spectra, parse_spectrum, spectrum
from loccdist.two_way import (
    one_way_table,
    pair_factors,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
)
from test_batch import stack
from test_cli import fuzz_spectra


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


def test_rank_one_spectra_need_no_newton_step(monkeypatch):
    """[[1]] is the only feasible table at effective rank 1: alone, such a
    spectrum returns it after 1 pass with gap 0, and alone or among the
    spectra of other ranks in pure_state_reports it never reaches a KKT
    solve (the d = 1 system is 2 x 2)."""
    solve = np.linalg.solve

    def no_rank_one_solve(a, b):
        if a.shape[-1] == 2:
            raise AssertionError("a rank-1 spectrum reached np.linalg.solve")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", no_rank_one_solve)
    rank_one = [spectrum([1.0]), spectrum([1.0, 0.0, 0.0]), spectrum([1.0 - 1e-13, 1e-13])]
    alone = [beta_two_way_upper(s) for s in rank_one]
    for res in alone:
        assert res.iterations == 1 and res.certified_gap == 0.0 and res.t_value == 1.0
        assert res.converged and res.best_delta.table.tolist() == [[1.0]]
    assert [r.D for r in alone] == [1, 9, 4]
    raw = np.array([[0.6, 0.4, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [1.0 - 1e-13, 1e-13, 0.0]])
    reports = pure_state_reports(check_spectra(raw))
    assert reports == [pure_state_report(SchmidtSpectrum(lam)) for lam in raw]
    assert [(r.beta_two_way_upper, r.delta_star) for r in reports[1::2]] == [(1 / 9, "1")] * 2


def near_uniform(d, eps):
    """The uniform spectrum at d with eps moved from its last level to its
    first: d - (sum sqrt l)**2 is about eps**2 d**2 / 2."""
    lam = np.full(d, 1.0 / d)
    lam[0] += eps
    lam[-1] -= eps
    return spectrum(lam)


CERTIFIED = [near_uniform(d, eps) for eps in (0.0, 1e-6) for d in [*range(2, 11), MAX_LEVELS]]


def slack(s):
    """d - (sum sqrt l)**2 over the effective spectrum: how far the one-way
    corner's Tr T can lie above the minimum."""
    return s.rank - sep_traces(s.effective[None])[0]


def test_certified_corner_needs_no_newton_step(monkeypatch):
    """No table's Tr T lies below (sum sqrt l)**2 (LOCC tests are
    separable) and the one-way corner's is d, so a spectrum whose slack is
    at most tol returns the corner after one pass, with the slack as its
    gap: alone and among spectra of other ranks in pure_state_reports,
    uniform and 1e-6 from uniform at d = 2..10 and 32, without a KKT
    solve."""

    def no_solve(a, b):
        raise AssertionError("a certified spectrum reached np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for s in CERTIFIED:
        res, d = beta_two_way_upper(s), s.rank
        assert res.t_value == d and res.iterations == 1 and res.converged
        assert res.certified_gap == max(slack(s), 0.0) <= TOL
        assert np.array_equal(res.best_delta.table, one_way_table(d))
    raw = np.zeros((len(CERTIFIED) + 1, MAX_LEVELS))
    raw[0, 0] = 1.0
    for row, s in zip(raw[1:], CERTIFIED[::-1]):
        row[: s.dim] = s.lambdas
    reports = pure_state_reports(check_spectra(raw))
    assert reports == [pure_state_report(SchmidtSpectrum(lam)) for lam in raw]


def test_certified_rows_leave_the_stack_before_its_solve(monkeypatch):
    """In a stack that mixes certified and other spectra of one rank, only
    the others reach the stacked KKT solve, and every row is bit for bit
    the one its spectrum gets as a stack of one."""
    rng = np.random.default_rng(12)
    stacks = [
        np.stack([s.effective for s in (near_uniform(d, 0.0), random_spectrum(d, rng),
                                        near_uniform(d, 1e-6), random_spectrum(d, rng))])
        for d in (2, 3, 5)
    ]
    alone = [[solve_stack(lam[i : i + 1], TOL) for i in range(len(lam))] for lam in stacks]
    stacked, solve = [], np.linalg.solve

    def counted(a, b):
        stacked.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for lam, single in zip(stacks, alone):
        stacked.clear()
        solved = solve_stack(lam, TOL)
        assert stacked and max(stacked) == 2
        for i, one in enumerate(single):
            assert all(np.array_equal(a[i], b[0]) for a, b in zip(solved, one))
        assert (solved.iterations == 1).tolist() == [True, False, True, False]


def test_slack_above_tol_still_solves():
    """1e-4 from uniform at d = 4 the slack is about 8e-8: the spectrum is
    solved, and its table beats the corner."""
    s = near_uniform(4, 1e-4)
    assert slack(s) > TOL
    res = beta_two_way_upper(s)
    assert res.iterations > 1 and res.converged and res.t_value < 4


def test_no_value_lies_below_the_separable_bound():
    for s in map(parse_spectrum, fuzz_spectra()):
        assert beta_two_way_upper(s).t_value >= s.rank - slack(s) - 1e-12


def test_certified_gap_is_never_negative():
    """At tol = 1e-300 the final gap is a rounded difference of two sums
    that can come out below 0; the reported certificate reads 0 instead."""
    spectra = [spectrum([0.25] * 4), spectrum([0.4, 0.3, 0.2, 0.1]), spectrum([1 / 7] * 7)]
    for s in spectra:
        assert beta_two_way_upper(s, tol=1e-300).certified_gap >= 0.0


def test_optimizer_objective_is_reported_value():
    # The minimised objective and the reported t_value share one gate: on an
    # exactly uniform spectrum, whose optimum empties every column but the
    # last, they agree to the bit.
    s = spectrum([1 / 7] * 7)
    res = beta_two_way_upper(s)
    assert trace_T_batch(s.effective, res.best_delta.table[None])[0] == res.t_value
    assert abs(res.t_value - 7.0) <= 1e-9


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
    # One deterministic solve: no seed, and repeated calls agree to the bit.
    s = spectrum([0.55, 0.3, 0.15])
    a = beta_two_way_upper(s)
    b = beta_two_way_upper(s, tol=TOL)
    assert (a.t_value, a.iterations, a.certified_gap) == (b.t_value, b.iterations, b.certified_gap)
    assert np.array_equal(a.best_delta.table, b.best_delta.table)


def _certificate_spectrum(kind, d):
    rng = np.random.default_rng(d)
    if kind == "random":
        return np.sort(rng.dirichlet(np.ones(d)))[::-1]
    if kind == "tied":
        big, small = np.sort(rng.dirichlet(np.ones(2)))[::-1]
        lam = np.array([big] + [small] * (d - 1))
        return lam / lam.sum()
    if kind == "near-zero":
        head = np.sort(rng.dirichlet(np.ones(d - 1)))[::-1]
        return np.append(head * (1.0 - 1e-11), 1e-11)
    return np.append(np.sort(rng.dirichlet(np.ones(d)))[::-1], [0.0, 0.0])  # zero-padded


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["random", "tied", "near-zero", "zero-padded"])
def test_certified_gap_fuzz(kind, d):
    s = spectrum(_certificate_spectrum(kind, d))
    res = beta_two_way_upper(s)
    assert res.certified_gap >= 0.0
    assert res.converged and res.certified_gap <= 1e-9
    assert res.beta_value <= s.rank / s.dim**2
    if s.rank <= 3:
        # The gap bounds t_value minus the minimum, so no grid point beats it.
        assert res.t_value - res.certified_gap <= grid_oracle(s, 0.01).t_value


@pytest.mark.parametrize("t, ceiling", [(11 / 49, 0.248422275), (12 / 49, 0.24992565)])
def test_fig5_rows_reach_the_minimum(t, ceiling):
    # Both points stopped short of the minimum under multi-start projected
    # gradient while reporting convergence.
    family = BUILTIN_FAMILIES["fig5"]
    res = beta_two_way_upper(SchmidtSpectrum(np.clip(family.coefficients(t), 0.0, None)))
    assert res.converged
    assert res.beta_value <= ceiling


def test_two_outcome_check_holds_a_row_to_its_certificate():
    """The d = 2 analytic check flags a barrier-solved row only when its
    value lies more than max(1e-6, certified_gap / 4) above the exact one
    (or more than 1e-6 below): a table 0.0028 above the minimum at 0.6,0.4
    is flagged with a gap below that excess and passes with one above it."""
    lam, table, solved = np.array([[0.6, 0.4]]), np.array([[[0.3, 0.7], [0.0, 1.0]]]), np.array([True])
    excess = trace_T_closed_form(lam, table)[0] / 4 - beta_two_way_qubit_analytic(0.4)[0]
    assert excess > 1e-6
    with pytest.warns(RuntimeWarning, match="missed the analytic two-outcome value"):
        flagged = _finish(lam, table, np.ones(1, dtype=int), np.array([2 * excess]), 1.0, solved)
    assert not flagged.converged[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loose = _finish(lam, table, np.ones(1, dtype=int), np.array([8 * excess]), 1.0, solved)
    assert loose.converged[0]


def test_passes_per_solve_ceiling():
    """The barrier weight follows the certified gap (t >= 2 m / gap), so a
    solve spends no passes on a weight the certificate has outgrown:
    Dirichlet spectra at d = 5..10 average at most 22 Newton passes."""
    rng = np.random.default_rng(5)
    spectra = [random_spectrum(d, rng) for d in range(5, 11) for _ in range(8)]
    results = [beta_two_way_upper(s) for s in spectra]
    assert all(r.converged for r in results)
    assert np.mean([r.iterations for r in results]) <= 22


TIED_10 = np.array([5 / 32] + [3 / 32] * 9)  # without the finish's exit: 43 passes, not 40


def finish_cases() -> list:
    """Effective spectra for the finish: the tied TIED_10, every row of
    test_batch's stack() at d = 1..10 (random, tied, uniform, a 1e-11
    level, zero-padded) and fuzz_spectra()."""
    rows = [row for d in range(1, 11) for row in stack(d, np.random.default_rng(100 + d))]
    return [TIED_10, *rows, *(parse_spectrum(s).effective for s in fuzz_spectra())]


def test_finish_takes_at_most_two_passes_more_than_the_barrier(monkeypatch):
    """A row that enters the finish and leaves it again costs at most two
    passes over the barrier alone (FINISH_GAP = 0, which no gap above tol
    reaches), and every row still converges to tol."""
    lams = finish_cases()
    finished = [solve_stack(lam[None], TOL) for lam in lams]
    monkeypatch.setattr(optimize, "FINISH_GAP", 0.0)
    barrier = [solve_stack(lam[None], TOL) for lam in lams]
    for a, b in zip(finished, barrier):
        assert a.converged[0] and a.gaps[0] <= TOL
        assert a.iterations[0] <= b.iterations[0] + 2
    assert sum(a.iterations[0] for a in finished) < sum(b.iterations[0] for b in barrier)


def test_finish_passes_per_solve_ceiling():
    """With the finish, Dirichlet spectra at d = 5..10 average at most 14
    Newton passes; each result lies within its certified gap of a solve to
    tol = 1e-12 and not below the separable bound (sum sqrt l)**2."""
    rng = np.random.default_rng(24)
    spectra = [random_spectrum(d, rng) for d in range(5, 11) for _ in range(8)]
    results = [beta_two_way_upper(s) for s in spectra]
    assert np.mean([r.iterations for r in results]) <= 14
    for s, res in zip(spectra, results):
        tight = beta_two_way_upper(s, tol=1e-12)
        assert res.converged and tight.converged
        ulps = 8 * np.spacing(tight.t_value)
        assert -tight.certified_gap - ulps <= res.t_value - tight.t_value <= res.certified_gap + ulps
        assert res.t_value >= sep_traces(s.effective[None])[0] - 1e-12


def test_finish_evaluates_the_closed_form_on_solved_rows_only(monkeypatch):
    """Certified-corner rows keep Tr T = d without a trace_T_closed_form
    call: a stack of corners makes none, and a mixed stack one, on its
    solved rows alone."""
    calls, closed_form = [], optimize.trace_T_closed_form

    def counted(lam, tables):
        calls.append(len(tables))
        return closed_form(lam, tables)

    monkeypatch.setattr(optimize, "trace_T_closed_form", counted)
    corners = np.array([[1.0 / 3] * 3, near_uniform(3, 1e-6).effective])
    assert solve_stack(corners, TOL).t_values.tolist() == [3.0, 3.0]
    assert solve_stack(np.ones((2, 1)), TOL).t_values.tolist() == [1.0, 1.0]
    assert calls == []
    mixed = np.concatenate([corners, [[0.5, 0.3, 0.2]]])
    assert solve_stack(mixed, TOL).t_values[2] < 3.0
    assert calls == [1]


@pytest.mark.parametrize("d", [16, MAX_LEVELS])
def test_solve_converges_above_d_10(d):
    """A seeded Dirichlet spectrum and one with four-fold ties, at d = 16
    and at the largest d the command line accepts."""
    rng = np.random.default_rng(d)
    tied = np.repeat(rng.dirichlet(np.ones(d // 4)), 4) / 4
    spectra = [random_spectrum(d, rng), spectrum(np.sort(tied)[::-1])]
    for s in spectra:
        res = beta_two_way_upper(s)
        assert res.converged and res.certified_gap <= 1e-9
        assert beta_sep_pure(s) <= res.beta_value <= s.rank / s.dim**2


def test_gap_at_the_iteration_cap_is_that_of_the_returned_table(monkeypatch):
    """A solve cut short by MAX_ITERS reports the Frank-Wolfe gap of the
    table it returns, not of the iterate before it."""
    monkeypatch.setattr(optimize, "MAX_ITERS", 4)
    rng = np.random.default_rng(1)
    for d in (3, 5, 8):
        s = random_spectrum(d, rng)
        res = beta_two_way_upper(s)
        assert not res.converged
        lam, table = s.effective, res.best_delta.table
        _, g, _ = trace_T_batch(lam, table[None], pair_factors(lam))
        vertex = np.where(table_layout(d).upper, g[0], np.inf).min(axis=1).sum()
        assert abs((g[0] * table).sum() - vertex - res.certified_gap) <= 1e-12


CERTIFY_CASES = fuzz_spectra() + [
    ",".join(repr(float(x)) for x in _certificate_spectrum(kind, d))
    for kind in ("tied", "near-zero")
    for d in range(2, 11)
]


@pytest.mark.parametrize("schmidt", CERTIFY_CASES)
def test_result_lies_within_its_certified_gap(schmidt):
    """Both values lie above the minimum, and each exceeds it by at most its
    own certified gap; so the default solve is within certified_gap of a
    solve to tol = 1e-12, from above or from below by that solve's gap."""
    s = parse_spectrum(schmidt)
    res = beta_two_way_upper(s)
    tight = beta_two_way_upper(s, tol=1e-12)
    assert res.converged and tight.converged
    ulps = 8 * np.spacing(tight.t_value)  # rounding in the values and their gaps
    assert -tight.certified_gap - ulps <= res.t_value - tight.t_value <= res.certified_gap + ulps
