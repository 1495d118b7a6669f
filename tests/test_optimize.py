import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from loccdist import optimize
from loccdist.bounds import pure_state_report, pure_state_reports
from loccdist.cli import MAX_LEVELS
from loccdist.families import BUILTIN_FAMILIES
from loccdist.optimize import (
    MAX_ITERS,
    TOL,
    _barrier_newton,
    _clean,
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    dual_bound,
    face_tables,
    grid_oracle,
    grid_size,
    row_multipliers,
    solve_stack,
    top_ties,
)
from loccdist.separable import beta_sep_pure, sep_traces
from loccdist.states import SchmidtSpectrum, check_spectra, parse_spectrum, spectrum
from loccdist.two_way import (
    DeltaMatrix,
    free_entries,
    one_way_table,
    pair_factors,
    table_layout,
    trace_T_batch,
    trace_T_closed_form,
    trace_T_entries,
    uniform_table,
)
from reference import interior_optimum, loop_dual_bound
from test_batch import barrier_meets_analytic, stack
from test_cli import fuzz_spectra
from test_solve_pins import solve_cases


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
    the others reach the stacked KKT solve (none at d = 2, which is solved
    in closed form), and every row is bit for bit the one its spectrum
    gets as a stack of one."""
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
        if lam.shape[1] == 2:
            assert not stacked and (solved.iterations == 1).all()
        else:
            assert stacked and max(stacked) == 2
            assert (solved.iterations == 1).tolist() == [True, False, True, False]
        for i, one in enumerate(single):
            assert all(np.array_equal(a[i], b[0]) for a, b in zip(solved, one))


def two_outcome_pairs() -> list:
    """The fig1 grid at 50 points, 200 random smaller coefficients and a
    pair 1e-4 from uniform: every rank-2 spectrum whose slack exceeds TOL."""
    fig1 = BUILTIN_FAMILIES["fig1"]
    lams = [np.clip(fig1.coefficients(t), 0.0, None) for t in fig1.grid(50)]
    lams += [[1.0 - l, l] for l in np.random.default_rng(26).uniform(0.0, 0.5, 200)]
    lams.append([0.5 + 1e-4, 0.5 - 1e-4])
    return [s for s in map(spectrum, lams) if s.rank == 2 and slack(s) > TOL]


def test_two_outcome_rows_are_solved_in_closed_form(monkeypatch):
    """A rank-2 spectrum whose slack exceeds tol makes no KKT solve: it
    returns DeltaMatrix.qubit(delta*)'s table bit for bit after one pass,
    and its t_value is 4 beta to rounding; its certified gap is that
    rounding, 4 ulps of t_value."""

    def no_solve(a, b):
        raise AssertionError("a two-outcome spectrum reached np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    pairs = two_outcome_pairs()
    assert len(pairs) > 240
    for s in pairs:
        res = beta_two_way_upper(s)
        beta, delta = beta_two_way_qubit_analytic(float(s.effective[1]))
        assert np.array_equal(res.best_delta.table, DeltaMatrix.qubit(delta).table)
        assert res.iterations == 1 and res.converged
        assert res.certified_gap == 4 * np.spacing(res.t_value)
        assert abs(res.t_value - 4 * beta) <= 1e-15


def test_barrier_solve_of_two_outcome_rows_meets_the_analytic_value():
    """The barrier solve meets the exact value on every two-outcome
    spectrum of two_outcome_pairs()."""
    barrier_meets_analytic(np.stack([s.effective for s in two_outcome_pairs()]))


def test_slack_above_tol_still_solves():
    """1e-4 from uniform at d = 4 the slack is about 8e-8: the spectrum is
    solved, and its table beats the corner."""
    s = near_uniform(4, 1e-4)
    assert slack(s) > TOL
    res = beta_two_way_upper(s)
    assert res.iterations > 1 and res.converged and res.t_value < 4


def test_a_slack_equal_to_tol_keeps_the_corner():
    """Only a row whose slack exceeds tol is solved: at tol equal to the
    slack itself the row keeps the one-way corner, with that slack as its
    certified gap, at d = 2 and at d = 4."""
    rng = np.random.default_rng(35)
    for d in (2, 4):
        lam = random_spectrum(d, rng).effective[None]
        tol = float(d - np.array(sep_traces(lam))[0])
        solved = solve_stack(lam, tol)
        assert solved.t_values[0] == d and solved.iterations[0] == 1
        assert solved.gaps[0] == tol and solved.converged[0]
        assert np.array_equal(solved.tables[0], one_way_table(d))


def frank_wolfe_gap(lam: np.ndarray, table: np.ndarray) -> float:
    """The Frank-Wolfe gap of a table under one effective spectrum, by the
    solver's own sums and before their rounding bound is added."""
    x = free_entries(table[None])
    _, g, _ = trace_T_entries(lam, x, pair_factors(lam))
    vertex = np.minimum.reduceat(g, table_layout(lam.size).starts, axis=1).sum(axis=1)
    return float(((g * x).sum(axis=1) - vertex)[0])


def test_a_gap_equal_to_tol_stops_the_solve():
    """A row stops at the first pass whose Frank-Wolfe gap is at most tol,
    equality included: solved again with tol set to the gap it reported,
    it stops at the same pass with the same table, and so does the barrier
    solve with tol set to the gap of the table it returned, before the
    rounding bound that the reported gap adds."""
    rng = np.random.default_rng(36)
    for d in (3, 5, 8):
        lam = random_spectrum(d, rng).effective[None]
        first = solve_stack(lam, TOL)
        again = solve_stack(lam, float(first.gaps[0]))
        assert first.gaps[0] > 0 and again.gaps[0] == first.gaps[0]
        assert again.iterations[0] == first.iterations[0] > 1
        assert np.array_equal(again.tables, first.tables)
        tables, passes, gaps = _barrier_newton(lam, TOL)
        gap = frank_wolfe_gap(lam[0], tables[0])
        assert 0 < gap < gaps[0] <= TOL
        equal = _barrier_newton(lam, gap)
        assert equal[1][0] == passes[0] == first.iterations[0]
        assert np.array_equal(equal[0], tables) and equal[2][0] == gaps[0]


def test_a_tie_with_the_corner_reports_the_solved_table():
    """1e-9 from uniform at d = 2 the exact two-outcome value rounds to
    2 = d, the one-way corner's, while its slack (4.4e-16) still exceeds
    tol: on that tie the solved table is reported."""
    lam = np.array([[0.5 + 1e-9, 0.5 - 1e-9]])
    solved = solve_stack(lam, 1e-16)
    delta = float(optimize._qubit_delta_star(lam[0, 1]))
    assert solved.t_values[0] == 2.0 and 0.0 < delta
    assert solved.tables[0].tolist() == [[delta, 1.0 - delta], [0.0, 1.0]]


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
    """The barrier solve of 50 random two-outcome spectra meets the exact
    value on every row."""
    rng = np.random.default_rng(0)
    barrier_meets_analytic(np.stack([random_spectrum(2, rng).effective for _ in range(50)]))


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


def test_passes_per_solve_ceiling():
    """The barrier weight follows the certified gap (t >= GAP_FLOOR m /
    gap), so a solve spends no passes on a weight the certificate has
    outgrown: Dirichlet spectra at d = 5..10 average at most 22 Newton
    passes."""
    rng = np.random.default_rng(5)
    spectra = [random_spectrum(d, rng) for d in range(5, 11) for _ in range(8)]
    results = [beta_two_way_upper(s) for s in spectra]
    assert all(r.converged for r in results)
    assert np.mean([r.iterations for r in results]) <= 22


TIED_10 = np.array([5 / 32] + [3 / 32] * 9)  # tied at d = 10: a degenerate minimum, slow for the barrier


def hard_cases() -> list:
    """Effective spectra at the solve's edges: the tied TIED_10, every row
    of test_batch's stack() at d = 1..10 (random, tied, uniform, a 1e-11
    level, zero-padded) and fuzz_spectra()."""
    rows = [row for d in range(1, 11) for row in stack(d, np.random.default_rng(100 + d))]
    return [TIED_10, *rows, *(parse_spectrum(s).effective for s in fuzz_spectra())]


def test_hard_cases_converge_to_tol():
    """Every hard case converges to tol, and the tied TIED_10 takes at most
    27 passes."""
    solved = [solve_stack(lam[None], TOL) for lam in hard_cases()]
    for res in solved:
        assert res.converged[0] and res.gaps[0] <= TOL
    assert solved[0].iterations[0] <= 27


def test_grid_size_counts_the_oracle_grid():
    """grid_size's total is the number of tables grid_oracle enumerates:
    the product over rows k of the compositions of `units` into d - k
    parts."""
    assert grid_size(3, 0.5) == (2, 18)  # 6 * 3 * 1
    for d, step in ((1, 0.5), (2, 0.25), (3, 0.2), (4, 1 / 3), (5, 0.5)):
        units, total = grid_size(d, step)
        assert units == round(1 / step)
        assert total == np.prod([len(optimize._compositions(units, d - k)) for k in range(d)])


def interior_cases() -> list:
    """Effective spectra of rank 2..16 for the exact interior optimum:
    seeded Dirichlet spectra, fig2-fig6 grid points, the hard cases of rank
    >= 2, and Dirichlet spectra with l_1 = l_0 (1 - 1e-12)."""
    rng = np.random.default_rng(31)
    dirichlet = [np.sort(rng.dirichlet(np.ones(d)))[::-1] for d in range(2, 17) for _ in range(3)]
    near_tied = []
    for d in range(3, 17, 3):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        lam[1] = lam[0] * (1.0 - 1e-12)
        near_tied.append(lam / lam.sum())
    figures = [
        row[row > 0]
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6")
        for row in BUILTIN_FAMILIES[name].spectra_array(BUILTIN_FAMILIES[name].grid(20))
    ]
    cases = [*dirichlet, *near_tied, *figures, *hard_cases()]
    return [lam for lam in cases if lam.size >= 2]


def test_solve_meets_the_exact_interior_optimum():
    """Where the closed-form interior optimum certifies itself (its own
    Frank-Wolfe gap at most 1e-13), the solve converges, lies no further
    below it than rounding and no further above it than its own certified
    gap; at rank 2 both give the same table.  The oracle certifies every
    spectrum with l_0 > l_1 beyond rounding."""
    certified = 0
    for lam in interior_cases():
        oracle = interior_optimum(lam)
        if oracle is None or oracle[2] > 1e-13:
            assert lam[0] - lam[1] <= 1e-15, lam
            continue
        certified += 1
        table, value, _ = oracle
        res = solve_stack(lam[None], TOL)
        t_value, gap = res.t_values[0], res.gaps[0]
        assert res.converged[0]
        assert value - 1e-12 <= t_value <= value + min(gap, TOL) + 1e-12
        if lam.size == 2:
            assert np.abs(res.tables[0] - table).max() <= 1e-15
    assert certified >= 150


def test_passes_per_solve_ceiling_at_the_floor():
    """At GAP_FLOOR = 15, Dirichlet spectra at d = 5..10 average at most 11
    Newton passes; each result lies within its certified gap of a solve to
    tol = 1e-12 and not below the separable bound (sum sqrt l)**2."""
    rng = np.random.default_rng(24)
    spectra = [random_spectrum(d, rng) for d in range(5, 11) for _ in range(8)]
    results = [beta_two_way_upper(s) for s in spectra]
    assert np.mean([r.iterations for r in results]) <= 11
    for s, res in zip(spectra, results):
        tight = beta_two_way_upper(s, tol=1e-12)
        assert res.converged and tight.converged
        ulps = 8 * np.spacing(tight.t_value)
        assert -tight.certified_gap - ulps <= res.t_value - tight.t_value <= res.certified_gap + ulps
        assert res.t_value >= sep_traces(s.effective[None])[0] - 1e-12


def test_the_finish_cuts_the_passes_at_the_floor(monkeypatch):
    """A row within FINISH_GAP of the minimum, no free entry within
    sqrt(max(w, gap / 20)) of the boundary, finishes with plain Newton
    steps on Tr T, which converge quadratically near the interior
    minimiser: the seeded set of test_passes_per_solve_ceiling_at_the_floor
    averages at most 8.5 passes (8.38), against 10.56 with the finish
    turned off (FINISH_GAP patched to 0, so that no gap lies within it)."""
    rng = np.random.default_rng(24)
    spectra = [random_spectrum(d, rng) for d in range(5, 11) for _ in range(8)]
    finished = np.mean([beta_two_way_upper(s).iterations for s in spectra])
    monkeypatch.setattr(optimize, "FINISH_GAP", 0.0)
    barrier = np.mean([beta_two_way_upper(s).iterations for s in spectra])
    assert finished <= 8.5 < barrier


def test_every_damped_step_is_accepted_after_a_few_halvings(monkeypatch):
    """Each pass's Armijo search accepts its step after a few halvings: no
    hard case rejects more than 8 trial steps in all (4 at most).  The
    count also stops a search that would never accept, halving forever."""
    calls, entries = [0], optimize.trace_T_entries

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 2 * MAX_ITERS, "an Armijo search did not end"
        return entries(*args)

    monkeypatch.setattr(optimize, "trace_T_entries", counted)
    for lam in hard_cases():
        calls[0] = 0
        res = solve_stack(lam[None], TOL)
        if res.iterations[0] > 1:  # one evaluation at the start, one per accepted step
            assert calls[0] - res.iterations[0] <= 8


def count_kkt_solves(monkeypatch) -> list:
    """A list that records the stack size of every np.linalg.solve call."""
    solves, solve = [], np.linalg.solve

    def counted(a, b):
        solves.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


def test_no_hard_case_finishes_near_the_boundary(monkeypatch):
    """A row finishes only once no free entry lies within sqrt(w) of the
    boundary, w the weight its iterate was centred for.  Where the
    minimiser lies on the boundary (a top tie empties columns) a plain
    Newton step would run into the fraction-to-boundary cap and be taken
    again at w; the guard keeps every hard case clear of that, so each
    solved row makes one KKT solve per pass but its last.  Without the
    guard 17 of them retook 66 steps."""
    solves = count_kkt_solves(monkeypatch)
    for lam in hard_cases():
        solves.clear()
        res = solve_stack(lam[None], TOL)
        assert res.converged[0] and sum(solves) == max(res.iterations[0] - 1, 0)


def test_a_finishing_step_that_the_cap_cuts_is_taken_at_the_weight(monkeypatch):
    """Near the maximally entangled end of fig2 (1 - 2t, t, t) the tied
    levels put the minimiser near the boundary, and a plain Newton step can
    run into the fraction-to-boundary cap.  Such a row returns to its
    barrier weight w and takes the barrier step instead, with a second KKT
    solve in that pass: over the top 20 points of the 400-point grid some
    pass does so (24 in all), and the rows take fewer passes in all than
    with the finish turned off (FINISH_GAP patched to 0): 357 against 362.
    Without the guard's gap / 20 term they took 424."""
    family = BUILTIN_FAMILIES["fig2"]
    lams = [lam[lam > 0] for lam in family.spectra_array(family.grid(400))[380:]]
    solves = count_kkt_solves(monkeypatch)
    finished = [solve_stack(lam[None], TOL) for lam in lams]
    assert all(res.converged[0] for res in finished)
    passes = sum(int(res.iterations[0]) for res in finished)
    retaken = sum(solves) - sum(int(res.iterations[0]) - 1 for res in finished if res.iterations[0] > 1)
    monkeypatch.setattr(optimize, "FINISH_GAP", 0.0)
    barrier = sum(int(solve_stack(lam[None], TOL).iterations[0]) for lam in lams)
    assert retaken > 0 and passes < barrier


def one_level_moved(lam: np.ndarray) -> tuple[float, float]:
    """(t*, f(t*)) for the tables that move a share t of level 0 from the
    one-way corner (every level in the last column) to column 0, whose
    Tr T is f(t) = t + d (1 - 2 l_0 t + l_0 t**2) / (1 - l_0 t); its
    minimiser is t* = (1 - u) / l_0, u = sqrt(d (1 - l_0) / (d - 1)),
    clipped to [0, 1]."""
    d, l0 = lam.size, lam[0]
    if d == 1:
        return 0.0, 1.0
    u = np.sqrt(d * (1.0 - l0) / (d - 1))
    t = min(max((1.0 - u) / l0, 0.0), 1.0)
    return t, t + d * (1.0 - 2.0 * l0 * t + l0 * t * t) / (1.0 - l0 * t)


def test_one_level_moved_is_the_least_trace_of_its_tables():
    """f(t*) is Tr T at t*'s table, and no other t on a grid does better."""
    rng = np.random.default_rng(13)
    for d in range(2, 8):
        lam = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        best_t, best = one_level_moved(lam)
        ts = np.append(np.linspace(0.0, 1.0, 2001), best_t)
        tables = np.repeat(one_way_table(d)[None], ts.size, axis=0)
        tables[:, 0, 0], tables[:, 0, -1] = ts, 1.0 - ts
        values = trace_T_batch(lam, tables)
        assert abs(values[-1] - best) <= 1e-12
        assert values.min() >= best - 1e-12


def test_solve_is_no_worse_than_moving_one_level():
    """An upper bound on the minimum from tables the solve does not
    produce: no result lies above f(t*) by more than its certified gap
    (1e-12 for rounding), and a spectrum with l_0 > 1/d, where
    f'(0) = 1 - d l_0 < 0, gets a value below the one-way corner's d.
    The hard cases include fuzz_spectra()."""
    rng = np.random.default_rng(2013)
    dirichlet = [
        np.sort(rng.dirichlet(np.full(d, a)))[::-1]
        for a in (0.3, 1.0, 5.0)
        for d in range(2, 11)
        for _ in range(3)
    ]
    for lam in [*hard_cases(), *(SchmidtSpectrum(x).effective for x in dirichlet)]:
        res = solve_stack(lam[None], TOL)
        t_value, gap = res.t_values[0], res.gaps[0]
        assert t_value <= one_level_moved(lam)[1] + gap + 1e-12
        if lam[0] > 1.0 / lam.size + 1e-9:
            assert t_value < lam.size


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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
def test_solve_rejects_a_tol_outside_zero_to_inf(tol):
    """0 < tol < inf is the solve's one input rule (check_tol), held by
    solve_stack and so by beta_two_way_upper.  Unchecked, NaN returned the
    one-way corner unconverged after one pass, inf the corner as
    converged, and -1 ran all MAX_ITERS passes."""
    s = spectrum([0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="0 < tol < inf"):
        beta_two_way_upper(s, tol)
    with pytest.raises(ValueError, match="0 < tol < inf"):
        solve_stack(s.effective[None], tol)


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
        x = free_entries(table[None])
        _, g, _ = trace_T_entries(lam, x, pair_factors(lam))
        grad = np.full((d, d), np.inf)  # g at the free entries, inf below the diagonal
        grad[table_layout(d).upper] = g[0]
        vertex = grad.min(axis=1).sum()
        assert abs((g * x).sum() - vertex - res.certified_gap) <= 1e-12


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


PERFBENCH_POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def pool_spectra(workload: str) -> list:
    """The spectra of a perfbench workload's committed pool."""
    strata = json.loads(PERFBENCH_POOLS.read_text())[workload]["strata"]
    return [entry["schmidt"] for entries in strata.values() for entry in entries]


def test_the_perfbench_pools_take_few_passes():
    """The finish from gap FINISH_GAP = 1e-2 takes the bounds-random pool
    to 8.46 passes on average (9.38 from sqrt(TOL)) and the certify pool to
    6.25 (6.88)."""
    for workload, ceiling in (("bounds-random", 8.6), ("certify", 6.4)):
        results = [beta_two_way_upper(parse_spectrum(s)) for s in pool_spectra(workload)]
        assert all(r.converged for r in results)
        assert np.mean([r.iterations for r in results]) <= ceiling, workload


def test_hard_cases_take_few_passes():
    """The hard cases take 508 passes in all and at most 27: their
    top-tied rows are solved on their face in one pass (867 and 33 with
    the barrier alone, from its finish at gap sqrt(TOL))."""
    passes = [int(solve_stack(lam[None], TOL).iterations[0]) for lam in hard_cases()]
    assert sum(passes) <= 867 and max(passes) <= 33


def top_tied(r: int, d: int, width: float, rng: np.random.Generator) -> np.ndarray:
    """An effective spectrum of rank d whose top r levels are tied:
    l_1 .. l_{r-1} lie a relative width below l_0, above a Dirichlet tail."""
    tail = np.sort(rng.dirichlet(np.ones(d - r)))[::-1]
    top = np.full(r, tail[0] * rng.uniform(1.05, 3.0))
    top[1:] *= 1.0 - width
    lam = np.concatenate([top, tail])
    return lam / lam.sum()


TIE_WIDTHS = (0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_a_top_tie_is_solved_on_its_face(r):
    """A top tie of multiplicity r, exact or up to a relative width of
    1e-12, is solved in one pass on its face: the tied rows share one row,
    columns 0 .. r - 2 are exactly 0, the certified gap is at most tol, and
    the value lies at or below the barrier solve's to tol 1e-12."""
    rng = np.random.default_rng(70 + r)
    for d in range(r + 1, r + 5):
        for width in TIE_WIDTHS:
            lam = top_tied(r, d, width, rng)
            assert top_ties(lam[None])[0] == r
            res = solve_stack(lam[None], TOL)
            table = res.tables[0]
            assert res.iterations[0] == 1 and res.converged[0] and res.gaps[0] <= TOL
            assert (table[:, : r - 1] == 0.0).all()
            assert (table[1:r] == table[0]).all()
            tables, _, _ = _barrier_newton(lam[None], 1e-12)
            assert res.t_values[0] <= trace_T_closed_form(lam[None], _clean(tables))[0]


def test_the_recursion_at_r_1_is_the_interior_optimum():
    """At r = 1 the face recursion is the exact interior optimum of
    tests/reference.py, to 2e-15 in every entry, wherever that certifies
    itself, and finds no table wherever the oracle finds none."""
    certified = 0
    for lam in interior_cases():
        oracle = interior_optimum(lam)
        tables, ok = face_tables(lam[None], 1)
        if oracle is None:
            assert not ok[0]
            continue
        assert ok[0]
        if oracle[2] <= 1e-13:
            certified += 1
            assert np.abs(tables[0] - oracle[0]).max() <= 2e-15
    assert certified >= 150


def dual_cases() -> list:
    """Effective spectra for the dual bound: fuzz_spectra(), the solve pins
    and both perfbench pools."""
    pools = pool_spectra("bounds-random") + pool_spectra("certify")
    spectra = fuzz_spectra() + solve_cases() + pools
    return [parse_spectrum(s).effective for s in spectra]


def test_the_dual_bound_lies_below_every_value():
    """L(mu) <= t_value on every solved table, within 1e-12 of its loop
    reference, and within the certified gap of t_value wherever the
    corner's slack does not certify the row, each to rounding (4 ulps of
    t_value: at an exact rank-2 table L can read an ulp above t_value).  A table solved on its face
    is certified by the dual itself, to 1e-13."""
    for lam in dual_cases():
        res = solve_stack(lam[None], TOL)
        _, mu = row_multipliers(lam[None], res.tables)
        lower = dual_bound(lam[None], mu)[0]
        ulps = 4 * np.spacing(res.t_values[0])
        assert lower <= res.t_values[0] + ulps, lam
        assert abs(lower - loop_dual_bound(lam, res.tables[0])) <= 1e-12, lam
        if lam.size - sep_traces(lam[None])[0] > TOL:
            assert res.t_values[0] - lower <= res.gaps[0] + ulps, lam
        if lam.size > 2 and top_ties(lam[None])[0] > 1 and res.iterations[0] == 1:
            assert res.t_values[0] - lower <= 1e-13, lam


def test_the_dual_bound_is_loose_on_a_poor_table(monkeypatch):
    """Far from the minimum L(mu) still lies below it, but t_value - L
    exceeds the converged solve's certified gap by far: at the uniform
    table, and at a table cut off after MAX_ITERS = 3 passes."""
    rng = np.random.default_rng(71)
    spectra = [random_spectrum(d, rng).effective[None] for d in (3, 5, 8)]
    best = [solve_stack(lam, TOL) for lam in spectra]
    monkeypatch.setattr(optimize, "MAX_ITERS", 3)
    for lam, solved in zip(spectra, best):
        cut = solve_stack(lam, TOL)
        assert not cut.converged[0]
        for table in (uniform_table(lam.shape[1])[None], cut.tables):
            value, mu = row_multipliers(lam, table)
            lower = dual_bound(lam, mu)[0]
            assert lower <= solved.t_values[0]
            assert value[0] - lower > 1e3 * solved.gaps[0]


def test_a_stack_of_tied_and_untied_rows_is_each_row_alone():
    """Top ties of multiplicity 2 and 3, a near tie that misses tol, a tie
    below the top and untied rows in one stack: each row gets its stack of
    one result, to the bit, in any order."""
    rng = np.random.default_rng(72)
    d = 6
    lams = [top_tied(2, d, 0.0, rng), random_spectrum(d, rng).effective, top_tied(3, d, 1e-14, rng),
            top_tied(2, d, 5e-10, rng), top_tied(3, d, 0.0, rng), top_tied(2, d, 1e-16, rng)]
    tail_tie = np.sort(rng.dirichlet(np.ones(d)))[::-1]
    tail_tie[2] = tail_tie[1]
    lams.append(tail_tie / tail_tie.sum())
    lam = np.stack(lams)
    single = [solve_stack(lam[i : i + 1], 1e-10) for i in range(len(lam))]
    on_face = [int(one.iterations[0]) == 1 for one in single]
    assert on_face == [True, False, True, False, True, True, False]
    for order in (np.arange(len(lam)), rng.permutation(len(lam))):
        solved = solve_stack(lam[order], 1e-10)
        for row, i in enumerate(order):
            assert all(np.array_equal(a[row], b[0]) for a, b in zip(solved, single[i]))


def test_a_tied_row_that_misses_tol_is_solved_by_the_barrier():
    """The face's dual gap grows as about 1.25 times the tie's width: a
    width of 5e-10 certifies to TOL on the face but not to 1e-10, where
    the barrier solves the row instead, to that tol."""
    lam = top_tied(2, 5, 5e-10, np.random.default_rng(73))[None]
    face = solve_stack(lam, TOL)
    assert face.iterations[0] == 1 and face.gaps[0] <= TOL
    barrier = solve_stack(lam, 1e-10)
    assert barrier.iterations[0] > 1 and barrier.converged[0] and barrier.gaps[0] <= 1e-10
    assert barrier.tables[0][0, 0] > 0.0


def test_the_tie_tolerance_is_relative_to_the_top_level():
    """A level within TIE_RTOL = 1e-9 of l_0, relatively, is tied with it and
    one 1.5e-9 below is not: at tol 1e-6, which the face's gap meets at
    either width, the first is solved on its face and the second by the
    barrier."""
    rng = np.random.default_rng(74)
    for width, face in ((0.5e-9, True), (1.5e-9, False)):
        lam = top_tied(2, 5, width, rng)[None]
        res = solve_stack(lam, 1e-6)
        assert top_ties(lam)[0] == (2 if face else 1)
        assert (res.iterations[0] == 1) == face and res.converged[0]


def test_the_face_solve_emits_no_runtime_warning():
    """The face solve runs under -W error in the demos: a tie, a near tie,
    a full tie and rows on which the recursion finds no table (r = 1 at
    l_0 = l_1) raise no RuntimeWarning."""
    rng = np.random.default_rng(75)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for r in (2, 3):
            lam = np.stack([top_tied(r, 6, width, rng) for width in (0.0, 1e-13, 5e-10)])
            solve_stack(lam, TOL)
        assert solve_stack(np.full((1, 3), 1.0 / 3), 1e-300).iterations[0] > 1
        tied = np.stack([top_tied(2, 5, 0.0, rng), top_tied(3, 7, 0.0, rng)[:5] / 0.9])
        _, ok = face_tables(tied / tied.sum(axis=1, keepdims=True), 1)
        assert not ok.any()


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig6"])
def test_the_top_of_a_tied_family_is_solved_on_its_face(name):
    """fig3, fig4 and fig6 end at a top tie (their top levels about 1e-16
    apart): at 12 points the top row takes 1 pass in its stack, with
    column 0 exactly empty, so the stack's slowest row is an interior one
    (8, 7 and 9 passes; 10, 10 and 11 before)."""
    family = BUILTIN_FAMILIES[name]
    lams = family.spectra_array(family.grid(12))
    for rows, solved in optimize.solve_spectra(lams, TOL):
        if rows[-1] == len(lams) - 1:
            assert solved.iterations[-1] == 1 and solved.converged[-1]
            assert (solved.tables[-1][:, 0] == 0.0).all()
            assert solved.iterations.max() <= 9


def test_every_top_tied_pin_is_solved_on_its_face():
    """Every solve pin with a top tie and a slack above tol takes one pass,
    with columns 0 .. r - 2 exactly 0."""
    tied = 0
    for schmidt in solve_cases():
        lam = parse_spectrum(schmidt).effective
        r = int(top_ties(lam[None])[0])
        if lam.size <= 2 or r < 2 or lam.size - sep_traces(lam[None])[0] <= TOL:
            continue
        tied += 1
        res = solve_stack(lam[None], TOL)
        assert res.iterations[0] == 1 and (res.tables[0][:, : r - 1] == 0.0).all(), schmidt
    assert tied >= 7
