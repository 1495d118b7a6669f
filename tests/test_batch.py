"""The batched two-way solve gives every spectrum its batch-of-one result.

beta_two_way_upper is beta_two_way_upper_batch on a batch of one, and sweep
solves all of a family's points together; neither the other spectra in a
batch nor their order may change any bit of a result.
"""

import tracemalloc

import numpy as np
import pytest

from loccdist import families, optimize
from loccdist.bounds import pure_state_report
from loccdist.families import BUILTIN_FAMILIES, parse_family, sweep, sweep_rows
from loccdist.optimize import (
    BATCH_BYTES,
    OptimizerConfig,
    _barrier_newton,
    _item_bytes,
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    beta_two_way_upper_batch,
    stack_size,
)
from loccdist.states import SchmidtSpectrum
from loccdist.two_way import DeltaMatrix


def stack(d: int, rng: np.random.Generator) -> list:
    """Spectra of effective rank d: random, tied, exactly uniform, with a
    1e-11 level and zero-padded."""
    random = [rng.dirichlet(np.ones(d)) for _ in range(2)]
    tied = np.repeat(rng.dirichlet(np.ones(2)), [d - d // 2, d // 2])
    uniform = np.full(d, 1.0 / d)
    tiny = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - 1e-11), 1e-11) if d > 1 else uniform
    padded = np.concatenate([rng.dirichlet(np.ones(d)), [0.0, 0.0]])
    lams = random + [tied / tied.sum(), uniform, tiny, padded]
    return [SchmidtSpectrum(np.sort(lam)[::-1]) for lam in lams]


def same(a, b) -> bool:
    return (
        a.t_value == b.t_value
        and np.array_equal(a.best_delta.table, b.best_delta.table)
        and a.iterations == b.iterations
        and a.certified_gap == b.certified_gap
        and a.converged == b.converged
    )


@pytest.mark.parametrize("d", range(1, 11))
def test_batch_matches_batch_of_one(d):
    rng = np.random.default_rng(100 + d)
    spectra = stack(d, rng)
    alone = [beta_two_way_upper(s) for s in spectra]
    assert all(s.effective.size == d for s in spectra)
    assert all(same(a, b) for a, b in zip(beta_two_way_upper_batch(spectra), alone))
    order = rng.permutation(len(spectra))
    permuted = beta_two_way_upper_batch([spectra[i] for i in order])
    assert all(same(r, alone[i]) for r, i in zip(permuted, order))
    fewer = beta_two_way_upper_batch(spectra[1:])
    assert all(same(a, b) for a, b in zip(fewer, alone[1:]))


def test_batch_matches_batch_of_one_at_the_iteration_cap(monkeypatch):
    """With MAX_ITERS lowered to the pass at which one spectrum finishes,
    some spectra finish on the last pass and others not at all; each keeps
    its batch-of-one table, iteration count and gap."""
    spectra = stack(4, np.random.default_rng(9))
    passes = sorted(beta_two_way_upper(s).iterations for s in spectra)
    monkeypatch.setattr(optimize, "MAX_ITERS", passes[len(passes) // 2])
    alone = [beta_two_way_upper(s) for s in spectra]
    assert any(r.converged for r in alone) and not all(r.converged for r in alone)
    assert all(same(a, b) for a, b in zip(beta_two_way_upper_batch(spectra), alone))


def test_batch_of_exactly_kkt_size():
    """m + d spectra, the size at which a 2-D right-hand side of the stacked
    KKT solve would be read as one matrix."""
    d = 5
    size = d * (d + 1) // 2 + d
    rng = np.random.default_rng(7)
    spectra = [SchmidtSpectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1]) for _ in range(size)]
    batch = beta_two_way_upper_batch(spectra)
    assert len(batch) == size
    assert all(same(r, beta_two_way_upper(s)) for r, s in zip(batch, spectra))


def test_batch_spans_chunks_and_ranks():
    """Mixed effective ranks come back in input order, and a group larger
    than one chunk gives the same results as its spectra alone."""
    d = 10
    assert BATCH_BYTES // _item_bytes(d) < 12
    rng = np.random.default_rng(11)
    spectra = [SchmidtSpectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1]) for _ in range(12)]
    spectra.insert(5, SchmidtSpectrum([0.6, 0.4]))
    spectra.insert(0, SchmidtSpectrum([1.0, 0.0]))
    batch = beta_two_way_upper_batch(spectra)
    assert [r.best_delta.d for r in batch] == [s.effective.size for s in spectra]
    assert all(same(r, beta_two_way_upper(s)) for r, s in zip(batch, spectra))


def test_a_stack_builds_one_delta_matrix_per_result(monkeypatch):
    """The solve starts from the uniform table as an array, so n
    non-uniform spectra of one rank build n DeltaMatrix objects, each one a
    result's table; the rows the one-way corner wins share one."""
    built = []
    post_init = DeltaMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DeltaMatrix, "__post_init__", counted)
    rng = np.random.default_rng(5)
    spectra = [SchmidtSpectrum(np.sort(rng.dirichlet(np.ones(4)))[::-1]) for _ in range(5)]
    results = beta_two_way_upper_batch(spectra)
    assert len(built) == 5
    assert all(r.best_delta is delta for r, delta in zip(results, built))
    built.clear()
    uniform = beta_two_way_upper_batch([SchmidtSpectrum(np.full(4, 0.25))] * 2)
    assert len(built) == 1
    assert all(r.best_delta is built[0] for r in uniform)


def test_two_outcome_batch_matches_analytic():
    rng = np.random.default_rng(3)
    lams = np.concatenate([[0.5, 1e-11, 0.125], rng.uniform(0.0, 0.5, 20)])
    spectra = [SchmidtSpectrum([1.0 - lam, lam]) for lam in lams]
    for s, r in zip(spectra, beta_two_way_upper_batch(spectra)):
        assert r.converged
        beta, _ = beta_two_way_qubit_analytic(float(s.lambdas[1]))
        assert abs(r.beta_value - beta) <= 1e-6


@pytest.mark.parametrize("family", [*BUILTIN_FAMILIES.values(), parse_family("1-2t,t,t", (0, 1 / 3))])
def test_sweep_rows_are_pure_state_reports(family):
    for t, report in sweep(family, 13):
        assert report == pure_state_report(family.spectrum_at(t))


@pytest.mark.parametrize("chunk", [1, 4, 12])
def test_sweep_rows_are_the_same_in_any_chunking(monkeypatch, chunk):
    """sweep_rows solves the grid a stack at a time in t order; how the
    points fall into stacks moves no bit of any row."""
    family = BUILTIN_FAMILIES["fig5"]
    whole = sweep(family, 13)
    monkeypatch.setattr(families, "stack_size", lambda d: chunk)
    rows = list(sweep_rows(family, 13))
    assert rows == whole
    assert [t for t, _ in rows] == sorted(t for t, _ in rows)


@pytest.mark.parametrize("d", range(1, 11))
def test_full_stack_peak_is_within_its_budget(d):
    """_item_bytes(d) bounds what each spectrum of a full stack adds to the
    solve's peak memory, so one stack holds at most BATCH_BYTES."""
    rng = np.random.default_rng(40 + d)
    n = stack_size(d)
    lam = np.sort(rng.dirichlet(np.ones(d), size=n), axis=1)[:, ::-1].copy()
    tol = OptimizerConfig().tol
    _barrier_newton(lam[:2], tol)  # one-time caches do not count
    tracemalloc.start()
    try:
        _barrier_newton(lam, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * _item_bytes(d) <= BATCH_BYTES


def test_sweep_memory_is_bounded():
    """The batched solve works in chunks of at most BATCH_BYTES, so a long
    sweep's peak memory stays near a short one's."""
    family = parse_family("1-7t,t,t,t,t,t,t,t", (0.0, 0.125))
    peaks = []
    for points in (50, 400):
        tracemalloc.start()
        try:
            sweep(family, points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
