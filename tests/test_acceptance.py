"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here and nowhere else.
"""

import time

import numpy as np

from loccdist.families import BUILTIN_FAMILIES, sweep
from loccdist.one_way import OneWayProtocol, build_one_way_test, check_lemma3
from loccdist.operators import eig_hermitian, partial_trace
from loccdist.optimize import (
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    grid_oracle,
)
from loccdist.separable import (
    build_optimal_separable_povm,
    verify_appendix_identity,
)
from loccdist.states import (
    BipartiteState,
    MaximallyCorrelatedState,
    spectrum,
    state_from_spectrum,
)
from loccdist.two_way import (
    build_two_way_T,
    simulate_protocol,
    trace_T_closed_form,
    wilson_interval,
)
from reference import numerical_rank, one_way_operator, random_delta


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def _random_spectrum(d, rng):
    return spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1])


def test_criterion_1_two_qubit_analytic_agreement():
    start = time.perf_counter()
    worst = 0.0
    for lam in np.arange(0.0, 0.5001, 0.05):
        s = spectrum([1.0 - lam, lam])
        result = beta_two_way_upper(s)
        exact, _ = beta_two_way_qubit_analytic(float(lam))
        worst = max(worst, abs(result.beta_value - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 2.0
    _report(1, ok, f"max |optimizer - closed form| = {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_figure1_ordering():
    lams = sorted(set(np.arange(0.025, 0.4999, 0.025)) | {0.125})
    strict = True
    worst_sep = 0.0
    gap_at_eighth = None
    for lam in lams:
        beta_sep = 0.25 + 0.5 * np.sqrt(lam * (1.0 - lam))
        beta_two, _ = beta_two_way_qubit_analytic(float(lam))
        beta_one = 0.5
        strict &= 0.25 < beta_sep < beta_two < beta_one
        direct = np.sum(np.sqrt([1.0 - lam, lam])) ** 2 / 4.0
        worst_sep = max(worst_sep, abs(direct - beta_sep))
        if abs(lam - 0.125) < 1e-12:
            gap_at_eighth = beta_one - beta_two
    ok = strict and worst_sep <= 1e-9 and gap_at_eighth >= 0.05
    _report(
        2,
        ok,
        f"strict chain {strict}, sep closed-form dev {worst_sep:.2e}, "
        f"gap at 0.125 = {gap_at_eighth:.4f}",
    )


def test_criterion_3_separable_povm_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_range = worst_detect = worst_trace = worst_appendix = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        s = _random_spectrum(d, rng)
        pair = build_optimal_separable_povm(s)
        w, _ = eig_hermitian(pair.T)
        worst_range = max(worst_range, -w[-1], w[0] - 1.0)
        psi = state_from_spectrum(s).psi
        worst_detect = max(worst_detect, abs((psi.conj() @ pair.T @ psi).real - 1.0))
        worst_trace = max(
            worst_trace, abs(np.trace(pair.T).real - np.sum(np.sqrt(s.lambdas)) ** 2)
        )
        worst_appendix = max(worst_appendix, verify_appendix_identity(s))
    elapsed = time.perf_counter() - start
    ok = (
        worst_range <= 1e-10
        and worst_detect <= 1e-10
        and worst_trace <= 1e-10
        and worst_appendix <= 1e-9
        and elapsed < 10.0
    )
    _report(
        3,
        ok,
        f"povm range dev {worst_range:.2e}, detection dev {worst_detect:.2e}, "
        f"trace dev {worst_trace:.2e}, appendix dev {worst_appendix:.2e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_4_closed_form_operator_equivalence():
    rng = np.random.default_rng(4)
    worst_gap = worst_detect = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        s = _random_spectrum(d, rng)
        delta = random_delta(d, rng)
        T, _ = build_two_way_T(s, delta)
        worst_gap = max(
            worst_gap, abs(np.trace(T).real - trace_T_closed_form(s, delta))
        )
        psi = state_from_spectrum(s).psi
        worst_detect = max(worst_detect, abs((psi.conj() @ T @ psi).real - 1.0))
    ok = worst_gap <= 1e-9 and worst_detect <= 1e-9
    _report(
        4,
        ok,
        f"max |closed form - operator trace| = {worst_gap:.2e}, "
        f"max detection dev = {worst_detect:.2e}",
    )


def test_criterion_5_grid_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(20):
        s = _random_spectrum(2, rng)
        pg = beta_two_way_upper(s)
        oracle = grid_oracle(s, 1e-3)
        worst = max(worst, pg.beta_value - oracle.beta_value)
    for _ in range(10):
        s = _random_spectrum(3, rng)
        pg = beta_two_way_upper(s)
        oracle = grid_oracle(s, 2e-2)
        worst = max(worst, pg.beta_value - oracle.beta_value)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        5, ok, f"max (projected gradient - grid) = {worst:.2e}, runtime {elapsed:.1f}s"
    )


def test_criterion_6_family_sweeps():
    details = []
    ok = True
    for name, family in BUILTIN_FAMILIES.items():
        rows = sweep(family, 50)
        d = family.d
        chain = all(report.ordering_ok() for _, report in rows)
        sep_dev = max(
            abs(report.beta_sep - family.beta_sep_closed(t)) for t, report in rows
        )
        first = rows[0][1]
        product_ok = all(
            abs(value - 1.0 / d**2) <= 1e-6
            for value in (
                first.beta_g,
                first.beta_sep,
                first.beta_two_way_upper,
                first.beta_one_way,
            )
        )
        if family.max_entangled_end:
            last = rows[-1][1]
            entangled_ok = all(
                abs(value - 1.0 / d) <= 1e-6
                for value in (last.beta_sep, last.beta_two_way_upper, last.beta_one_way)
            )
        else:
            entangled_ok = True  # range stops short of the maximally entangled state
        betas = [report.beta_two_way_upper for _, report in rows]
        monotone = all(b2 >= b1 - 1e-8 for b1, b2 in zip(betas, betas[1:]))
        fam_ok = chain and sep_dev <= 1e-9 and product_ok and entangled_ok and monotone
        ok &= fam_ok
        details.append(f"{name}:{'ok' if fam_ok else 'FAIL'}")
    _report(6, ok, "50-point sweeps " + ", ".join(details))


def test_criterion_7_monte_carlo_semantics():
    s = spectrum([7.0 / 8.0, 1.0 / 8.0])
    result = beta_two_way_upper(s)
    T, protocol = build_two_way_T(s, result.best_delta)
    beta = np.trace(T).real / 4.0
    n = 100_000
    rate_psi, _ = simulate_protocol(protocol, "psi", n, seed=0)
    rate_mixed, _ = simulate_protocol(protocol, "mixed", n, seed=0)
    lo, hi = wilson_interval(round(rate_mixed * n), n, z=3.0)
    ok = rate_psi == 1.0 and lo <= beta <= hi
    _report(
        7,
        ok,
        f"type-1 accept rate {rate_psi}, type-2 rate {rate_mixed:.4f} vs "
        f"Tr T/4 = {beta:.6f} (3-sigma Wilson [{lo:.4f}, {hi:.4f}])",
    )


def test_criterion_8_one_way_exactness():
    rng = np.random.default_rng(8)
    worst_detect = worst_rank = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        alpha_raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        alpha = alpha_raw @ alpha_raw.conj().T
        alpha /= np.trace(alpha).real
        qa, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        qb, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        mc = MaximallyCorrelatedState(alpha, qa, qb)
        _, T = build_one_way_test(mc)
        rho = mc.density()
        worst_detect = max(worst_detect, abs(np.trace(rho @ T).real - 1.0))
        rank = numerical_rank(partial_trace(rho, mc.dims, "A"))
        worst_rank = max(worst_rank, abs(np.trace(T).real - rank))

    def random_psd(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g @ g.conj().T

    def random_povm(d, n_out):
        mats = [random_psd(d) + 0.1 * np.eye(d) for _ in range(n_out)]
        total = sum(mats)
        w, v = eig_hermitian(total)
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        return [inv_sqrt @ m @ inv_sqrt for m in mats]

    agreement = True
    for trial in range(50):
        dA = int(rng.integers(2, 4))
        dB = int(rng.integers(2, 4))
        if trial % 4 == 0:
            d = min(dA, dB)
            alpha = random_psd(d)
            alpha /= np.trace(alpha).real
            mc = MaximallyCorrelatedState(alpha, np.eye(d), np.eye(d))
            protocol, T = build_one_way_test(mc)
            state = mc.to_state()
        else:
            alice = random_povm(dA, int(rng.integers(1, 4)))
            bobs = tuple(
                tuple(random_povm(dB, int(rng.integers(1, 4)))) for _ in alice
            )
            pairs = [(i, j) for i in range(len(alice)) for j in range(len(bobs[i]))]
            take = rng.choice(
                len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False
            )
            protocol = OneWayProtocol(
                alice_povm=tuple(alice),
                bob_povms=bobs,
                accept=frozenset(pairs[k] for k in take),
            )
            T = one_way_operator(protocol)
            rho_raw = random_psd(dA * dB)
            state = BipartiteState.from_density(
                rho_raw / np.trace(rho_raw).real, (dA, dB)
            )
        direct = abs(np.trace(state.density() @ T).real - 1.0) <= 1e-9
        agreement &= check_lemma3(protocol, state) == direct
    ok = worst_detect <= 1e-10 and worst_rank <= 1e-9 and agreement
    _report(
        8,
        ok,
        f"detection dev {worst_detect:.2e}, trace-rank dev {worst_rank:.2e}, "
        f"lemma predicate agreement {agreement}",
    )
