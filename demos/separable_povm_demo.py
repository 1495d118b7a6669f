"""Constructing and certifying the optimal separable test.

For a pure state with Schmidt coefficients l_1 >= l_2 >= ..., the best
separable two-outcome test that never misses the state accepts white noise
with probability (sum_i sqrt(l_i))**2 / d**2.  This script builds BOTH
outcomes {T, I - T} as sums of product terms with positive factors,
compares their assembled operators with the closed form of T, and checks
the phase-averaging identity that makes the complement separable.

The product terms come from averaging rank-one seeds over a Sidon phase
grid (phases exp(2 pi i m s_j / N) for a Sidon set s and N = 2 max(s) + 1),
so T is a sum of 2 max(s) + 1 terms (3 / 7 / 15 at d = 2 / 3 / 4) and each
of the d(d - 1) pair seeds of I - T contributes 3 terms plus one diagonal
term.

The trace of T minus one is the state's global robustness of entanglement,
so the demo doubles as a robustness calculator.

Run:  python demos/separable_povm_demo.py
"""

import numpy as np

from loccdist import (
    build_optimal_separable_povm,
    eig_hermitian,
    global_robustness_pure,
    optimal_test_operator,
    spectrum,
    state_from_spectrum,
    verify_appendix_identity,
)

CASES = [
    [1.0],
    [0.75, 0.25],
    [0.5, 0.5],
    [0.8, 0.1, 0.1],
    [0.4, 0.3, 0.2, 0.1],
]


def main():
    for lams in CASES:
        s = spectrum(lams)
        d = s.dim
        pair = build_optimal_separable_povm(s)
        psi = state_from_spectrum(s).psi

        T = pair.T  # assembled from its certificate
        closed_form = optimal_test_operator(s)

        detection = (psi.conj() @ T @ psi).real
        trace = np.trace(T).real
        w, _ = eig_hermitian(T)
        assembly_T = np.max(np.abs(T - closed_form))
        assembly_C = np.max(
            np.abs(pair.complement_form.assemble() - (np.eye(d * d) - closed_form))
        )
        appendix = verify_appendix_identity(s)

        print(f"spectrum {lams}  (d = {d}, D = {d * d})")
        print(f"  detects the state with probability {detection:.12f}")
        print(f"  accepts white noise with probability {trace / d**2:.9f}")
        print(f"  eigenvalues of T lie in [{w[-1]:+.2e}, {w[0]:.12f}]")
        print(f"  T is a sum of {len(pair.T_form.terms)} product terms "
              f"(assembly error {assembly_T:.1e})")
        print(f"  I - T is a sum of {len(pair.complement_form.terms)} product terms "
              f"(assembly error {assembly_C:.1e})")
        print(f"  phase-average identity deviation: {appendix:.1e}")
        print(f"  global robustness of entanglement: {global_robustness_pure(s):.9f}")
        print()


if __name__ == "__main__":
    main()
