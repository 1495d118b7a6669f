"""The three-step protocol, step by step, with a Monte Carlo check.

For the Schmidt pair (7/8, 1/8) the best one-way test accepts white noise
with probability 1/2.  The three-step protocol below does strictly better:

  1. Alice measures {M_1, M_2} built from the optimal weight table,
  2. Bob measures a basis that is unbiased for his conditional state and
     reports, rejecting outside its span,
  3. Alice confirms with the support projector of her conditional state.

The accept operator T satisfies <psi|T|psi> = 1 (the state is never
missed) while Tr T / 4 = 3/7 < 1/2.  A seeded simulator reproduces both
numbers empirically.

Run:  python demos/two_way_protocol_demo.py
"""

import numpy as np

from loccdist import (
    beta_two_way_qubit_analytic,
    beta_two_way_upper,
    build_two_way_T,
    simulate_protocol,
    spectrum,
    state_from_spectrum,
    trace_T_closed_form,
)


def main():
    s = spectrum([7.0 / 8.0, 1.0 / 8.0])
    beta_exact, delta_star = beta_two_way_qubit_analytic(1.0 / 8.0)
    print(f"spectrum (7/8, 1/8): analytic optimum beta = {beta_exact:.9f} "
          f"at first-row weight {delta_star:.9f}")

    result = beta_two_way_upper(s)
    print(f"two-way solver (the exact table at rank 2): beta = {result.beta_value:.9f} "
          f"(converged={result.converged}, certified gap {result.certified_gap:.1e})")
    print(f"optimal weight table:\n{np.round(result.best_delta.table, 6)}")

    T, protocol = build_two_way_T(s, result.best_delta)
    psi = state_from_spectrum(s).psi
    print(f"\nassembled test operator on the 4-dimensional joint space:")
    print(f"  <psi|T|psi>     = {(psi.conj() @ T @ psi).real:.12f}")
    print(f"  Tr T (operator) = {np.trace(T).real:.12f}")
    print(f"  Tr T (formula)  = {trace_T_closed_form(s, result.best_delta):.12f}")
    print(f"  one-way value 2.0 beaten by {2.0 - np.trace(T).real:.6f}")

    for i in range(protocol.d):
        if protocol.outcomes[i] == 0:
            print(f"  Alice outcome {i + 1}: never occurs")
        else:
            print(f"  Alice outcome {i + 1}: Bob distinguishes {protocol.outcomes[i]} directions")

    n = 200_000
    rate_psi, _ = simulate_protocol(protocol, "psi", n, seed=0)
    rate_mixed, (lo, hi) = simulate_protocol(protocol, "mixed", n, seed=0)
    print(f"\nMonte Carlo with {n} samples (seed 0):")
    print(f"  prepared state accepted with rate {rate_psi} (must be 1.0 exactly)")
    print(f"  white noise accepted with rate {rate_mixed:.5f}, "
          f"95% Wilson interval [{lo:.5f}, {hi:.5f}]")
    print(f"  predicted rate Tr T / 4 = {np.trace(T).real / 4:.5f}")


if __name__ == "__main__":
    main()
