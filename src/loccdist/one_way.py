"""One-way LOCC discrimination against white noise.

The minimum type-2 error under one-way LOCC with perfect detection is
rank(rho_A) / D for a maximally correlated state, a pure state among them
(MaximallyCorrelatedState.from_spectrum); the optimal test measures both
sides in the correlated bases and accepts on matching outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import ATOL_DERIVED, partial_trace, support_mask, tensor
from .separable import SeparableForm
from .states import MaximallyCorrelatedState


@dataclass(frozen=True)
class OneWayProtocol:
    """Alice's POVM, Bob's conditional POVMs, and the accepting outcome pairs.

    bob_povms[i] lists Bob's elements after Alice's outcome i; accept holds
    the (i, j) pairs on which the pair declares the target state.
    """

    alice_povm: tuple
    bob_povms: tuple
    accept: frozenset = field(default_factory=frozenset)

    @property
    def dims(self) -> tuple[int, int]:
        return self.alice_povm[0].shape[0], self.bob_povms[0][0].shape[0]


def _support(mc: MaximallyCorrelatedState) -> np.ndarray:
    """Mask of the indices i with alpha_ii > 0 (numerically)."""
    return support_mask(np.real(np.diag(mc.alpha)))


def beta_one_way(mc: MaximallyCorrelatedState) -> float:
    """rank(rho_A) / D, the exact one-way error of a maximally correlated
    state."""
    dA, dB = mc.dims
    return int(_support(mc).sum()) / (dA * dB)


def one_way_test_form(mc: MaximallyCorrelatedState) -> SeparableForm:
    """The matching-outcome test as the SeparableForm sum over the support
    of |u_i><u_i| (x) |v_i><v_i|, its matched pairs in increasing i."""
    pick = np.flatnonzero(_support(mc))
    return SeparableForm(mc.dims, np.ones(pick.size), mc.basis_a[:, pick].T, mc.basis_b[:, pick].T)


def build_one_way_test(mc: MaximallyCorrelatedState):
    """The matching-outcome test for a maximally correlated state.

    Both parties measure the correlated bases and accept iff the outcomes
    agree on an index with alpha_ii > 0.  Returns (protocol, T) with
    T = sum over the support of |u_i v_i><u_i v_i|, assembled from
    one_way_test_form, which detects the state perfectly with
    Tr T = rank(rho_A).
    """
    dA, dB = mc.dims
    support = _support(mc)

    alice = [np.outer(mc.basis_a[:, i], mc.basis_a[:, i].conj()) for i in range(mc.basis_a.shape[1])]
    rest_a = np.eye(dA) - sum(alice)
    if np.max(np.abs(rest_a)) > 1e-12:
        alice.append(rest_a)

    bob_elements = [np.outer(mc.basis_b[:, j], mc.basis_b[:, j].conj()) for j in range(mc.basis_b.shape[1])]
    rest_b = np.eye(dB) - sum(bob_elements)
    if np.max(np.abs(rest_b)) > 1e-12:
        bob_elements.append(rest_b)

    accept = frozenset((i, i) for i in range(mc.d) if support[i])
    protocol = OneWayProtocol(
        alice_povm=tuple(alice),
        bob_povms=tuple(tuple(bob_elements) for _ in alice),
        accept=accept,
    )
    return protocol, one_way_test_form(mc).assemble()


def check_lemma3(protocol: OneWayProtocol, state, tol: float = ATOL_DERIVED) -> bool:
    """Factorised perfect-detection test for a one-way element T = sum M_i (x) N_j^i.

    True iff Tr(rho_A sum_i M_i) = 1 over the outcomes appearing in T and,
    conditionally on each such outcome with nonzero probability, Bob's
    accepted elements detect his conditional state perfectly.  Equivalent to
    Tr(rho T) = 1.
    """
    rho = state.density()
    dA, dB = protocol.dims
    rho_A = partial_trace(rho, (dA, dB), "A")

    indices = sorted({i for i, _ in protocol.accept})
    m_total = np.zeros((dA, dA), dtype=complex)
    for i in indices:
        m_total += protocol.alice_povm[i]
    if abs(np.trace(rho_A @ m_total).real - 1.0) > tol:
        return False

    for i in indices:
        mi = tensor(protocol.alice_povm[i], np.eye(dB))
        prob = np.trace(rho @ mi).real
        if prob <= tol:
            continue
        rho_b = partial_trace(rho @ mi, (dA, dB), "B") / prob
        n_total = np.zeros((dB, dB), dtype=complex)
        for ii, j in protocol.accept:
            if ii == i:
                n_total += protocol.bob_povms[i][j]
        if abs(np.trace(rho_b @ n_total).real - 1.0) > tol:
            return False
    return True
