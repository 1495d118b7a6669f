"""Schmidt-level description of bipartite states.

A pure bipartite state is fully characterised locally by its ordered Schmidt
coefficients; this module converts between spectra, state vectors and density
matrices, and computes the square-root-trace quantities of the reduced states.
Also defines maximally correlated mixed states (diagonal-aligned across the
two subsystems).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ATOL_SPECTRAL,
    eig_hermitian,
    partial_trace,
    require_hermitian,
    tensor_vec,
)

# Coefficients at or below this scale are stored as zero.
RANK_TOL = 1e-12

SUM_TOL = 1e-9  # inputs whose coefficient sum misses 1 by more are rejected


def check_spectra(lams: np.ndarray) -> np.ndarray:
    """SchmidtSpectrum's rules on every row of an (n, d) array of
    coefficients, n, d >= 1: finite, none below -RANK_TOL or above 1, those
    at or below RANK_TOL set to 0, a sum within SUM_TOL of 1, then
    renormalised and sorted non-increasing.  Returns the checked rows as a
    new (n, d) array, each row bit for bit its SchmidtSpectrum's lambdas;
    raises ValueError at the first rule a row breaks."""
    lam = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("Schmidt coefficients must be finite")
    if np.min(lam) < -RANK_TOL:
        raise ValueError(f"negative Schmidt coefficient {np.min(lam):.3e}")
    if np.max(lam) > 1.0 + SUM_TOL:
        raise ValueError(f"Schmidt coefficient {float(np.max(lam))} exceeds 1")
    lam = np.where(lam > RANK_TOL, lam, 0.0)
    total = lam.sum(axis=1, keepdims=True)
    off = np.abs(total - 1.0) > SUM_TOL
    if off.any():
        raise ValueError(f"coefficients sum to {float(total[off][0])}, not 1")
    return -np.sort(-(lam / total), axis=1)  # ties are equal values: no order to keep


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Ordered Schmidt coefficients; nonnegative, non-increasing, summing to 1.

    The stored length is the embedding dimension d (zeros retained); a
    coefficient at or below RANK_TOL is stored as 0 and the rest
    renormalised, so every bound counts the same, nonzero, levels.  The
    effective spectrum strips zeros and drives the protocol constructions,
    while d**2 remains the default normalisation dimension.
    """

    lambdas: np.ndarray = field()

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("spectrum must be a nonempty 1-D sequence")
        lam = check_spectra(lam[None])[0]
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def dim(self) -> int:
        return self.lambdas.size

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.lambdas))

    @property
    def effective(self) -> np.ndarray:
        """The nonzero coefficients, still ordered: the levels beta_sep
        counts, summing to 1 up to rounding."""
        return self.lambdas[self.lambdas > 0.0]

    def __iter__(self):
        return iter(self.lambdas)


def spectrum(values) -> SchmidtSpectrum:
    """Convenience constructor from any sequence of reals."""
    return SchmidtSpectrum(np.asarray(values, dtype=float))


def parse_spectrum(text: str) -> SchmidtSpectrum:
    """Parse the comma-separated decimal format, e.g. "0.75,0.25"."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse spectrum {text!r}: {exc}") from None
    if not values:
        raise ValueError("empty spectrum")
    return spectrum(values)


@dataclass(frozen=True)
class BipartiteState:
    """A state on a dA x dB system, stored as a pure vector or a density matrix."""

    dA: int
    dB: int
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None

    @classmethod
    def from_pure(cls, psi, dims: tuple[int, int]) -> "BipartiteState":
        dA, dB = dims
        psi = np.asarray(psi, dtype=complex).ravel()
        if psi.size != dA * dB:
            raise ValueError(f"vector length {psi.size} != dA*dB = {dA * dB}")
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"pure state has norm {float(nrm)}")
        return cls(dA, dB, psi=psi / nrm)

    @classmethod
    def from_density(cls, rho, dims: tuple[int, int]) -> "BipartiteState":
        dA, dB = dims
        rho = require_hermitian(rho, 1e-10)
        if rho.shape[0] != dA * dB:
            raise ValueError(f"density dim {rho.shape[0]} != dA*dB = {dA * dB}")
        w, _ = eig_hermitian(rho)
        if w[-1] < -ATOL_SPECTRAL or abs(w.sum() - 1.0) > ATOL_SPECTRAL:
            raise ValueError("density matrix must be PSD with unit trace")
        return cls(dA, dB, rho=rho)

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    @property
    def total_dim(self) -> int:
        return self.dA * self.dB

    def density(self) -> np.ndarray:
        if self.psi is not None:
            return np.outer(self.psi, self.psi.conj())
        return self.rho

    def reduced(self, side: str) -> np.ndarray:
        return partial_trace(self.density(), (self.dA, self.dB), side)


@dataclass(frozen=True)
class MaximallyCorrelatedState:
    """Mixed state of the form sum_ij alpha_ij |u_i v_i><u_j v_j|.

    alpha is a d x d PSD matrix with unit trace; basis_a and basis_b are
    orthonormal bases (columns) of the two local spaces.
    """

    alpha: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self):
        alpha = require_hermitian(self.alpha, ATOL_SPECTRAL)
        w, _ = eig_hermitian(alpha)
        if w[-1] < -ATOL_SPECTRAL:
            raise ValueError("coefficient matrix must be PSD")
        if abs(np.trace(alpha).real - 1.0) > ATOL_SPECTRAL:
            raise ValueError("coefficient matrix must have unit trace")
        ua = np.asarray(self.basis_a, dtype=complex)
        ub = np.asarray(self.basis_b, dtype=complex)
        d = alpha.shape[0]
        for name, u in (("basis_a", ua), ("basis_b", ub)):
            if u.shape[1] < d:
                raise ValueError(f"{name} must supply at least {d} vectors")
            gram = u.conj().T @ u
            if np.max(np.abs(gram - np.eye(u.shape[1]))) > 1e-9:
                raise ValueError(f"{name} columns are not orthonormal")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "basis_a", ua)
        object.__setattr__(self, "basis_b", ub)

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    @property
    def dims(self) -> tuple[int, int]:
        return self.basis_a.shape[0], self.basis_b.shape[0]

    def correlated_vectors(self) -> np.ndarray:
        """Columns |u_i v_i> for i = 1..d."""
        d = self.d
        dA, dB = self.dims
        out = np.empty((dA * dB, d), dtype=complex)
        for i in range(d):
            out[:, i] = tensor_vec(self.basis_a[:, i], self.basis_b[:, i])
        return out

    def density(self) -> np.ndarray:
        w = self.correlated_vectors()
        return w @ self.alpha @ w.conj().T

    def to_state(self) -> BipartiteState:
        dA, dB = self.dims
        return BipartiteState.from_density(self.density(), (dA, dB))

    @classmethod
    def from_spectrum(cls, s: SchmidtSpectrum) -> "MaximallyCorrelatedState":
        """Pure state with the given Schmidt coefficients, as alpha = sqrt(l) sqrt(l)^T."""
        root = np.sqrt(s.lambdas)
        alpha = np.outer(root, root)
        eye = np.eye(s.dim, dtype=complex)
        return cls(alpha, eye, eye)


def state_from_spectrum(s: SchmidtSpectrum) -> BipartiteState:
    """The canonical pure state sum_k sqrt(lambda_k) |k>|k> on d x d."""
    d = s.dim
    psi = np.zeros(d * d, dtype=complex)
    for k, lam in enumerate(s.lambdas):
        psi[k * d + k] = np.sqrt(lam)
    return BipartiteState.from_pure(psi, (d, d))


def schmidt_decompose(psi, dims: tuple[int, int]):
    """Schmidt spectrum and bases of a pure bipartite vector.

    Returns (SchmidtSpectrum, E, F) where the columns of E and F are the
    Schmidt bases: psi = sum_k sqrt(lambda_k) E[:, k] (x) F[:, k].
    The returned spectrum keeps min(dA, dB) entries (zeros included).
    """
    dA, dB = dims
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != dA * dB:
        raise ValueError(f"vector length {psi.size} != dA*dB = {dA * dB}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"vector has norm {float(nrm)}, expected 1")
    coeff = psi.reshape(dA, dB)
    u, sing, vh = np.linalg.svd(coeff)
    k = min(dA, dB)
    lam = sing[:k] ** 2
    return SchmidtSpectrum(lam), u[:, :k], vh[:k, :].conj().T


def sqrt_trace_reduced(state: BipartiteState) -> tuple[float, float]:
    """(Tr sqrt(rho_A))**2 and (Tr sqrt(rho_B))**2 of a bipartite state."""
    out = []
    for side in ("A", "B"):
        red = state.reduced(side)
        w, _ = eig_hermitian(red, tol=ATOL_SPECTRAL)
        if w[-1] < -ATOL_SPECTRAL:
            raise ValueError(f"reduced state on {side} is not PSD ({w[-1]:.3e})")
        out.append(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2))
    return out[0], out[1]
