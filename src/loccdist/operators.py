"""Dense complex-matrix kernel: tensor products, partial traces, Hermitian
spectral analysis and support projections.

All operators are plain square complex ndarrays; all functions are pure.
Intended for small bipartite systems (total dimension up to a few dozen),
where dense eigendecompositions are cheap and accurate.

Every matrix function takes one matrix and rejects a stack of them
through `as_operator`; `support_mask`, the numerical-support cutoff they
share, takes any array.  Sums of product operators are
`separable.SeparableForm`, assembled from vectors.

Tolerance hierarchy used throughout the package:
  construction checks 1e-12, spectral reconstructions 1e-10,
  derived-object assertions 1e-9.
"""

from __future__ import annotations

import numpy as np

ATOL_CONSTRUCT = 1e-12
ATOL_SPECTRAL = 1e-10
ATOL_DERIVED = 1e-9


def as_operator(t) -> np.ndarray:
    """Coerce to a square complex matrix."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    return t


def require_hermitian(t, tol: float = ATOL_CONSTRUCT) -> np.ndarray:
    t = as_operator(t)
    dev = np.max(np.abs(t - t.conj().T)) if t.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return t


def tensor(a, b) -> np.ndarray:
    """Kronecker product; row (i_a, i_b) maps to index i_a * dim(b) + i_b."""
    return np.kron(as_operator(a), as_operator(b))


def tensor_vec(u, v) -> np.ndarray:
    """Kronecker product of vectors, same index convention as tensor()."""
    return np.kron(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))


def partial_trace(t, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA*dB space.

    keep is 'A' (trace out B) or 'B' (trace out A).
    """
    dA, dB = dims
    t = as_operator(t)
    if t.shape[0] != dA * dB:
        raise ValueError(f"operator dim {t.shape[0]} != dA*dB = {dA * dB}")
    r = t.reshape(dA, dB, dA, dB)
    if keep in ("A", "a"):
        return np.einsum("ijkj->ik", r)
    if keep in ("B", "b"):
        return np.einsum("ijik->jk", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def eig_hermitian(t, tol: float = ATOL_CONSTRUCT):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Returns (w, V) with w[0] >= w[1] >= ... and V[:, k] the eigenvector of
    w[k].  Eigenvector phases and rotations inside degenerate subspaces are
    solver-dependent; callers must not rely on them.
    """
    t = require_hermitian(t, tol)
    w, v = np.linalg.eigh(t)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_sqrt(t, tol: float = ATOL_SPECTRAL) -> np.ndarray:
    """Hermitian square root of a PSD matrix (small negatives clipped)."""
    w, v = eig_hermitian(t)
    if w[-1] < -tol * max(w[0], 1.0):
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[-1]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def support_mask(x, tol: float | None = None, axis: int = -1) -> np.ndarray:
    """Mask of the entries of x above tol times the largest entry along axis:
    the numerical support, the one cutoff rule of the package.  tol defaults
    to the axis length times machine epsilon; where the largest entry is
    <= 0 nothing is kept."""
    x = np.asarray(x)
    if tol is None:
        tol = x.shape[axis] * np.finfo(float).eps
    return x > tol * np.maximum(x.max(axis=axis, keepdims=True), 0.0)


def support_projection(t, tol: float | None = None) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue > tol * max.

    tol defaults to dim * machine epsilon (numerical-rank convention); a
    zero matrix projects to zero.  Raises if the matrix has a genuinely
    negative eigenvalue.
    """
    t = as_operator(t)
    w, v = eig_hermitian(t)
    if tol is None:
        tol = t.shape[0] * np.finfo(float).eps
    if w[-1] < -tol * max(np.max(np.abs(w)), 1.0):
        raise ValueError(f"negative eigenvalue {w[-1]:.3e} below tolerance")
    return (v * support_mask(w, tol)) @ v.conj().T
