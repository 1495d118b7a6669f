"""Dense complex-matrix kernel: tensor products, partial traces, Hermitian
spectral analysis and support projections.

All operators are plain square complex ndarrays; all functions are pure.
Intended for small bipartite systems (total dimension up to a few dozen),
where dense eigendecompositions are cheap and accurate.

The kernel takes stacks: `as_operator`, `is_hermitian`,
`require_hermitian`, `eig_hermitian`, `psd_sqrt` and `support_projection`
accept a (..., n, n) array and act on each matrix in it, the eigensolves in
one batched LAPACK call, and `tensor_sum` adds the Kronecker products of two
stacks as one matrix product.  A 2-D input is one matrix.  The other
matrix functions take one matrix and reject stacks; `support_mask`, the
numerical-support cutoff they share, takes any array.

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
    """Coerce to a square complex matrix, or a (..., n, n) stack of them."""
    t = np.asarray(t, dtype=complex)
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    return t


def _matrix(t) -> np.ndarray:
    """as_operator for the functions that take one matrix, not a stack."""
    t = as_operator(t)
    if t.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    return t


def _adjoint(t) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(np.conj(t), -1, -2)


def is_hermitian(t, tol: float = ATOL_CONSTRUCT) -> bool:
    t = as_operator(t)
    return bool(np.max(np.abs(t - _adjoint(t))) <= tol) if t.size else True


def require_hermitian(t, tol: float = ATOL_CONSTRUCT) -> np.ndarray:
    t = as_operator(t)
    dev = np.max(np.abs(t - _adjoint(t))) if t.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return t


def tensor(a, b) -> np.ndarray:
    """Kronecker product; row (i_a, i_b) maps to index i_a * dim(b) + i_b."""
    return np.kron(_matrix(a), _matrix(b))


def tensor_vec(u, v) -> np.ndarray:
    """Kronecker product of vectors, same index convention as tensor()."""
    return np.kron(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))


def tensor_sum(a, b) -> np.ndarray:
    """sum_n a_n (x) b_n over stacks a (n, p, p) and b (n, q, q), as one
    matrix product; same index convention as tensor()."""
    a, b = as_operator(a), as_operator(b)
    p, q = a.shape[-1], b.shape[-1]
    # out[(i, k), (j, l)] = sum_n a_nij b_nkl
    out = (a.reshape(-1, p * p).T @ b.reshape(-1, q * q)).reshape(p, p, q, q)
    return out.transpose(0, 2, 1, 3).reshape(p * q, p * q)


def partial_trace(t, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA*dB space.

    keep is 'A' (trace out B) or 'B' (trace out A).
    """
    dA, dB = dims
    t = _matrix(t)
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

    Returns (w, V) with w[..., 0] >= w[..., 1] >= ... and V[..., :, k] the
    eigenvector of w[..., k]; a stack is solved in one batched call.
    Eigenvector phases and rotations inside degenerate subspaces are
    solver-dependent; callers must not rely on them.
    """
    t = require_hermitian(t, tol)
    w, v = np.linalg.eigh(t)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def psd_sqrt(t, tol: float = ATOL_SPECTRAL) -> np.ndarray:
    """Hermitian square root of a PSD matrix or of each matrix in a stack
    (small negatives clipped)."""
    w, v = eig_hermitian(t)
    scale = np.maximum(w[..., 0], 0.0)
    low = w[..., -1]
    bad = low < -tol * np.maximum(scale, 1.0)
    if np.any(bad):
        raise ValueError(f"matrix is not PSD (min eigenvalue {np.min(low[bad]):.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)


def support_mask(x, tol: float | None = None, axis: int = -1) -> np.ndarray:
    """Mask of the entries of x above tol times the largest entry along axis:
    the numerical support, the one cutoff rule of the package.  tol defaults
    to the axis length times machine epsilon; where the largest entry is
    <= 0 nothing is kept."""
    x = np.asarray(x)
    if tol is None:
        tol = x.shape[axis] * np.finfo(float).eps
    return x > tol * np.maximum(x.max(axis=axis, keepdims=True), 0.0)


def numerical_rank(t, tol: float | None = None) -> int:
    """Count of eigenvalues above tol * max eigenvalue (Hermitian PSD input)."""
    w, _ = eig_hermitian(_matrix(t))
    return int(support_mask(w, tol).sum())


def support_projection(t, tol: float | None = None) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue > tol * max,
    for a matrix or each matrix in a stack.

    tol defaults to dim * machine epsilon (numerical-rank convention); a
    zero matrix projects to zero.  Raises if any input has a genuinely
    negative eigenvalue.
    """
    t = as_operator(t)
    w, v = eig_hermitian(t)
    if tol is None:
        tol = t.shape[-1] * np.finfo(float).eps
    low = w[..., -1]
    bad = low < -tol * np.maximum(np.max(np.abs(w), axis=-1), 1.0)
    if np.any(bad):
        raise ValueError(f"negative eigenvalue {np.min(low[bad]):.3e} below tolerance")
    return (v * support_mask(w, tol)[..., None, :]) @ _adjoint(v)


def psd_check(t, tol: float = ATOL_DERIVED) -> bool:
    """True iff every eigenvalue is >= -tol."""
    w, _ = eig_hermitian(_matrix(t))
    return bool(w[-1] >= -tol) if w.size else True


def povm_element_check(t, tol: float = ATOL_DERIVED) -> bool:
    """True iff every eigenvalue lies in [-tol, 1 + tol] (0 <= T <= I)."""
    w, _ = eig_hermitian(_matrix(t))
    if not w.size:
        return True
    return bool(w[-1] >= -tol and w[0] <= 1.0 + tol)
