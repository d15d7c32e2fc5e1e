"""Dense linear-algebra helpers shared across the package.

Subspaces of the box are handled on their small side where possible: a
test on a submodule M of dimension n - k works with an orthonormal basis
of the k-dimensional complement K, so it costs O(n k^2) instead of the
O(n^3) of n x n projectors and spectral norms.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .hardy import TruncatedSpace, shift_rows

DEFAULT_RANK_TOL = 1e-10


def opnorm(a) -> float:
    """Spectral norm; 0.0 for empty matrices."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _pivoted_qr(a, mode: str):
    """(q, rank) of a pivoted QR; pivots below DEFAULT_RANK_TOL times the
    leading pivot count as numerically dependent."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    n = a.shape[0]
    if a.shape[1] == 0:
        return np.eye(n, dtype=np.complex128), 0
    q, r, _ = scipy.linalg.qr(a, mode=mode, pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return q, 0
    return q, int(np.sum(diag > DEFAULT_RANK_TOL * diag[0]))


def orthonormal_columns(a):
    """Orthonormal basis of the column span, via pivoted QR.

    Returns (q, rank).  Pivots below DEFAULT_RANK_TOL times the leading
    pivot are treated as numerically dependent and dropped.
    """
    q, rank = _pivoted_qr(a, "economic")
    return np.ascontiguousarray(q[:, :rank]), rank


def orthonormal_split(a):
    """Orthonormal bases of the column span and of its orthogonal
    complement, from one full pivoted QR.

    Returns (q, complement, rank); the span basis is the one
    orthonormal_columns gives.
    """
    q, rank = _pivoted_qr(a, "full")
    return np.ascontiguousarray(q[:, :rank]), np.ascontiguousarray(q[:, rank:]), rank


def null_space_onb(a) -> np.ndarray:
    """Orthonormal basis of the kernel of a (possibly empty) matrix."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    return scipy.linalg.null_space(a, rcond=DEFAULT_RANK_TOL)


def restrict_to_support(q, keep) -> np.ndarray:
    """Orthonormal basis of span(q) intersected with {rows outside `keep` vanish}.

    q must have orthonormal columns; keep is a boolean mask over rows.
    """
    q = np.asarray(q, dtype=np.complex128)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (q.shape[0],):
        raise ValueError("mask length must match row count")
    if q.shape[1] == 0:
        return q
    off = ~keep
    if not off.any():
        return q
    ns = null_space_onb(q[off, :])
    if ns.shape[1] == 0:
        return np.zeros((q.shape[0], 0), dtype=np.complex128)
    # columns stay orthonormal: q has orthonormal columns and ns is an onb
    return q @ ns


def masked_complement(k_onb, keep):
    """The vectors orthogonal to span(k_onb) that vanish outside `keep`.

    That subspace is the null space of k_onb[keep]^H, read in the
    coordinates of `keep`.  Returns (v, dim): v is an orthonormal basis of
    the range of k_onb[keep], so I - v v^H projects onto the subspace, and
    dim is its dimension.  k_onb must have orthonormal columns; its row
    blocks then have singular values at most 1, so the rank decision is
    absolute (sigma > DEFAULT_RANK_TOL): pure rounding noise has rank 0.
    """
    block = np.asarray(k_onb, dtype=np.complex128)[np.asarray(keep, dtype=bool)]
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    rank = int(np.sum(s > DEFAULT_RANK_TOL))
    return u[:, :rank], block.shape[0] - rank


def compressed_commutator_residual(k_onb, order, a: str, b: str):
    """Double-commutation residual of a subspace M, from its complement.

    M is the orthogonal complement of span(k_onb) in the degree box
    `order`, P its orthogonal projector, and A, B the truncated shifts
    along the axes a, b.  Returns (residual, dim): the norm of
    [P A P, P B^* P] on the vectors of M supported where A and B^* act
    exactly (a-degree below the edge, b-degree at least 1), and the
    dimension of that subspace; the residual is 0.0 when it is trivial.

    A B^* = B^* A holds exactly on the box, so for x in M the commutator
    equals P (B^* K K^H A - A K K^H B^*) x with K = k_onb.  That operator
    has rank at most 2k and is formed from n x 2k and 2k x n factors
    only, with the shifts applied as index moves: O(n k^2) in all.  M need
    not be shift-invariant.
    """
    k = np.asarray(k_onb, dtype=np.complex128)
    deg = dict(zip("zw", TruncatedSpace(order).degree_grid()))
    edge = dict(zip("zw", order))
    keep = (deg[a] < edge[a]) & (deg[b] >= 1)
    v, dim = masked_complement(k, keep)
    if dim == 0:
        return 0.0, 0
    left = np.hstack([shift_rows(k, order, b, adjoint=True), -shift_rows(k, order, a)])
    left -= k @ (k.conj().T @ left)
    right = np.hstack([shift_rows(k, order, a, adjoint=True), shift_rows(k, order, b)])
    right = right[keep].conj().T
    right -= (right @ v) @ v.conj().T
    return opnorm(np.linalg.qr(left, mode="r") @ right), dim


def iterate_grid(t1, t2, phi, l1: int, l2: int) -> np.ndarray:
    """The iterates v[i, j] = T2^j T1^i phi for i <= l1, j <= l2, as an
    (l1+1, l2+1, dim) array.

    Filled by the recurrence v[i+1, 0] = T1 v[i, 0], v[i, j+1] = T2 v[i, j],
    so each vector costs one matrix application, and v[i, j] comes out of
    exactly the products that applying T1 i times, then T2 j times, makes.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    v = np.zeros((l1 + 1, l2 + 1, phi.shape[0]), dtype=np.complex128)
    v[0, 0] = phi
    for i in range(l1):
        v[i + 1, 0] = t1 @ v[i, 0]
    for i in range(l1 + 1):
        for j in range(l2):
            v[i, j + 1] = t2 @ v[i, j]
    return v


def subspace_distance(q1, q2) -> float:
    """Gap ||P1 - P2|| between column spans (sine of the largest
    principal angle when the dimensions agree).

    Computed on the thin bases as max(||Q2 - Q1 Q1^H Q2||,
    ||Q1 - Q2 Q2^H Q1||), which equals ||P1 - P2|| for orthogonal
    projectors (Bjorck & Golub, Math. Comp. 27, 1973).  Each argument
    needs Q Q^H = P: orthonormal columns, or the projector itself.
    """
    q1 = np.asarray(q1, dtype=np.complex128)
    q2 = np.asarray(q2, dtype=np.complex128)
    if q1.shape[1] == 0 and q2.shape[1] == 0:
        return 0.0
    return max(
        opnorm(q2 - q1 @ (q1.conj().T @ q2)),
        opnorm(q1 - q2 @ (q2.conj().T @ q1)),
    )


def hermitian_extremes(s):
    """(smallest, largest) eigenvalue of a Hermitian matrix."""
    vals = np.linalg.eigvalsh(s)
    return float(vals[0]), float(vals[-1])
