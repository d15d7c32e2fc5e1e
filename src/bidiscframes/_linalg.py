"""Dense linear-algebra helpers shared across the package.

Subspaces of the box are handled on their small side where possible: a
test on a submodule M of dimension n - k works with an orthonormal basis
of the k-dimensional complement K, so it costs O(n k^2) instead of the
O(n^3) of n x n projectors and spectral norms.  The quotient model
(compress) and the double-commutation test take an index route when
given the rows of a coordinate K: the quotient scans K once
(coordinate_rows), other callers read them off a recorded structure.
A spectral norm is taken from the Gram on the smaller side, no SVD, and
none where the Frobenius bound clears a guard (guard_norm).

Arrays keep the dtype of their data: a real input gives a float64
result, computed in real arithmetic at about a quarter of the complex
cost, and a complex input a complex128 one.  scipy is imported only for
the pivoted QR, so a run that factorises nothing never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .hardy import TruncatedSpace, shift_rows

KERNEL_RTOL = 1e-10
PIVOT_TIE = 1e-8


def rank_mask(values) -> np.ndarray:
    """The one rank rule: which nonnegative values (singular values, |pivots|
    or |entries|, in any order) lie above KERNEL_RTOL times the largest,
    none when all are 0; the numerical rank is the count of the mask."""
    return values > KERNEL_RTOL * values.max(initial=0.0)


def _rescaled(a) -> tuple[np.ndarray, float]:
    """(a / top, top) when the largest |entry| top of a lies outside
    [1e-100, 1e100], else (a, 1.0), so that a Gram of the result neither
    underflows nor overflows; (a, 0.0) for a zero or empty matrix.  NaN
    entries raise LinAlgError, as the SVD does."""
    top = float(np.abs(a).max(initial=0.0))
    if math.isnan(top):
        raise np.linalg.LinAlgError("spectral norm of a matrix with NaN entries")
    if top == 0.0:
        return a, 0.0
    if 1e-100 <= top <= 1e100:
        return a, 1.0
    return a / top, top


def opnorm(a) -> float:
    """Spectral norm; 0.0 for empty matrices.

    The square root of the largest eigenvalue of the Gram matrix on the
    smaller side, A^H A or A A^H, by eigvalsh: O(m n min(m, n)) with no
    SVD.  A matrix whose largest |entry| lies outside [1e-100, 1e100] is
    first divided by that entry (_rescaled), so its Gram neither
    underflows nor overflows.  NaN entries raise LinAlgError, as the SVD
    does.
    """
    a, scale = _rescaled(np.asarray(a))
    if scale == 0.0:
        return 0.0
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    return scale * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def guard_norm(a, tol: float):
    """The one guard rule: None, which clears the guard ||a|| <= tol, when
    ||a||_F <= tol (1 - 1e-12), an upper bound with a margin for rounding
    (Golub & Van Loan, Matrix Computations, 2.3); else opnorm(a), for the
    caller to judge.  NaN entries raise LinAlgError, as in opnorm."""
    return None if np.linalg.norm(a) <= tol * (1.0 - 1e-12) else opnorm(a)


def _pivoted_qr(a, mode: str):
    """(q, rank) of a pivoted QR; pivots at or below KERNEL_RTOL times the
    largest count as numerically dependent (rank_mask of |diag R|).

    A real matrix is factorised in real arithmetic (Businger & Golub,
    Numer. Math. 7, 1965), at about a quarter of the complex cost; q then
    comes back real.
    """
    import scipy.linalg  # the only use of scipy; loaded on the first QR

    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    q, r, _ = scipy.linalg.qr(a, mode=mode, pivoting=True)
    return q, int(np.count_nonzero(rank_mask(np.abs(np.diag(r)))))


def orthonormal_columns(a):
    """Orthonormal basis of the column span, via pivoted QR.

    Returns (q, rank).  Pivots at or below KERNEL_RTOL times the largest
    are treated as numerically dependent and dropped.
    """
    q, rank = _pivoted_qr(a, "economic")
    return q[:, :rank], rank


def orthonormal_split(a):
    """Orthonormal bases of the column span and of its orthogonal
    complement, from one full pivoted QR.

    Returns (q, complement, rank); the span basis is the one
    orthonormal_columns gives, and the complement is put in the
    canonical form of canonical_basis, so it depends only on the span.
    """
    q, rank = _pivoted_qr(a, "full")
    complement, _ = canonical_basis(q[:, rank:])
    return q[:, :rank], complement, rank


def kronecker_split(f1, f2):
    """orthonormal_split of the Kronecker product f1 (x) f2, in the
    row-major index, from one full pivoted QR of each factor.

    With Q_i = [M_i K_i] the QR of f_i split at its rank r_i, the span of
    f1 (x) f2 is that of M1 (x) M2, and its complement is spanned by the
    orthonormal columns of [K1 (x) I, M1 (x) K2] (Van Loan, J. Comput.
    Appl. Math. 123, 2000).  Returns (m1, m2, complement, rank), with the
    span basis left in factored form m1 (x) m2, the complement canonical
    and the rank r1 r2.  Each QR has only the rows of its factor; the
    canonical basis costs O(n k^2).
    """
    (q1, r1), (q2, r2) = _pivoted_qr(f1, "full"), _pivoted_qr(f2, "full")
    k0 = np.hstack([np.kron(q1[:, r1:], np.eye(q2.shape[0])),
                    np.kron(q1[:, :r1], q2[:, r2:])])
    complement, _ = canonical_basis(k0)
    return q1[:, :r1], q2[:, :r2], complement, r1 * r2


def canonical_basis(k0):
    """The orthonormal basis of span(k0) that depends only on the span.

    k0 must have orthonormal columns; P is the projector onto their span.
    Column j of the result is the normalised part of P e_(c_j) orthogonal
    to P e_(c_1), ..., P e_(c_(j-1)), where c_j is the coordinate whose
    remaining residual is largest (largest-residual pivoting).  Residuals
    within a relative PIVOT_TIE of the largest count as tied, and a tie
    goes to the lowest coordinate, so a span of coordinate vectors gives
    those vectors in increasing index order.  The residuals of P e_i are
    those of the rows of k0, which a rotation k0 U leaves alone, so the
    pivots are basis-free; then K = k0 Q with Q from the QR of
    k0[c, :]^H, diag(R) > 0.  Cost O(n k^2).

    Returns (K, margin), K real when k0 is.  margin is the smallest
    relative gap, over the k steps, between the largest residual and the
    largest one outside its tie window (1.0 when none is outside): a
    perturbation of relative size well below it cannot change a pivot.
    """
    k0 = np.asarray(k0)
    k = k0.shape[1]
    if k == 0:
        return k0, 1.0
    # row i of k0, conjugated, holds the coordinates of P e_i in the basis
    # k0; its squared residual is downdated by the part along each pivot
    res2 = np.einsum("ij,ij->i", k0, k0.conj()).real
    dirs = np.zeros((k, k), dtype=k0.dtype)  # row j: unit direction of pivot j
    window = (1.0 - PIVOT_TIE) ** 2
    pivots = []
    margin = 1.0
    for j in range(k):
        top2 = res2.max()
        tied = res2 >= window * top2
        c = int(tied.argmax())
        below = max(np.where(tied, 0.0, res2).max(), 0.0)
        margin = min(margin, 1.0 - math.sqrt(below / top2))
        pivots.append(c)
        x = k0[c].conj()
        for _ in range(2):  # Gram-Schmidt, repeated once for orthogonality
            x = x - (dirs[:j] @ x.conj()).conj() @ dirs[:j]
        dirs[j] = x / np.linalg.norm(x)
        res2 -= np.abs(k0 @ dirs[j]) ** 2
        res2[c] = 0.0  # spent, whatever rounding is left
    q, r = np.linalg.qr(k0[pivots].conj().T)
    d = np.diag(r)
    q *= d / np.abs(d)  # the phases that make diag(R) positive
    return k0 @ q, margin


def null_space_onb(a) -> np.ndarray:
    """Orthonormal basis of the kernel of a (possibly empty) matrix.

    The rule of scipy.linalg.null_space with rcond KERNEL_RTOL: the right
    singular vectors of a full SVD outside rank_mask of its singular
    values.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[np.count_nonzero(rank_mask(s)):].conj().T


def restrict_to_support(q, keep) -> np.ndarray:
    """Orthonormal basis of span(q) intersected with {rows outside `keep` vanish}.

    q must have orthonormal columns; keep is a boolean mask over rows.
    """
    q = np.asarray(q)
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
        return np.zeros((q.shape[0], 0), dtype=q.dtype)
    # columns stay orthonormal: q has orthonormal columns and ns is an onb
    return q @ ns


def masked_complement(k_onb, keep):
    """The vectors orthogonal to span(k_onb) that vanish outside `keep`.

    That subspace is the null space of k_onb[keep]^H, read in the
    coordinates of `keep`.  Returns (v, dim): v is an orthonormal basis of
    the range of k_onb[keep], so I - v v^H projects onto the subspace, and
    dim is its dimension.  k_onb must have orthonormal columns; its row
    blocks then have singular values at most 1, so the rank decision is
    absolute (sigma > KERNEL_RTOL): pure rounding noise has rank 0.
    """
    block = np.asarray(k_onb)[np.asarray(keep, dtype=bool)]
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    rank = int(np.sum(s > KERNEL_RTOL))
    return u[:, :rank], block.shape[0] - rank


def coordinate_entries(a):
    """(rows, entries) when every row and every column of a holds at most
    one nonzero entry, else None: column c holds entries[c] in row rows[c]
    and is zero elsewhere (a zero column has entry 0).  O(m n), with no
    arithmetic.  The one coordinate test, of a quotient's K (n x 0 when
    trivial) and of synthesis matrices; no rows or a nonfinite entry: None.
    """
    m, n = a.shape
    nonzero = a != 0
    if not m or np.count_nonzero(nonzero) > min(m, n):
        return None
    # the nonzeros in row-major order: a repeated row is two equal neighbours
    r, c = np.divmod(np.flatnonzero(nonzero), max(n, 1))
    if (r[1:] == r[:-1]).any() or np.bincount(c, minlength=n).max(initial=0) > 1:
        return None
    rows = np.zeros(n, dtype=np.intp)
    rows[c] = r
    entries = a[rows, np.arange(n)]
    return (rows, entries) if np.isfinite(entries).all() else None


def coordinate_rows(k):
    """The rows of k when its columns are distinct coordinate vectors, every
    entry 1.0 (no rows for n x 0), else None: the one test that sends a
    subspace, by the basis k of its complement, to the index route."""
    hits = coordinate_entries(k)
    return hits[0] if hits is not None and (hits[1] == 1.0).all() else None


def compress(k_onb, order, rows):
    """(J_z, J_w, seed): the box shifts compressed to span(K), K = k_onb,
    J = K^H S K, and the compression K^H e_(0,0) of the constant 1.  Given
    the rows of K's coordinate columns, J = S[rows][:, rows] is an index
    map, entry (a, b) 1 when S moves monomial rows[b] to rows[a]."""
    k = np.asarray(k_onb)
    if rows is None:
        jz, jw = (k.conj().T @ shift_rows(k, order, axis) for axis in "zw")
    else:
        space = TruncatedSpace(order)
        where = np.full(space.dim, -1)
        where[rows] = np.arange(rows.size)  # row -> its column in K, else -1
        jz, jw = (np.zeros((rows.size, rows.size), dtype=k.dtype) for _ in "zw")
        steps = (space.order.d2 + 1, 1)  # row offsets of the z- and w-shift
        for j, deg, edge, step in zip((jz, jw), space.degree_grid(), space.order, steps):
            src = np.flatnonzero(deg[rows] < edge)
            dst = where[rows[src] + step]
            hit = dst >= 0
            j[dst[hit], src[hit]] = 1.0
    # + 0.0 turns the -0.0 that conj leaves into the +0.0 of K^H e_(0,0)
    return jz, jw, k[0].conj() + 0.0


def _index_set_residual(inside: np.ndarray):
    """(residual, dim) of the double-commutation test along (z, w) on the
    span of the coordinate vectors e_(i,j), (i, j) in the index set
    `inside` (a boolean coefficient grid of a degree box), with no
    factorisation.

    P S_z P and P S_w^* P move coordinate vectors to coordinate vectors or
    to 0, so on e_(i,j) with (i, j) in the set, i below the last row and
    j >= 1, the commutator gives c e_(i+1,j-1) with
    c = [(i+1,j-1) in set] ([(i,j-1) in set] - [(i+1,j) in set]).  Distinct
    inputs go to distinct outputs, so the commutator is a signed partial
    permutation: its norm is exactly 1.0 when some c is nonzero, else 0.0,
    and dim counts the inputs.  The w-test is this test on the transposed
    grid.
    """
    tested = inside[:-1, 1:]
    moved = tested & inside[1:, :-1] & (inside[:-1, :-1] != inside[1:, 1:])
    return float(moved.any()), int(tested.sum())


def compressed_commutator_residual(k_onb, order, rows):
    """Double-commutation residuals of a subspace M, from its complement.

    M is the orthogonal complement of span(k_onb) in the degree box
    `order`, P its orthogonal projector, and S_z, S_w the truncated
    shifts.  For each axis order (a, b), first (z, w) and then (w, z),
    the result holds (residual, dim): the norm of [P A P, P B^* P] on the
    vectors of M supported where A and B^* act exactly (a-degree below
    the edge, b-degree at least 1), and the dimension of that subspace;
    the residual is 0.0 when it is trivial.  M need not be
    shift-invariant.  Given the rows of k_onb's coordinate columns, M is
    spanned by the coordinate vectors elsewhere: _index_set_residual
    tests that index set, O(n), residuals exactly 0.0 or 1.0.

    Otherwise, as A B^* = B^* A holds exactly on the box, for x in M the
    commutator equals P (B^* K K^H A - A K K^H B^*) x with K = k_onb.
    That operator has rank at most 2k and is formed from n x 2k and
    2k x n factors only, with the shifts applied as index moves: O(n k^2)
    in all.  The four shifted copies of K are built once, in two blocks:
    the left factor [B^* K, -A K] of one axis order is, up to the sign of
    its second half, the right factor [A^* K, B K] of the other.
    """
    k = np.asarray(k_onb)
    space = TruncatedSpace(order)
    if rows is not None:
        inside = np.ones((space.order.d1 + 1, space.order.d2 + 1), dtype=bool)
        inside.flat[rows] = False
        return _index_set_residual(inside), _index_set_residual(inside.T)
    deg = dict(zip("zw", space.degree_grid()))
    edge = dict(zip("zw", space.order))
    # blocks[a + b] = [B^* K, A K]; multiplying by sign gives the left
    # factor in the block's memory order, which the BLAS rounding follows
    blocks = {a + b: np.hstack([shift_rows(k, order, b, adjoint=True), shift_rows(k, order, a)])
              for a, b in ("zw", "wz")}
    sign = np.repeat([1.0, -1.0], k.shape[1])
    out = []
    for a, b in ("zw", "wz"):
        keep = (deg[a] < edge[a]) & (deg[b] >= 1)
        v, dim = masked_complement(k, keep)
        if dim == 0:
            out.append((0.0, 0))
            continue
        left = blocks[a + b] * sign
        left -= k @ (k.conj().T @ left)
        r = np.linalg.qr(left, mode="r")
        del left  # freed before the right factor is formed: a lower peak
        right = blocks[b + a][keep].conj().T
        right -= (right @ v) @ v.conj().T
        out.append((opnorm(r @ right), dim))
    return tuple(out)


def iterate_columns(t1, t2, phi, l1: int, l2: int):
    """The iterates v[i, j] = T2^j T1^i phi for i <= l1, j <= l2, streamed:
    yields the (l1+1, dim) column block v[:, j], a new array, for j = 0..l2.

    The first column comes from the recurrence v[i+1, 0] = T1 v[i, 0],
    one matrix-vector product per vector; each later column is one
    matrix product of the whole column before it, v[:, j+1] = v[:, j] T2^T,
    so the box costs l1 + l2 products.  The three inputs are cast once to
    their common dtype (float64 or complex128), so no step upcasts a real
    operator to meet a complex vector.
    """
    dtype = np.result_type(t1, t2, phi, np.float64)
    t1, t2, phi = (np.asarray(x, dtype=dtype) for x in (t1, t2, phi))
    block = np.empty((l1 + 1, phi.shape[0]), dtype=dtype)
    block[0] = phi
    for i in range(l1):
        block[i + 1] = t1 @ block[i]
    yield block
    for _ in range(l2):
        block = block @ t2.T
        yield block


def subspace_distance(q1, q2) -> float:
    """Gap ||P1 - P2|| between column spans (sine of the largest
    principal angle when the dimensions agree).

    Computed on the thin bases as max(||Q2 - Q1 Q1^H Q2||,
    ||Q1 - Q2 Q2^H Q1||), which equals ||P1 - P2|| for orthogonal
    projectors (Bjorck & Golub, Math. Comp. 27, 1973).  Each argument
    needs Q Q^H = P: orthonormal columns, or the projector itself.
    """
    q1, q2 = np.asarray(q1), np.asarray(q2)
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
