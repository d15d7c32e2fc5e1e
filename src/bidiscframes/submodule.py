"""Shift-invariant submodules of the truncated space and their quotients.

A submodule here is a subspace invariant under both coordinate shifts.
Construction is degree-safe: spanning products that would leave the
degree box are excluded rather than clipped.  The span is then genuinely
shift-invariant inside the box for a polynomial inner function and for
monomial generators.  A generator g of bidegree (p, q) with more than one
term loses invariance at the box edge: the truncated z-shift of
z^(N1-p) w^j g keeps the terms of g below z-degree p, but
z^(N1-p+1) w^j g is excluded, so the span need not contain it
(SubmoduleModel.exact says so).

Every submodule carries an orthonormal basis K of its orthogonal
complement, in a canonical form that depends only on the span
(_linalg.canonical_basis).  No module a config can build needs a
factorisation with n = (N1+1)(N2+1) rows:

- monomial generators, and monomial inners, span a union of quadrants of
  the coefficient grid, so both bases are coordinate vectors and K is the
  missing monomials in index order;
- every other inner a config can build is separable, theta1(z) theta2(w),
  so its spanning family is a Kronecker product and K comes from one
  pivoted QR of each one-variable family (_linalg.kronecker_split);
- only generators with more than one term (library use) take one full
  pivoted QR of the spanning family, which lists each distinct product
  once and is real when the generators are.

The submodule's own basis is the largest array (n x rank); it is kept in
factored form and built only when read.  The quotient model is built on
the complement: the two compressed shifts (a commuting pair of nilpotent
matrices, the two-variable analogue of a Jordan block) and the
compression of the constant 1 as the distinguished seed vector.  Its
n x n orthogonal projector is built on demand, only when read.  The
double-commutation test also works from the complement, so nothing
costs more than O(n k^2) for a quotient of dimension k, besides the
dense QR of multi-term generators.  Both are one call into _linalg,
which takes the index route on a union of quadrants (the quotient scans
K as its certificate; the test reads onb_rows): the compressed shifts
are index maps, and the test takes O(n) boolean grid operations with
residuals exactly 0.0 or 1.0.

Every array here follows the dtype of the module's coefficients: for an
inner function or generators with real coefficients (every catalog
fixture, monomials, Blaschke factors with real zeros) the bases, the
compressed shifts and the seed are float64, and the whole chain after
them runs in real arithmetic.  Export files are complex128 either way.
"""

from __future__ import annotations

import base64
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._linalg import (
    compress,
    compressed_commutator_residual,
    coordinate_rows,
    iterate_columns,
    kronecker_split,
    opnorm,
    orthonormal_split,
)
from .frames import COMM_TOL, COMMUTE_TOL, PreconditionError
from .hardy import BidiscPoly, DegreePair, TruncatedSpace
from .inner import InnerPoly, InnerSpec, build_inner

__all__ = [
    "SubmoduleModel",
    "QuotientModel",
    "DoublyCommuteReport",
    "beurling_submodule",
    "generated_submodule",
    "zero_submodule",
    "quotient",
    "codimension_profile",
    "doubly_commute_test",
    "jordan_identity_residual",
    "jordan_identity_check",
    "export_submodule",
    "export_quotient",
]

APPROX_WARN_LEVEL = 1e-6
COMPLEMENT_TOL = 1e-10


@dataclass(frozen=True)
class SubmoduleModel:
    """Shift-invariant subspace with an orthonormal basis of its
    orthogonal complement.

    The orthonormal basis Q of the subspace itself is kept in factored
    form and built only when `onb` is read: Q = M1 (x) M2 for the pair
    `onb_factors` (a basis without that structure is stored as
    (Q, [[1]])), or Q is the coordinate vectors of the rows `onb_rows`,
    in index order.
    """

    space: TruncatedSpace
    kind: str  # "beurling" | "generated" | "zero"
    complement: np.ndarray
    rank: int
    inner: InnerPoly | None = None
    generators: tuple[BidiscPoly, ...] = ()
    onb_factors: tuple[np.ndarray, np.ndarray] | None = None
    onb_rows: np.ndarray | None = None

    @cached_property
    def onb(self) -> np.ndarray:
        """Orthonormal basis of the subspace (n x rank), built on first read."""
        if self.onb_rows is not None:
            onb = np.zeros((self.space.dim, self.rank))
            onb[self.onb_rows, np.arange(self.rank)] = 1.0
            return onb
        return np.kron(*self.onb_factors)

    def onb_adjoint(self, x) -> np.ndarray:
        """Q^H x for x with n rows, without forming Q: the rows onb_rows
        of x, or M1^H and M2^H applied to the axes of x read as a
        coefficient grid.  O(n c (N1 + N2)) for c columns."""
        if self.onb_rows is not None:
            return x[self.onb_rows]
        m1, m2 = self.onb_factors
        grid = m1.conj().T @ x.reshape(m1.shape[0], -1)
        grid = m2.conj().T @ grid.reshape(m1.shape[1], m2.shape[0], -1)
        return grid.reshape(self.rank, -1)

    @property
    def exact(self) -> bool:
        """True when the span is exactly shift-invariant inside the box.

        Beurling models over truncated (non-polynomial) inner functions,
        and generated models with a generator of more than one term, are
        approximate near the box edge.
        """
        if self.kind == "beurling":
            return self.inner is not None and self.inner.trunc_error == 0.0
        return all(len(g.coeffs) == 1 for g in self.generators)


@dataclass(frozen=True)
class QuotientModel:
    """Orthogonal complement of a submodule, with its compressed shifts."""

    parent: SubmoduleModel
    onb_k: np.ndarray
    jordan_z: np.ndarray
    jordan_w: np.ndarray
    seed: np.ndarray
    comm_residual: float

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector K K^H onto the quotient (n x n), built on
        each read."""
        return self.onb_k @ self.onb_k.conj().T

    @property
    def dim(self) -> int:
        return self.onb_k.shape[1]

    @property
    def trivial(self) -> bool:
        return self.dim == 0


@dataclass(frozen=True)
class DoublyCommuteReport:
    residual_interior: float
    verdict: bool
    residual_z: float
    residual_w: float
    n_interior_z: int
    n_interior_w: int


def _spanning_family(gens: Sequence[BidiscPoly], space: TruncatedSpace) -> np.ndarray:
    """Coefficient vectors of z^i w^j g for every generator g and every
    (i, j) that keeps the product inside the box (degree-safe closure),
    each distinct vector once, as the columns of one matrix.

    z^i w^j g is fixed by the shape of g (its terms relative to the corner
    of its smallest degrees) and by where the shift puts that corner, so
    generators of one shape share one grid of corners and each corner
    gives one column.  The matrix is real when every coefficient is.
    """
    n1, n2 = space.order
    corners: dict[tuple, np.ndarray] = {}
    for g in gens:
        a0 = min(i for i, _ in g.coeffs)
        b0 = min(j for _, j in g.coeffs)
        shape = tuple(sorted(((i - a0, j - b0), c) for (i, j), c in g.coeffs.items()))
        grid = corners.setdefault(shape, np.zeros((n1 + 1, n2 + 1), dtype=bool))
        p, q = g.maxdeg
        grid[a0 : a0 + n1 - p + 1, b0 : b0 + n2 - q + 1] = True
    real = all(c.imag == 0 for shape in corners for _, c in shape)
    total = sum(int(grid.sum()) for grid in corners.values())
    family = np.zeros((space.dim, total), dtype=np.float64 if real else np.complex128)
    start = 0
    for shape, grid in corners.items():
        ci, cj = np.nonzero(grid)
        cols = np.arange(start, start + ci.size)
        for (di, dj), c in shape:
            family[(ci + di) * (n2 + 1) + cj + dj, cols] = c.real if real else c
        start += ci.size
    return family


def _shift_family(theta: np.ndarray, order: int) -> np.ndarray:
    """Coefficient vectors of t^i theta(t) for i = 0, ..., order - p
    (p = deg theta) as columns: the one-variable spanning family, real
    when theta is."""
    theta = np.trim_zeros(theta, "b")
    if not theta.imag.any():
        theta = theta.real
    family = np.zeros((order + 1, order - theta.size + 2), dtype=theta.dtype)
    for i in range(family.shape[1]):
        family[i : i + theta.size, i] = theta
    return family


def _split(gens: Sequence[BidiscPoly], space: TruncatedSpace, axis_factors=None):
    """(complement, rank, stored basis) of the degree-safe closure of gens.

    Monomials span a union of quadrants: both bases are coordinate
    vectors, the complement the missing monomials in index order.  A
    separable generator theta1(z) theta2(w), given as axis_factors, goes
    through the one-variable factorisations of kronecker_split.  Anything
    else takes the full pivoted QR of the spanning family.  The stored
    basis is the onb_rows or onb_factors keyword of SubmoduleModel.
    """
    if all(len(g.coeffs) == 1 for g in gens):
        i, j = space.degree_grid()
        inside = np.zeros(space.dim, dtype=bool)
        for g in gens:
            (a, b), = g.coeffs
            inside |= (i >= a) & (j >= b)
        missing = np.flatnonzero(~inside)
        complement = np.zeros((space.dim, missing.size))
        complement[missing, np.arange(missing.size)] = 1.0
        rows = np.flatnonzero(inside)
        return complement, rows.size, {"onb_rows": rows}
    if axis_factors is not None:
        families = (_shift_family(t, d) for t, d in zip(axis_factors, space.order))
        m1, m2, complement, rank = kronecker_split(*families)
        return complement, rank, {"onb_factors": (m1, m2)}
    onb, complement, rank = orthonormal_split(_spanning_family(gens, space))
    return complement, rank, {"onb_factors": (onb, np.ones((1, 1)))}


def beurling_submodule(phi: InnerPoly, space: TruncatedSpace) -> SubmoduleModel:
    """Submodule spanned by phi times every monomial that fits in the box.

    For an inner phi, multiplication is isometric, so the spanning family
    must be independent; the rank is asserted to be the full count
    (N1 - p + 1)(N2 - q + 1) where (p, q) = maxdeg(phi).  A phi with
    recorded axis factors is split without an n-row factorisation.
    """
    if not phi.poly.coeffs:
        raise ValueError("inner polynomial is zero")
    if not space.order.covers(phi.poly.maxdeg):
        raise ValueError(
            f"inner degree {tuple(phi.poly.maxdeg)} exceeds box {tuple(space.order)}"
        )
    if phi.trunc_error > APPROX_WARN_LEVEL:
        warnings.warn(
            f"submodule is approximate: inner truncation tail {phi.trunc_error:.3e}",
            stacklevel=2,
        )
    complement, rank, basis = _split([phi.poly], space, phi.axis_factors)
    p, q = phi.poly.maxdeg
    expected = (space.order.d1 - p + 1) * (space.order.d2 - q + 1)
    if rank != expected:
        raise ValueError(
            f"rank {rank} != expected {expected}; generator is not behaving "
            "like an isometric multiplier at this tolerance"
        )
    return SubmoduleModel(space=space, kind="beurling", complement=complement,
                          rank=rank, inner=phi, **basis)


def generated_submodule(generators: Iterable[BidiscPoly],
                        space: TruncatedSpace) -> SubmoduleModel:
    """Smallest degree-safe shift-invariant span containing the generators."""
    gens = tuple(g for g in generators if g.coeffs)
    for g in gens:
        if not space.order.covers(g.maxdeg):
            raise ValueError(
                f"generator degree {tuple(g.maxdeg)} exceeds box {tuple(space.order)}"
            )
    if not gens:
        return zero_submodule(space)
    complement, rank, basis = _split(gens, space)
    return SubmoduleModel(space=space, kind="generated", complement=complement,
                          rank=rank, generators=gens, **basis)


def zero_submodule(space: TruncatedSpace) -> SubmoduleModel:
    complement, rank, basis = _split((), space)
    return SubmoduleModel(space=space, kind="zero", complement=complement,
                          rank=rank, **basis)


def quotient(sub: SubmoduleModel) -> QuotientModel:
    """Orthogonal complement with compressed shifts and seed.

    The compressed shifts commute exactly for exact submodules; for
    approximate (truncated-inner) parents the commutation defect is of
    the order of the truncation tail and is recorded with a warning.

    The complement basis K is certified by ||K^H K - I|| and ||Q^H K||
    (Q the submodule basis, applied in factored form without being
    built), both at most 1e-10.  This stands in for
    checking the projector P = K K^H: P is Hermitian by construction, and
    ||P^2 - P|| = ||K (K^H K - I) K^H|| <= e (1 + e) with e = ||K^H K - I||.

    On a union of quadrants (onb_rows), K is the coordinate vectors of the
    missing monomials: the one coordinate test (_linalg.coordinate_rows,
    which refuses a repeated row) confirms it, every entry 1.0.  Then
    ||K^H K - I|| vanishes, and ||Q^H K|| is an index-set test (0 when the
    missing indices avoid onb_rows).  A K that fails the test takes the
    dense certificates.  _linalg.compress builds the shifts and the seed.

    comm_residual is ||J_z J_w - J_w J_z|| of the arrays the quotient
    holds; triple_from_quotient hands it to the triple, so the pair's
    commutator is formed once per chain.
    """
    space = sub.space
    onb_k = sub.complement
    k = onb_k.shape[1]
    if k != space.dim - sub.rank:
        raise RuntimeError("complement dimension mismatch")
    if k == 0:
        warnings.warn("trivial quotient: submodule fills the whole box", stacklevel=2)

    # distinct rows, each column a coordinate vector: K^H K = I exactly
    rows = coordinate_rows(onb_k) if sub.onb_rows is not None else None
    orth = cross = 0.0
    if rows is None:
        orth = opnorm(onb_k.conj().T @ onb_k - np.eye(k))
    if rows is None or np.isin(rows, sub.onb_rows).any():
        cross = opnorm(sub.onb_adjoint(onb_k))
    if orth > COMPLEMENT_TOL or cross > COMPLEMENT_TOL:
        raise RuntimeError(
            f"complement defect beyond tolerance (orth {orth:.2e}, cross {cross:.2e})"
        )

    jordan_z, jordan_w, seed = compress(onb_k, space.order, rows)
    comm = opnorm(jordan_z @ jordan_w - jordan_w @ jordan_z)
    if comm > COMM_TOL:
        if sub.exact:
            raise RuntimeError(f"compressed shifts fail to commute: {comm:.2e}")
        warnings.warn(
            f"compressed shifts commute only to {comm:.2e}; the parent "
            "submodule is approximate at the box edge",
            stacklevel=2,
        )
    return QuotientModel(
        parent=sub,
        onb_k=onb_k,
        jordan_z=jordan_z,
        jordan_w=jordan_w,
        seed=seed,
        comm_residual=comm,
    )


def codimension_profile(spec: InnerSpec, orders: Sequence) -> list[int]:
    """Quotient dimensions of the inner function's submodule along a
    growing ladder of degree boxes.

    For nonconstant inner functions the profile grows without bound as
    the box grows; the finite ladder is the computable witness.
    """
    degs = [DegreePair(int(o[0]), int(o[1])) for o in orders]
    for prev, cur in zip(degs, degs[1:]):
        if not cur.covers(prev) or cur == prev:
            raise ValueError("orders must increase componentwise")
    profile = []
    for order in degs:
        space = TruncatedSpace(order)
        ip = build_inner(spec, order)
        sub = beurling_submodule(ip, space)
        profile.append(space.dim - sub.rank)
    return profile


def doubly_commute_test(sub: SubmoduleModel) -> DoublyCommuteReport:
    """Test whether the restricted shifts doubly commute on the submodule.

    The commutator of the compressed z-shift with the adjoint of the
    compressed w-shift is applied to submodule vectors supported on the
    interior sub-box (z-degree at most N1-1, w-degree at least 1), which
    excludes truncation-edge artifacts; the w-test mirrors the masks.
    Characterization: the submodules of the single-inner-function form
    pass, and e.g. the span generated by {z, w} fails with residual 1.

    The residuals come from the complement basis alone, O(n k^2), or on
    a union of quadrants from the module's index set, O(n), exactly 0.0
    or 1.0 (compressed_commutator_residual): the rows of K are then the
    indices outside onb_rows, with no scan of K.
    """
    if sub.rank < 1:
        raise PreconditionError("doubly-commute test needs a nonzero submodule")
    rows = None if sub.onb_rows is None else np.delete(np.arange(sub.space.dim), sub.onb_rows)
    (rz, nz), (rw, nw) = compressed_commutator_residual(sub.complement, sub.space.order, rows)
    residual = max(rz, rw)
    return DoublyCommuteReport(
        residual_interior=residual,
        verdict=bool(residual <= COMMUTE_TOL),
        residual_z=rz,
        residual_w=rw,
        n_interior_z=nz,
        n_interior_w=nw,
    )


def jordan_identity_residual(quot: QuotientModel, m: int, n: int) -> float:
    """Deviation between the iterated-compression route and the direct
    projection route for the (m, n) iterate of the seed: row m of the
    last column block of the recurrence (_linalg.iterate_columns)."""
    for block in iterate_columns(quot.jordan_z, quot.jordan_w, quot.seed, m, n):
        pass
    direct = quot.onb_k.conj().T @ quot.parent.space.basis_vector(m, n)
    return float(np.linalg.norm(block[m] - direct))


def jordan_identity_check(quot: QuotientModel) -> dict:
    """Sweep the identity over interior degrees.

    Interior means at least the parent generator degree away from the box
    edge, so no intermediate iterate is clipped.  One pass over the box:
    the iterated route is streamed a column block v[:, j] at a time by
    the recurrence iterate() uses (_linalg.iterate_columns), and each
    block keeps only its residuals against the direct route K^H e_(m,n),
    the conjugate of row (m, n) of K.
    """
    space = quot.parent.space
    n1, n2 = space.order
    if quot.parent.kind == "beurling" and quot.parent.inner is not None:
        p, q = quot.parent.inner.poly.maxdeg
    else:
        p, q = 0, 0
    m_max = n1 - p - 1
    n_max = n2 - q - 1
    m_top, n_top = max(m_max, 0), max(n_max, 0)
    direct = quot.onb_k.reshape(n1 + 1, n2 + 1, quot.dim)[: m_top + 1]
    residuals = np.empty((m_top + 1, n_top + 1))
    blocks = iterate_columns(quot.jordan_z, quot.jordan_w, quot.seed, m_top, n_top)
    for j, block in enumerate(blocks):
        residuals[:, j] = np.linalg.norm(block - direct[:, j].conj(), axis=-1)
    return {
        "max_residual": float(residuals.max()),
        "degree_box": [m_max, n_max],
        "n_checked": int(residuals.size),
    }


# --- export -----------------------------------------------------------


def _encode_matrix(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "shape": list(a.shape),
        "dtype": "complex128",
        "layout": "column-major",
        "data": base64.b64encode(a.tobytes(order="F")).decode("ascii"),
    }


def decode_matrix(blob: dict) -> np.ndarray:
    raw = base64.b64decode(blob["data"])
    flat = np.frombuffer(raw, dtype=np.complex128)
    return flat.reshape(blob["shape"], order="F").copy()


def export_submodule(sub: SubmoduleModel) -> dict:
    out = {
        "order": list(sub.space.order),
        "kind": sub.kind,
        "rank": sub.rank,
        "onb": _encode_matrix(sub.onb),
    }
    if sub.inner is not None:
        out["inner"] = sub.inner.spec.to_json()
        out["trunc_error"] = float(sub.inner.trunc_error)
    if sub.generators:
        out["generators"] = [g.to_json() for g in sub.generators]
    return out


def export_quotient(quot: QuotientModel) -> dict:
    return {
        "order": list(quot.parent.space.order),
        "parent_kind": quot.parent.kind,
        "dim": quot.dim,
        "projector": _encode_matrix(quot.projector),
        "onb_k": _encode_matrix(quot.onb_k),
        "jordan_z": _encode_matrix(quot.jordan_z),
        "jordan_w": _encode_matrix(quot.jordan_w),
        "seed": _encode_matrix(quot.seed.reshape(-1, 1)),
        "comm_residual": float(quot.comm_residual),
    }
