"""Frames generated by iterating a commuting operator pair on a seed.

The iterate family {T1^i T2^j phi : (i, j) inside a horizon box} is
collected into a synthesis matrix U, columns in the row-major order of
the degree boxes.  Frame bounds are the extreme eigenvalues of the
partial frame operator U U^H, read off the singular values of U.  The
kernel of U holds the coefficient relations among the iterates; two
tests probe it, invariance under the shifts of the horizon box and
double commutation of their compressions, both from the row space, the
kernel's complement, of dimension at most the operator dimension.

Each system factorises U once, cached on the system: as a rule one thin
SVD, which gives the frame bounds, the rank and the row space; a frame
report is built afresh on each call, in O(dim).  A moved system over a
coordinate base of rank k takes no factorisation at all:
moved_frame_report reads its gap from the base and its singular values
off its k x k block B on the base's rank columns (U = B [I | X] up to
the column order, so the gap is sin(arctan ||X||) and U U^H =
B (I + X X^H) B^H), and caches nothing.  The bound trace is built only
when read.  iterate() marks U read-only, so no cache can go stale.

A coordinate U, with at most one nonzero entry in every row and every
column, takes no factorisation.  Its iterates are multiples of distinct
coordinate vectors, as for the compressed shifts of a union-of-quadrant
module (the two-variable Jordan block), the shift pair of the Riesz
check and any weighted shift pair.  Each system decides its structure
once, by one cached test, O(dim ncols), and every reader takes it from
there.  The SVD is read off the entries exactly, the bound trace is a
running maximum and minimum over the rims, and the coordinate rows of
the row space (IterateSystem.coordinate_rows) send
kernel_doubly_commutes and models.recover_model and estimate_similarity
to their index routes, with no scan of a basis.  The kernel is the
coordinate span of the columns outside the rank set, the leading rank()
of them: its invariance residual is the largest |entry| among the
shifted kernel columns, and its double-commutation residuals are 0.0 or
1.0, both exact.  The row-space gap (rowspace_gap) of two systems of
unequal rank is 1.0, and of two coordinate systems a comparison of their
rank sets, with no product.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._linalg import (
    KERNEL_RTOL,
    _rescaled,
    compressed_commutator_residual,
    coordinate_entries,
    guard_norm,
    hermitian_extremes,
    iterate_columns,
    masked_complement,
    null_space_onb,
    opnorm,
    rank_mask,
)
from .hardy import DegreePair, TruncatedSpace, shift_rows, _as_degree

__all__ = [
    "GuardError",
    "InvariantViolation",
    "PreconditionError",
    "OperatorTriple",
    "IterateSystem",
    "FrameReport",
    "KernelInvarianceReport",
    "KernelCommuteReport",
    "desk_guard",
    "iterate",
    "synthesis_kernel",
    "synthesis_rowspace",
    "rowspace_gap",
    "moved_frame_report",
    "frame_bounds",
    "kernel_shift_invariance",
    "kernel_doubly_commutes",
    "CLASS_RTOL",
    "COMMUTE_TOL",
    "KERNEL_RTOL",
]

# desk-scale guards; the dimension cap can be lifted via BDF_MAX_DIM
DIM_LIMIT = 2000
COLS_LIMIT = 100_000
CLASS_RTOL = 1e-8
COMM_TOL = 1e-10
COMMUTE_TOL = 1e-8  # "doubly commutes", for submodules and synthesis kernels


class GuardError(RuntimeError):
    """A desk-scale or conditioning guard refused the operation."""


class InvariantViolation(RuntimeError):
    """A mathematical property that was asserted failed to hold."""


class PreconditionError(ValueError):
    """The hypothesis of a mathematical test is false for its input (for
    example "not a frame"); the runner records it as that check's FAIL."""


def desk_guard(stage: str, dim: int) -> None:
    """The one desk guard: GuardError when the dimension dim of a stage
    ("space", "operator") is at or beyond BDF_MAX_DIM, default DIM_LIMIT."""
    raw = os.environ.get("BDF_MAX_DIM")
    try:
        limit = DIM_LIMIT if raw is None else int(raw)
    except ValueError as exc:
        raise ValueError(f"BDF_MAX_DIM must be an integer, got {raw!r}") from exc
    if dim >= limit:
        raise GuardError(f"{stage} dimension {dim} at or beyond the desk guard "
                         f"{limit}; set BDF_MAX_DIM to go bigger")


@dataclass(frozen=True)
class OperatorTriple:
    """A commuting pair of operators with a distinguished seed vector.

    The three arrays are cast to their common dtype: float64 when all are
    real (the compressed shifts of a module with real coefficients), so
    every iterate system built on the triple runs in real arithmetic, and
    complex128 as soon as one is complex.  Arrays already of that dtype
    are not copied; treat them as read-only.  Construction fails unless
    the pair commutes to 1e-10 in spectral norm (judged by
    _linalg.guard_norm).  A triple from a quotient
    (models.triple_from_quotient) or from with_seed reuses the check the
    package already made on the same pair.
    """

    T1: np.ndarray
    T2: np.ndarray
    phi: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self._store(self.T1, self.T2, self.phi, None, None)

    def _store(self, t1, t2, phi, comm, pair):
        """Cast to the common dtype and check the shapes.  A pair checked
        before comes with its residual comm = ||T1 T2 - T2 T1||, or with
        the arrays pair it was checked as; with neither, it is checked
        here and refused above COMM_TOL."""
        dtype = np.result_type(t1, t2, phi, np.float64)
        t1 = np.asarray(t1, dtype=dtype)
        t2 = np.asarray(t2, dtype=dtype)
        phi = np.asarray(phi, dtype=dtype).reshape(-1)
        n = phi.shape[0]
        if t1.shape != (n, n) or t2.shape != (n, n):
            raise ValueError(
                f"operator shapes {t1.shape}, {t2.shape} do not match seed length {n}"
            )
        if comm is None and pair is None:
            comm = guard_norm(t1 @ t2 - t2 @ t1, COMM_TOL)
        if comm is not None and comm > COMM_TOL:
            raise PreconditionError(f"operators do not commute: residual {comm:.3e}")
        for name, value in (("T1", t1), ("T2", t2), ("phi", phi), ("dim", n),
                            ("_pair", pair or (t1, t2))):
            object.__setattr__(self, name, value)
        if comm is not None:
            object.__setattr__(self, "comm_residual", float(comm))

    @cached_property
    def comm_residual(self) -> float:
        """||T1 T2 - T2 T1|| of the pair as checked, spectral norm: known
        from the check or the quotient, else taken on first read."""
        t1, t2 = self._pair
        return opnorm(t1 @ t2 - t2 @ t1)

    @classmethod
    def _checked(cls, t1, t2, phi, comm, pair) -> "OperatorTriple":
        """The triple of a pair checked before (see _store)."""
        triple = object.__new__(cls)
        triple._store(t1, t2, phi, comm, pair)
        return triple

    def with_seed(self, phi) -> "OperatorTriple":
        """The triple of this checked pair with another seed.

        The pair is not multiplied again: it shares comm_residual, and it
        is cast to complex128 only when the seed is complex.
        """
        return OperatorTriple._checked(self.T1, self.T2, phi,
                                       vars(self).get("comm_residual"), self._pair)


@dataclass(frozen=True)
class IterateSystem:
    """All iterates of the seed inside a horizon box, as their synthesis
    matrix (dim x n_columns, columns in row-major horizon order).

    The structure test, the thin SVD, the row space and the bound trace
    are computed on first use and cached on the system; nothing else is.
    iterate() makes synthesis, and so its view vectors, read-only.
    """

    triple: OperatorTriple
    horizon: DegreePair
    synthesis: np.ndarray  # (dim, (L1+1)(L2+1))

    @property
    def vectors(self) -> np.ndarray:
        """The (L1+1, L2+1, dim) grid of iterates, a view of synthesis."""
        return self.synthesis.T.reshape(self.horizon.d1 + 1, self.horizon.d2 + 1, self.triple.dim)

    @property
    def ncols(self) -> int:
        return self.synthesis.shape[1]

    @property
    def box_space(self) -> TruncatedSpace:
        """The horizon box viewed as a coefficient space; its shifts act on
        synthesis-kernel vectors."""
        return TruncatedSpace(self.horizon)

    def col_index(self, i: int, j: int) -> int:
        l1, l2 = self.horizon
        if not (0 <= i <= l1 and 0 <= j <= l2):
            raise ValueError(f"({i}, {j}) outside horizon {tuple(self.horizon)}")
        return i * (l2 + 1) + j

    def vector(self, i: int, j: int) -> np.ndarray:
        return self.synthesis[:, self.col_index(i, j)]

    @cached_property
    def _coordinate_entries(self):
        """(rows, entries) when the synthesis matrix is coordinate (see
        _linalg.coordinate_entries), else None; dim 0 keeps the dense path."""
        return coordinate_entries(self.synthesis)

    @cached_property
    def _coordinate_order(self):
        """The nonzero columns of a coordinate synthesis matrix in the order
        of its SVD, |entry| descending, ties to the lower column; else None."""
        hits = self._coordinate_entries
        if hits is None:
            return None
        mod = np.abs(hits[1])
        return np.argsort(-mod, kind="stable")[: np.count_nonzero(mod)]

    def coordinate_rows(self, count: int):
        """_linalg.coordinate_rows of Vh[:count]^H (the row space at count =
        rank()) with no scan: the leading columns of a coordinate system,
        whose Vh rows are e_c^T, and None for a dense one."""
        cols = self._coordinate_order
        return None if cols is None else cols[:count]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, singular values, Vh): the thin SVD of the synthesis matrix,
        taken once per system.  A coordinate matrix has it exactly: the
        |entries| in _coordinate_order, U holding the phases on the rows
        hit and Vh the columns hit, both completed by the unused coordinate
        vectors in index order.  Every other matrix takes the dense SVD.
        """
        cols = self._coordinate_order
        if cols is None:
            return tuple(np.linalg.svd(self.synthesis, full_matrices=False))
        rows, entries = (a[cols] for a in self._coordinate_entries)
        (dim, ncols), r = self.synthesis.shape, cols.size
        m = min(dim, ncols)
        s = np.zeros(m)
        s[:r] = np.abs(entries)
        u = np.zeros((dim, m), dtype=self.synthesis.dtype)
        u[np.delete(np.arange(dim), rows)[: m - r], np.arange(r, m)] = 1.0
        u[rows, np.arange(r)] = entries / s[:r]
        vh = np.zeros((m, ncols), dtype=self.synthesis.dtype)
        vh[np.arange(m), np.concatenate([cols, np.delete(np.arange(ncols), cols)[: m - r]])] = 1.0
        return u, s, vh

    @cached_property
    def _rowspace(self) -> np.ndarray:
        """The orthonormal row-space basis synthesis_rowspace returns: one
        read-only, C-contiguous copy of the leading rows of Vh, conjugate
        transposed, made once per system, so that every product with it
        rounds the same whichever caller reads it."""
        vh = self.svd[2][: self.rank()]
        rows = np.conjugate(vh.T, out=np.empty(vh.shape[::-1], dtype=vh.dtype))
        rows.flags.writeable = False
        return rows

    def rank(self) -> int:
        """Numerical rank of the synthesis matrix: the singular values
        above KERNEL_RTOL times the largest (0 for a zero matrix)."""
        return int(np.count_nonzero(rank_mask(self.svd[1])))

    @cached_property
    def bound_trace(self) -> tuple:
        """((h, lower, upper), ...): the extreme eigenvalues of the frame
        operator of each square corner i, j <= h of the horizon box, built
        on first read.

        The corner operator is accumulated rim by rim, so each iterate
        enters it once.  A corner of m = (h+1)^2 < dim iterates has a
        singular frame operator: its lower bound is 0, and its upper bound
        is the largest eigenvalue of the m x m Gram of its iterates.

        For a coordinate synthesis matrix every corner operator is
        diagonal, with the squared |entries| of the corner's iterates on
        distinct rows: the trace is a running maximum and minimum over the
        rims, with no Gram and no eigvalsh.
        """
        dim = self.triple.dim
        hits = self._coordinate_entries
        if hits is not None:
            entries = hits[1]
            sq = (entries * entries.conj()).real
            hit = entries != 0
            i, j = np.divmod(np.arange(self.ncols), self.horizon.d2 + 1)
            level = np.maximum(i, j)  # the first corner that holds the column
            hi, lo, count, trace = 0.0, np.inf, 0, []
            for h in range(min(self.horizon) + 1):
                rim = sq[(level == h) & hit]
                hi = max(hi, float(rim.max(initial=0.0)))
                lo = min(lo, float(rim.min(initial=np.inf)))
                count += rim.size
                trace.append((h, lo if count == dim else 0.0, hi))
            return tuple(trace)
        gram = np.zeros((dim, dim), dtype=self.synthesis.dtype)
        trace = []
        for h in range(min(self.horizon) + 1):
            # iterates of corner h outside corner h - 1, as rows
            rim = np.concatenate([self.vectors[h, : h + 1], self.vectors[:h, h]])
            gram += rim.T @ rim.conj()
            if (h + 1) ** 2 < dim:
                # C order, as the Gram's rounding depends on the layout
                block = np.ascontiguousarray(self.vectors[: h + 1, : h + 1].reshape(-1, dim))
                lo, hi = 0.0, hermitian_extremes(block.conj() @ block.T)[1]
            else:
                lo, hi = hermitian_extremes(gram)
            trace.append((h, max(lo, 0.0), max(hi, 0.0)))
        return tuple(trace)


@dataclass(frozen=True)
class FrameReport:
    """Spectral summary of a (partial) frame operator.

    bound_trace reads through to the system's trace, so a report whose
    trace nobody reads never builds it.
    """

    lower: float
    upper: float
    classification: str  # not_frame | frame | parseval | minimal_frame
    kernel_dim: int
    system: IterateSystem = field(compare=False, repr=False)
    rtol: ClassVar[float] = CLASS_RTOL

    @property
    def bound_trace(self) -> tuple:
        """((h, lower, upper), ...) over square sub-horizons; see
        IterateSystem.bound_trace."""
        return self.system.bound_trace

    @property
    def is_frame(self) -> bool:
        return self.classification != "not_frame"

    def to_dict(self) -> dict:
        return {
            "lower": float(self.lower),
            "upper": float(self.upper),
            "classification": self.classification,
            "kernel_dim": int(self.kernel_dim),
            "bound_trace": [[int(h), float(lo), float(hi)] for h, lo, hi in self.bound_trace],
            "rtol": float(self.rtol),
        }


@dataclass(frozen=True)
class KernelInvarianceReport:
    residual: float
    vacuous: bool
    inconclusive: bool
    n_checked: int
    message: str = ""


@dataclass(frozen=True)
class KernelCommuteReport:
    residual: float
    verdict: bool
    vacuous: bool
    inconclusive: bool
    residual_z: float
    residual_w: float
    n_checked: int
    message: str = ""


def iterate(triple: OperatorTriple, horizon) -> IterateSystem:
    """Build every iterate T1^i T2^j phi for (i, j) in the horizon box.

    The read-only, C-contiguous synthesis matrix is allocated once, and
    each column block v[:, j] of _linalg.iterate_columns is written into
    its columns j, j + (L2+1), ...: no grid, no transposed copy.
    Refuses to run past desk scale: an operator dimension the desk guard
    refuses (desk_guard) or horizon boxes with 1e5 or more columns.
    """
    horizon = _as_degree(horizon)
    l1, l2 = horizon
    ncols = (l1 + 1) * (l2 + 1)
    desk_guard("operator", triple.dim)
    if ncols >= COLS_LIMIT:
        raise GuardError(f"horizon box has {ncols} columns (guard {COLS_LIMIT})")
    synthesis = np.empty((triple.dim, ncols), dtype=triple.phi.dtype)
    for j, block in enumerate(iterate_columns(triple.T1, triple.T2, triple.phi, l1, l2)):
        synthesis[:, j::l2 + 1] = block.T
    synthesis.flags.writeable = False
    return IterateSystem(triple=triple, horizon=horizon, synthesis=synthesis)


def synthesis_rowspace(sys: IterateSystem) -> np.ndarray:
    """Orthonormal basis of the row space of the synthesis matrix, the
    orthogonal complement of its kernel (ncols x rank).

    Singular values at or below KERNEL_RTOL times the largest count as
    zero; read off the system's cached thin SVD (see
    IterateSystem._rowspace).
    """
    return sys._rowspace


def synthesis_kernel(sys: IterateSystem) -> np.ndarray:
    """Orthonormal basis of the kernel of the synthesis matrix, the
    orthogonal complement of synthesis_rowspace (same rank decision)."""
    return null_space_onb(synthesis_rowspace(sys).conj().T)


def frame_bounds(sys: IterateSystem) -> FrameReport:
    """Extreme eigenvalues of the partial frame operator, with a trace
    over square sub-horizons and a four-way classification.

    The bounds are the squared extreme singular values of the synthesis
    matrix (lower 0 when there are fewer than dim of them); the trace is
    built on the first read of report.bound_trace (see
    IterateSystem.bound_trace).

    Classification precedence: not_frame (lower bound at most rtol times
    the upper), else minimal_frame when the synthesis kernel is trivial,
    else parseval when the frame operator is the identity to rtol, else
    frame.  Bound-trace entries are nondecreasing in the horizon because
    partial frame operators grow in the positive-semidefinite order.

    Each call builds a new report, equal to the last, in O(dim) from the
    system's cached SVD (see _report).
    """
    return _report(sys, sys.svd[1])


def _report(sys: IterateSystem, s: np.ndarray) -> FrameReport:
    """The frame report of sys from the singular values s of its synthesis
    matrix, in descending order.  The frame operator U U^H has their
    squares as its nonzero eigenvalues; with fewer than dim of them it is
    singular.  The class is read off s_min / s_max, which is scale free;
    the squared bounds saturate to inf or 0.0, and never raise."""
    s_max = float(s[0]) if s.size else 0.0
    s_min = float(s[-1]) if s.size == sys.triple.dim else 0.0
    upper, lower = s_max * s_max, s_min * s_min
    kernel_dim = sys.ncols - int(np.count_nonzero(rank_mask(s)))

    if s_max == 0.0 or (s_min / s_max) ** 2 <= CLASS_RTOL:
        classification = "not_frame"
    elif kernel_dim == 0:
        classification = "minimal_frame"
    # the frame operator is Hermitian: ||S - I|| is the largest
    # distance of an eigenvalue from 1
    elif max(abs(lower - 1.0), abs(upper - 1.0)) <= CLASS_RTOL:
        classification = "parseval"
    else:
        classification = "frame"

    return FrameReport(
        lower=lower,
        upper=upper,
        classification=classification,
        kernel_dim=kernel_dim,
        system=sys,
    )


def _coordinate_kernel(sys: IterateSystem):
    """(kernel, modulus) as boolean and float grids over the horizon box
    when the synthesis matrix is coordinate (see
    IterateSystem._coordinate_entries), else None.

    The kernel is then the coordinate span of the columns outside the
    rank set, the leading rank() columns of the system's coordinate
    order (IterateSystem.coordinate_rows): its SVD is the sorted
    |entries|, so the system's one rank decision picks the set.  modulus
    holds each column's |entry|.
    """
    hits = sys._coordinate_entries
    if hits is None:
        return None
    shape = (sys.horizon.d1 + 1, sys.horizon.d2 + 1)
    kernel = np.ones(sys.ncols, dtype=bool)
    kernel[sys.coordinate_rows(sys.rank())] = False
    return kernel.reshape(shape), np.abs(hits[1]).reshape(shape)


def _block_gap(sys: IterateSystem, kernel: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(gap, values): the gap from the row space of sys, of rank dim, to
    the coordinate row space of dim columns, those outside the boolean
    mask kernel, and the singular values of sys, by dim x dim work; None
    where moved_frame_report falls back.  Nothing is cached.

    With B = U[:, ~kernel] invertible, U = B [I | X] up to the column
    order, X = B^-1 U[:, kernel], so the row space of U is that of
    [I | X], at largest principal angle arctan ||X|| from the coordinate
    one, and the gap is sin(arctan s) = s / sqrt(1 + s^2) with
    s = ||X||, the square root of the largest eigenvalue of
    G = B^-1 U_K U_K^H B^-H.  B and U_K are each rescaled as opnorm
    rescales (_rescaled), so that G neither underflows nor overflows on
    a synthesis matrix of any scale; X is the same for U and for c U.
    And U U^H = B (I + G) B^H = (B C)(B C)^H with C the Cholesky factor
    of I + G, so U has the singular values of B C.  Falls back (None)
    when B is exactly singular, when s > 1, where the rounding of this
    route grows with ||C||, or when the values give a rank below dim.
    """
    b = sys.synthesis[:, ~kernel]
    b_scaled, b_top = _rescaled(b)
    try:
        b_inv = np.linalg.inv(b_scaled)
    except np.linalg.LinAlgError:
        return None
    u_k, u_top = _rescaled(sys.synthesis[:, kernel])
    ratio = u_top / b_top  # X = ratio B_scaled^-1 u_k
    g = b_inv @ (u_k @ u_k.conj().T) @ b_inv.conj().T
    sigma = ratio * math.sqrt(max(float(np.linalg.eigvalsh(g)[-1]), 0.0))
    if not sigma <= 1.0:
        return None
    c = np.linalg.cholesky(np.eye(sys.triple.dim) + (ratio * ratio) * g)
    values = np.linalg.svd(b @ c, compute_uv=False)
    if not rank_mask(values).all():
        return None
    return sigma / math.sqrt(1.0 + sigma * sigma), values


def rowspace_gap(a: IterateSystem, b: IterateSystem) -> float:
    """Gap ||P_a - P_b|| between the row spaces of two systems over the
    same horizon, which is also the gap between their synthesis kernels,
    since each kernel projector is I minus the row-space one.

    Row spaces of unequal rank are exactly 1.0 apart (Bjorck & Golub,
    Math. Comp. 27, 1973), with no products.  At equal rank, two
    coordinate systems (see _coordinate_kernel) have coordinate row
    spaces, so the gap is 0.0 when their rank sets agree and 1.0 when
    they differ; other systems take the one term ||(I - P_a) Q_b||.
    """
    if a.rank() != b.rank():
        return 1.0
    grid_a, grid_b = _coordinate_kernel(a), _coordinate_kernel(b)
    if grid_a is not None and grid_b is not None:
        return 0.0 if np.array_equal(grid_a[0].ravel(), grid_b[0].ravel()) else 1.0
    qa, qb = synthesis_rowspace(a), synthesis_rowspace(b)
    return opnorm(qb - qa @ (qa.conj().T @ qb))


def moved_frame_report(base: IterateSystem, moved: IterateSystem) -> tuple[float, FrameReport]:
    """(rowspace_gap(base, moved), frame_bounds(moved)), the one comparison
    of a moved system with its base over the same horizon.

    When base is coordinate with rank dim and moved is not coordinate,
    both come from moved's dim x dim block on the base's rank set
    (_block_gap, the tan theta identity of Bjorck & Golub, Math. Comp.
    27, 1973), with no factorisation of moved's synthesis matrix;
    otherwise, or when that route falls back, from the two calls.  The
    result does not depend on what was read of either system before.
    """
    grid = _coordinate_kernel(base)
    if (grid is not None and moved._coordinate_entries is None
            and base.rank() == base.triple.dim):
        block = _block_gap(moved, grid[0].ravel())
        if block is not None:
            return block[0], _report(moved, block[1])
    return rowspace_gap(base, moved), frame_bounds(moved)


def kernel_shift_invariance(sys: IterateSystem) -> KernelInvarianceReport:
    """How far the synthesis kernel is from being shift-invariant.

    Kernel vectors supported on the sub-box (L1-1, L2-1) are shifted by
    the horizon-box coordinate shifts (degree-safe by the support
    restriction) and pushed through the synthesis matrix; for any frame
    system the result vanishes.  The residual is the operator norm of
    U R P over that subspace (R a shift, P the projector onto the kernel
    vectors supported on the sub-box), which does not depend on a choice
    of basis.  A kernel supported only on the outer rim leaves nothing to
    check, which is reported as inconclusive.

    For a coordinate synthesis matrix, U R P has orthogonal columns with
    one entry each, so the residual is exactly the largest |entry| among
    the shifted kernel columns (0.0 when all are zero), with no
    factorisation.
    """
    if sys.rank() == sys.ncols:
        return KernelInvarianceReport(
            residual=0.0, vacuous=True, inconclusive=False, n_checked=0,
            message="kernel is trivial; nothing to test",
        )
    grids = _coordinate_kernel(sys)
    if grids is not None:
        kernel, mod = grids
        tested = kernel[:-1, :-1]
        n_checked = int(np.count_nonzero(tested))
        # R e_(i,j) is e_(i+1,j) or e_(i,j+1), so U R P has one entry per
        # column, on distinct rows
        moved = np.concatenate([mod[1:, :-1][tested], mod[:-1, 1:][tested]])
        residual = float(moved.max(initial=0.0))
    else:
        ideg, jdeg = sys.box_space.degree_grid()
        keep = (ideg <= sys.horizon.d1 - 1) & (jdeg <= sys.horizon.d2 - 1)
        v, n_checked = masked_complement(synthesis_rowspace(sys), keep)
        residual = 0.0
        if n_checked:
            for axis in ("z", "w"):
                # U R moves U's columns: (U R)^T = R^* U^T
                moved = shift_rows(sys.synthesis.T, sys.horizon, axis, adjoint=True).T[:, keep]
                moved -= (moved @ v) @ v.conj().T
                residual = max(residual, opnorm(moved))
    if n_checked == 0:
        return KernelInvarianceReport(
            residual=float("nan"), vacuous=False, inconclusive=True, n_checked=0,
            message="kernel supported only on the outer rim; enlarge horizon",
        )
    return KernelInvarianceReport(
        residual=residual,
        vacuous=False,
        inconclusive=False,
        n_checked=n_checked,
    )


def kernel_doubly_commutes(sys: IterateSystem) -> KernelCommuteReport:
    """Double-commutation test for the shifts compressed to the kernel.

    Same structure as the submodule test: the commutator of the
    compressed z-shift with the adjoint of the compressed w-shift is
    applied to kernel vectors supported on the interior sub-box
    (i <= L1-1, j >= 1), and mirrored for the other order.  A trivial
    kernel is vacuously true.  The residuals are computed from the row
    space, the kernel's complement (see compressed_commutator_residual).
    A coordinate system puts it on the kernel's index set, read off the
    system (IterateSystem.coordinate_rows), residuals exactly 0.0 or 1.0.
    """
    if sys.rank() == sys.ncols:
        return KernelCommuteReport(
            residual=0.0, verdict=True, vacuous=True, inconclusive=False,
            residual_z=0.0, residual_w=0.0, n_checked=0,
            message="trivial kernel; vacuously true",
        )
    (rz, nz), (rw, nw) = compressed_commutator_residual(
        synthesis_rowspace(sys), sys.horizon, sys.coordinate_rows(sys.rank()))
    if nz == 0 and nw == 0:
        return KernelCommuteReport(
            residual=float("nan"), verdict=False, vacuous=False, inconclusive=True,
            residual_z=float("nan"), residual_w=float("nan"), n_checked=0,
            message="kernel supported only on the outer rim; enlarge horizon",
        )
    residual = max(rz, rw)
    return KernelCommuteReport(
        residual=float(residual),
        verdict=bool(residual <= COMMUTE_TOL),
        vacuous=False,
        inconclusive=False,
        residual_z=float(rz),
        residual_w=float(rw),
        n_checked=nz + nw,
    )
