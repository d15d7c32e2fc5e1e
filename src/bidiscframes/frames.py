"""Frames generated by iterating a commuting operator pair on a seed.

The iterate family {T1^i T2^j phi : (i, j) inside a horizon box} is
collected into a synthesis matrix whose columns follow the same
row-major enumeration as the degree boxes.  Frame bounds come from the
spectrum of the partial frame operator; the kernel of the synthesis
matrix is the space of coefficient relations among the iterates, and
two structural tests probe it: invariance under the coordinate shifts
of the horizon box, and double commutation of their compressions.  Both
work from the row space, the kernel's complement, whose dimension is at
most the operator dimension.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._linalg import (
    compressed_commutator_residual,
    hermitian_extremes,
    masked_complement,
    opnorm,
)
from .hardy import DegreePair, TruncatedSpace, shift_rows, _as_degree

__all__ = [
    "GuardError",
    "InvariantViolation",
    "OperatorTriple",
    "IterateSystem",
    "FrameReport",
    "KernelInvarianceReport",
    "KernelCommuteReport",
    "iterate",
    "synthesis_kernel",
    "synthesis_rowspace",
    "frame_bounds",
    "kernel_shift_invariance",
    "kernel_doubly_commutes",
    "CLASS_RTOL",
    "KERNEL_RTOL",
]

# desk-scale guards; the dimension cap can be lifted via BDF_MAX_DIM
DIM_LIMIT = 2000
COLS_LIMIT = 100_000
CLASS_RTOL = 1e-8
KERNEL_RTOL = 1e-10
COMM_TOL = 1e-10


class GuardError(RuntimeError):
    """A desk-scale or conditioning guard refused the operation."""


class InvariantViolation(RuntimeError):
    """A mathematical property that was asserted failed to hold."""


def _dim_limit() -> int:
    raw = os.environ.get("BDF_MAX_DIM")
    if raw is None:
        return DIM_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"BDF_MAX_DIM must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class OperatorTriple:
    """A commuting pair of operators with a distinguished seed vector.

    Arrays are not copied; treat them as read-only.  Construction fails
    unless the pair commutes to 1e-10 in spectral norm.
    """

    T1: np.ndarray
    T2: np.ndarray
    phi: np.ndarray
    dim: int = field(init=False)
    comm_residual: float = field(init=False)

    def __post_init__(self):
        t1 = np.asarray(self.T1, dtype=np.complex128)
        t2 = np.asarray(self.T2, dtype=np.complex128)
        phi = np.asarray(self.phi, dtype=np.complex128).reshape(-1)
        n = phi.shape[0]
        if t1.shape != (n, n) or t2.shape != (n, n):
            raise ValueError(
                f"operator shapes {t1.shape}, {t2.shape} do not match seed length {n}"
            )
        comm = opnorm(t1 @ t2 - t2 @ t1)
        if comm > COMM_TOL:
            raise ValueError(f"operators do not commute: residual {comm:.3e}")
        object.__setattr__(self, "T1", t1)
        object.__setattr__(self, "T2", t2)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "comm_residual", float(comm))


@dataclass(frozen=True)
class IterateSystem:
    """All iterates of the seed inside a horizon box, plus their synthesis
    matrix (dim x n_columns, columns in row-major horizon order)."""

    triple: OperatorTriple
    horizon: DegreePair
    vectors: np.ndarray  # (L1+1, L2+1, dim)
    synthesis: np.ndarray  # (dim, (L1+1)(L2+1))

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
        self.col_index(i, j)
        return self.vectors[i, j]


@dataclass(frozen=True)
class FrameReport:
    """Spectral summary of a (partial) frame operator."""

    lower: float
    upper: float
    classification: str  # not_frame | frame | parseval | minimal_frame
    kernel_dim: int
    bound_trace: tuple  # ((h, lower, upper), ...) over square sub-horizons
    rtol: float = CLASS_RTOL

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

    def trace_csv_rows(self) -> Iterator[tuple]:
        yield ("horizon", "lower", "upper")
        for h, lo, hi in self.bound_trace:
            yield (h, repr(float(lo)), repr(float(hi)))


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

    Filled by the recurrence v[i+1, 0] = T1 v[i, 0], v[i, j+1] = T2 v[i, j],
    so each vector costs one matrix application.  Refuses to run past desk
    scale: operator dimension >= BDF_MAX_DIM (default 2000) or horizon
    boxes with 1e5 or more columns.
    """
    horizon = _as_degree(horizon)
    l1, l2 = horizon
    ncols = (l1 + 1) * (l2 + 1)
    limit = _dim_limit()
    if triple.dim >= limit:
        raise GuardError(
            f"operator dimension {triple.dim} is at or above the guard {limit}; "
            "set BDF_MAX_DIM to lift"
        )
    if ncols >= COLS_LIMIT:
        raise GuardError(f"horizon box has {ncols} columns (guard {COLS_LIMIT})")
    vectors = np.zeros((l1 + 1, l2 + 1, triple.dim), dtype=np.complex128)
    vectors[0, 0] = triple.phi
    for i in range(l1):
        vectors[i + 1, 0] = triple.T1 @ vectors[i, 0]
    for i in range(l1 + 1):
        for j in range(l2):
            vectors[i, j + 1] = triple.T2 @ vectors[i, j]
    synthesis = vectors.reshape(ncols, triple.dim).T.copy()
    return IterateSystem(
        triple=triple, horizon=horizon, vectors=vectors, synthesis=synthesis
    )


def synthesis_kernel(sys: IterateSystem, rtol: float = KERNEL_RTOL) -> np.ndarray:
    """Orthonormal basis of the kernel of the synthesis matrix.

    Singular values below rtol times the largest are treated as zero.
    """
    u = sys.synthesis
    s = np.linalg.svd(u, compute_uv=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(sys.ncols, dtype=np.complex128)
    rank = int(np.sum(s > rtol * smax))
    _, _, vh = np.linalg.svd(u)
    return vh[rank:].conj().T


def synthesis_rowspace(sys: IterateSystem, rtol: float = KERNEL_RTOL) -> np.ndarray:
    """Orthonormal basis of the row space of the synthesis matrix, the
    orthogonal complement of its kernel (ncols x rank).

    Same rank decision as synthesis_kernel, from a thin SVD.
    """
    _, s, vh = np.linalg.svd(sys.synthesis, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rtol * smax)) if smax > 0.0 else 0
    return vh[:rank].conj().T


def frame_bounds(sys: IterateSystem) -> FrameReport:
    """Extreme eigenvalues of the partial frame operator, with a trace
    over square sub-horizons and a four-way classification.

    Classification precedence: not_frame (lower bound below rtol times
    the upper), else minimal_frame when the synthesis kernel is trivial,
    else parseval when the frame operator is the identity to rtol, else
    frame.  Bound-trace entries are nondecreasing in the horizon because
    partial frame operators grow in the positive-semidefinite order.
    """
    u = sys.synthesis
    dim = sys.triple.dim
    l1, l2 = sys.horizon

    trace = []
    for h in range(min(l1, l2) + 1):
        cols = [sys.col_index(i, j) for i in range(h + 1) for j in range(h + 1)]
        uh = u[:, cols]
        lo, hi = hermitian_extremes(uh @ uh.conj().T)
        trace.append((h, max(lo, 0.0), max(hi, 0.0)))

    s_full = u @ u.conj().T
    lower, upper = hermitian_extremes(s_full)
    lower, upper = max(lower, 0.0), max(upper, 0.0)

    svals = np.linalg.svd(u, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        kernel_dim = sys.ncols
    else:
        kernel_dim = sys.ncols - int(np.sum(svals > KERNEL_RTOL * smax))

    if upper <= 0.0 or lower <= CLASS_RTOL * upper:
        classification = "not_frame"
        if upper <= 0.0:
            lower = upper = 0.0
    elif kernel_dim == 0:
        classification = "minimal_frame"
    elif opnorm(s_full - np.eye(dim)) <= CLASS_RTOL:
        classification = "parseval"
    else:
        classification = "frame"

    return FrameReport(
        lower=lower,
        upper=upper,
        classification=classification,
        kernel_dim=kernel_dim,
        bound_trace=tuple(trace),
    )


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
    """
    rows = synthesis_rowspace(sys)
    if rows.shape[1] == sys.ncols:
        return KernelInvarianceReport(
            residual=0.0, vacuous=True, inconclusive=False, n_checked=0,
            message="kernel is trivial; nothing to test",
        )
    ideg, jdeg = sys.box_space.degree_grid()
    keep = (ideg <= sys.horizon.d1 - 1) & (jdeg <= sys.horizon.d2 - 1)
    v, n_checked = masked_complement(rows, keep)
    if n_checked == 0:
        return KernelInvarianceReport(
            residual=float("nan"), vacuous=False, inconclusive=True, n_checked=0,
            message="kernel supported only on the outer rim; enlarge horizon",
        )
    residual = 0.0
    for axis in ("z", "w"):
        # U R moves U's columns: (U R)^T = R^* U^T
        moved = shift_rows(sys.synthesis.T, sys.horizon, axis, adjoint=True).T[:, keep]
        moved -= (moved @ v) @ v.conj().T
        residual = max(residual, opnorm(moved))
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
    """
    rows = synthesis_rowspace(sys)
    if rows.shape[1] == sys.ncols:
        return KernelCommuteReport(
            residual=0.0, verdict=True, vacuous=True, inconclusive=False,
            residual_z=0.0, residual_w=0.0, n_checked=0,
            message="trivial kernel; vacuously true",
        )
    rz, nz = compressed_commutator_residual(rows, sys.horizon, "z", "w")
    rw, nw = compressed_commutator_residual(rows, sys.horizon, "w", "z")
    if nz == 0 and nw == 0:
        return KernelCommuteReport(
            residual=float("nan"), verdict=False, vacuous=False, inconclusive=True,
            residual_z=float("nan"), residual_w=float("nan"), n_checked=0,
            message="kernel supported only on the outer rim; enlarge horizon",
        )
    residual = max(rz, rw)
    return KernelCommuteReport(
        residual=float(residual),
        verdict=bool(residual <= CLASS_RTOL),
        vacuous=False,
        inconclusive=False,
        residual_z=float(rz),
        residual_w=float(rw),
        n_checked=nz + nw,
    )
