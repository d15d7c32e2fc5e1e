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

Each system factorises its synthesis matrix once: one thin SVD, cached
on the system, gives the rank, the kernel dimension and the row space,
and the frame report is cached beside it.  iterate() marks the arrays
read-only, so neither cache can go stale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._linalg import (
    compressed_commutator_residual,
    hermitian_extremes,
    iterate_grid,
    masked_complement,
    null_space_onb,
    opnorm,
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


class PreconditionError(ValueError):
    """The hypothesis of a mathematical test is false for its input (for
    example "not a frame"); the runner records it as that check's FAIL."""


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
            raise PreconditionError(f"operators do not commute: residual {comm:.3e}")
        object.__setattr__(self, "T1", t1)
        object.__setattr__(self, "T2", t2)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "comm_residual", float(comm))


@dataclass(frozen=True)
class IterateSystem:
    """All iterates of the seed inside a horizon box, plus their synthesis
    matrix (dim x n_columns, columns in row-major horizon order).

    The thin SVD of the synthesis matrix and the frame report are
    computed on first use and cached on the system; iterate() makes both
    arrays read-only so the caches stay valid.
    """

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

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, singular values, Vh): the thin SVD of the synthesis matrix,
        taken once per system."""
        return tuple(np.linalg.svd(self.synthesis, full_matrices=False))

    def rank(self) -> int:
        """Numerical rank of the synthesis matrix: the singular values
        above KERNEL_RTOL times the largest (0 for a zero matrix)."""
        s = self.svd[1]
        smax = s[0] if s.size else 0.0
        return int(np.sum(s > KERNEL_RTOL * smax)) if smax > 0.0 else 0

    @cached_property
    def _frame_report(self) -> "FrameReport":
        """The report frame_bounds returns, built on first read."""
        dim = self.triple.dim
        trace = []
        for h in range(min(self.horizon) + 1):
            # iterates (i, j) with i, j <= h, as rows in row-major order
            block = self.vectors[: h + 1, : h + 1].reshape(-1, dim)
            lo, hi = hermitian_extremes(block.T @ block.conj())
            trace.append((h, max(lo, 0.0), max(hi, 0.0)))

        u = self.synthesis
        lower, upper = hermitian_extremes(u @ u.conj().T)
        lower, upper = max(lower, 0.0), max(upper, 0.0)
        kernel_dim = self.ncols - self.rank()

        if upper <= 0.0 or lower <= CLASS_RTOL * upper:
            classification = "not_frame"
            if upper <= 0.0:
                lower = upper = 0.0
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
            bound_trace=tuple(trace),
        )


@dataclass(frozen=True)
class FrameReport:
    """Spectral summary of a (partial) frame operator."""

    lower: float
    upper: float
    classification: str  # not_frame | frame | parseval | minimal_frame
    kernel_dim: int
    bound_trace: tuple  # ((h, lower, upper), ...) over square sub-horizons
    rtol: ClassVar[float] = CLASS_RTOL

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

    Each vector costs one matrix application (see iterate_grid).  Both
    arrays of the result are read-only.  Refuses to run past desk scale:
    operator dimension >= BDF_MAX_DIM (default 2000) or horizon boxes with
    1e5 or more columns.
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
    vectors = iterate_grid(triple.T1, triple.T2, triple.phi, l1, l2)
    synthesis = vectors.reshape(ncols, triple.dim).T.copy()
    vectors.flags.writeable = False
    synthesis.flags.writeable = False
    return IterateSystem(
        triple=triple, horizon=horizon, vectors=vectors, synthesis=synthesis
    )


def synthesis_rowspace(sys: IterateSystem) -> np.ndarray:
    """Orthonormal basis of the row space of the synthesis matrix, the
    orthogonal complement of its kernel (ncols x rank).

    Singular values at or below KERNEL_RTOL times the largest count as
    zero; read off the system's cached thin SVD.
    """
    return sys.svd[2][: sys.rank()].conj().T


def synthesis_kernel(sys: IterateSystem) -> np.ndarray:
    """Orthonormal basis of the kernel of the synthesis matrix, the
    orthogonal complement of synthesis_rowspace (same rank decision)."""
    return null_space_onb(synthesis_rowspace(sys).conj().T)


def frame_bounds(sys: IterateSystem) -> FrameReport:
    """Extreme eigenvalues of the partial frame operator, with a trace
    over square sub-horizons and a four-way classification.

    Classification precedence: not_frame (lower bound below rtol times
    the upper), else minimal_frame when the synthesis kernel is trivial,
    else parseval when the frame operator is the identity to rtol, else
    frame.  Bound-trace entries are nondecreasing in the horizon because
    partial frame operators grow in the positive-semidefinite order.

    The report is built once per system and cached on it: repeated calls
    return the same object.
    """
    return sys._frame_report


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
