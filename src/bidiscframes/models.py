"""Similarity transport of operator triples and recovery of the quotient
model behind a frame.

Two triples are similar when a single invertible map conjugates both
operators and carries one seed to the other.  Transport builds the
conjugated triple together with a witness record; recovery runs the
other way, reading the model off the synthesis matrix: its kernel
determines the relation space, the orthogonal complement plays the role
of the quotient, and the synthesis restricted to that complement is the
similarity that intertwines the compressed shifts with the pair that
generated the frame.  For a frame system that map is invertible and is
the only certified witness between the two triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import null_space_onb, opnorm
from .frames import (
    GuardError,
    IterateSystem,
    OperatorTriple,
    PreconditionError,
    frame_bounds,
    synthesis_rowspace,
)
from .hardy import shift_rows
from .submodule import QuotientModel

__all__ = [
    "SimilarityWitness",
    "ModelRecovery",
    "UniquenessReport",
    "triple_from_quotient",
    "certify_similarity",
    "transport",
    "estimate_similarity",
    "random_similarity",
    "recover_model",
    "uniqueness_of_L",
]

WITNESS_TOL = 1e-8
CONDITION_GUARD = 1e6


@dataclass(frozen=True)
class SimilarityWitness:
    """An invertible map claimed to conjugate one triple onto another,
    with the verification residuals."""

    L: np.ndarray
    sigma_min: float
    sigma_max: float
    residual_T1: float
    residual_T2: float
    residual_phi: float

    @property
    def cond(self) -> float:
        return self.sigma_max / self.sigma_min if self.sigma_min > 0 else np.inf

    @property
    def certified(self) -> bool:
        return (
            self.sigma_min > 0
            and self.residual_T1 <= WITNESS_TOL
            and self.residual_T2 <= WITNESS_TOL
            and self.residual_phi <= WITNESS_TOL
        )


@dataclass(frozen=True)
class ModelRecovery:
    """Quotient-shaped model read off a frame's synthesis matrix."""

    k_onb: np.ndarray       # complement of the kernel (the recovered quotient)
    k_dim: int
    W: np.ndarray           # synthesis restricted to the complement; invertible
    jordan_z: np.ndarray    # compressed horizon shifts on the complement
    jordan_w: np.ndarray
    intertwine_residual_z: float
    intertwine_residual_w: float
    residual_phi: float
    cond_W: float

    @property
    def kernel_onb(self) -> np.ndarray:
        """Orthonormal basis of the relations among the iterates (the
        synthesis kernel, in horizon coordinates), built on each read as
        the complement of k_onb."""
        return null_space_onb(self.k_onb.conj().T)


@dataclass(frozen=True)
class UniquenessReport:
    distance: float
    certified: bool


def triple_from_quotient(quot: QuotientModel) -> OperatorTriple:
    """Package the compressed shifts and the seed as an operator triple.

    A trivial quotient (the submodule fills the box) has no triple: that
    is a false precondition of every check that iterates, raised as
    PreconditionError.
    """
    if quot.trivial:
        raise PreconditionError("trivial quotient has no operator triple")
    return OperatorTriple(T1=quot.jordan_z, T2=quot.jordan_w, phi=quot.seed)


def _conjugate(l: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L a L^-1 without forming the inverse."""
    return np.linalg.solve(l.conj().T, (l @ a).conj().T).conj().T


def certify_similarity(l, source: OperatorTriple, target: OperatorTriple) -> SimilarityWitness:
    """Residuals of the similarity equations for a candidate witness."""
    l = np.asarray(l, dtype=np.complex128)
    if l.shape != (source.dim, source.dim):
        raise ValueError(f"witness shape {l.shape} does not match dim {source.dim}")
    svals = np.linalg.svd(l, compute_uv=False)
    return SimilarityWitness(
        L=l,
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        residual_T1=opnorm(_conjugate(l, source.T1) - target.T1),
        residual_T2=opnorm(_conjugate(l, source.T2) - target.T2),
        residual_phi=float(np.linalg.norm(l @ source.phi - target.phi)),
    )


def transport(triple: OperatorTriple, l, condition_cap: float = CONDITION_GUARD):
    """Conjugate a triple by an invertible map.

    Returns (new_triple, witness).  Numerically singular maps are
    rejected; condition numbers beyond the cap trip the guard.
    """
    l = np.asarray(l, dtype=np.complex128)
    if l.shape != (triple.dim, triple.dim):
        raise ValueError(f"map shape {l.shape} does not match dim {triple.dim}")
    svals = np.linalg.svd(l, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smax == 0.0 or smin <= 1e-14 * smax:
        raise ValueError("similarity map is numerically singular")
    if smax / smin > condition_cap:
        raise GuardError(
            f"condition number {smax / smin:.3e} beyond cap {condition_cap:.1e}"
        )
    new = OperatorTriple(
        T1=_conjugate(l, triple.T1),
        T2=_conjugate(l, triple.T2),
        phi=l @ triple.phi,
    )
    return new, certify_similarity(l, triple, new)


def estimate_similarity(source: IterateSystem, target: IterateSystem) -> np.ndarray:
    """Witness candidate from the two synthesis matrices alone.

    Any similarity carrying one system onto the other must map iterate to
    iterate, so it solves L U_source = U_target; for a frame system the
    least-squares solution is the unique one.  It is U_target times the
    pseudoinverse of U_source, formed from the source's cached SVD with
    the cutoff of numpy.linalg.pinv (singular values above 1e-15 times
    the largest).
    """
    if source.horizon != target.horizon:
        raise ValueError("systems must share a horizon")
    u, s, vh = source.svd
    keep = s > 1e-15 * s.max(initial=0.0)
    return (target.synthesis @ vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def random_similarity(dim: int, rng: np.random.Generator,
                      condition_cap: float = 1e3) -> np.ndarray:
    """Seeded random invertible map of the form I + eps G.

    eps is scaled from the spectral norm of G so the perturbation stays
    strictly contractive, which keeps the condition number far below any
    reasonable cap; the cap is still enforced for tiny dimensions.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    scale = float(rng.uniform(0.2, 0.9))
    l = np.eye(dim, dtype=np.complex128) + (scale / opnorm(g)) * g
    svals = np.linalg.svd(l, compute_uv=False)
    if svals[0] / svals[-1] > condition_cap:
        raise GuardError("sampled map exceeded the condition cap")
    return l


def recover_model(sys: IterateSystem) -> ModelRecovery:
    """Reconstruct the quotient-shaped model behind a frame system.

    Requires a frame (classification other than not_frame) and a horizon
    box at least as large as the operator dimension; otherwise raises
    PreconditionError.  The recovered quotient is the row space of the
    synthesis matrix, read off the system's cached SVD.  The intertwining
    residuals are evaluated on complement vectors supported away from the
    horizon edge, where the box shifts are exact.
    """
    report = frame_bounds(sys)
    if not report.is_frame:
        raise PreconditionError("recovery needs a frame system")
    if sys.ncols < sys.triple.dim:
        raise PreconditionError("horizon box smaller than the operator dimension")

    k_onb = synthesis_rowspace(sys)
    rank = k_onb.shape[1]
    if rank != sys.triple.dim:
        raise PreconditionError("recovery failed: enlarge horizon")

    svals = sys.svd[1]
    w = sys.synthesis @ k_onb
    cond_w = float(svals[0] / svals[rank - 1]) if rank else np.inf

    jordan_z = k_onb.conj().T @ shift_rows(k_onb, sys.horizon, "z")
    jordan_w = k_onb.conj().T @ shift_rows(k_onb, sys.horizon, "w")

    ideg, jdeg = sys.box_space.degree_grid()
    l1, l2 = sys.horizon

    def _residual(t, jordan, keep):
        # coordinates, in k_onb, of its span's vectors that vanish off keep
        coords = null_space_onb(k_onb[~keep])
        if coords.shape[1] == 0:
            return 0.0
        return opnorm(t @ w @ coords - w @ jordan @ coords)

    res_z = _residual(sys.triple.T1, jordan_z, ideg <= l1 - 1)
    res_w = _residual(sys.triple.T2, jordan_w, jdeg <= l2 - 1)

    seed_coords = k_onb[0].conj()  # K^H e_(0,0)
    res_phi = float(np.linalg.norm(w @ seed_coords - sys.triple.phi))

    return ModelRecovery(
        k_onb=k_onb,
        k_dim=rank,
        W=w,
        jordan_z=jordan_z,
        jordan_w=jordan_w,
        intertwine_residual_z=float(res_z),
        intertwine_residual_w=float(res_w),
        residual_phi=res_phi,
        cond_W=cond_w,
    )


def uniqueness_of_L(sys: IterateSystem, l1, l2) -> UniquenessReport:
    """Distance between two certified witnesses for the same similarity.

    The common target triple is derived from the first witness; the
    second is certified against it.  For frame systems the intertwining
    equations pin the witness down on the closed span of the iterates,
    so certified witnesses must coincide.  A system that is not a frame,
    or a witness that is singular or not certified, is a false
    precondition (PreconditionError).
    """
    report = frame_bounds(sys)
    if not report.is_frame:
        raise PreconditionError("witness uniqueness requires a frame system")
    l1 = np.asarray(l1, dtype=np.complex128)
    l2 = np.asarray(l2, dtype=np.complex128)
    source = sys.triple
    target_t1 = _conjugate(l1, source.T1)
    target_t2 = _conjugate(l1, source.T2)
    target_phi = l1 @ source.phi

    def _resids(l):
        return (
            opnorm(_conjugate(l, source.T1) - target_t1),
            opnorm(_conjugate(l, source.T2) - target_t2),
            float(np.linalg.norm(l @ source.phi - target_phi)),
        )

    for name, l in (("first", l1), ("second", l2)):
        svals = np.linalg.svd(l, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] <= 1e-14 * svals[0]:
            raise PreconditionError(f"{name} witness is numerically singular")
        bad = [r for r in _resids(l) if r > WITNESS_TOL]
        if bad:
            raise PreconditionError(
                f"{name} witness not certified: residual {max(bad):.3e} > {WITNESS_TOL:.1e}"
            )

    return UniquenessReport(distance=opnorm(l1 - l2), certified=True)
