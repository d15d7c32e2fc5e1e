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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import compress, guard_norm, null_space_onb, opnorm
from .frames import (
    GuardError,
    IterateSystem,
    OperatorTriple,
    PreconditionError,
    frame_bounds,
    synthesis_rowspace,
)
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
    with its extreme singular values and the intertwining residuals
    ||L T1 - T1' L||, ||L T2 - T2' L|| and ||L phi - phi'||.

    differences holds L T1 - T1' L and L T2 - T2' L, each with its
    guard_norm against WITNESS_TOL, which is what certified reads."""

    L: np.ndarray
    sigma_min: float
    sigma_max: float
    residual_phi: float
    differences: tuple = field(repr=False, compare=False)

    @cached_property
    def residual_T1(self) -> float:
        """||L T1 - T1' L||, spectral norm, taken on first read if not known."""
        d, norm = self.differences[0]
        return opnorm(d) if norm is None else norm

    @cached_property
    def residual_T2(self) -> float:
        """||L T2 - T2' L||, spectral norm, taken on first read if not known."""
        d, norm = self.differences[1]
        return opnorm(d) if norm is None else norm

    @property
    def cond(self) -> float:
        return self.sigma_max / self.sigma_min if self.sigma_min > 0 else np.inf

    @property
    def certified(self) -> bool:
        return (
            self.sigma_min > 0
            and all(norm is None or norm <= WITNESS_TOL for _, norm in self.differences)
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
    PreconditionError.  The triple takes the comm_residual quotient()
    computed on these very arrays, so the pair is not multiplied again.
    """
    if quot.trivial:
        raise PreconditionError("trivial quotient has no operator triple")
    return OperatorTriple._checked(quot.jordan_z, quot.jordan_w, quot.seed, quot.comm_residual,
                                   None)


def _conjugate(l: np.ndarray, *ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """L a L^-1 for each a of ops, without forming the inverse: one solve
    against L^H, so one LU, on the products (L a)^H side by side."""
    n = l.shape[0]
    rhs = np.concatenate([(l @ a).conj().T for a in ops], axis=1)
    x = np.linalg.solve(l.conj().T, rhs)
    return tuple(x[:, i * n:(i + 1) * n].conj().T for i in range(len(ops)))


def _witness_differences(l, source: OperatorTriple, t1, t2, phi) -> tuple[np.ndarray, ...]:
    """L T1 - T1' L, L T2 - T2' L and L phi - phi' for a witness L from
    source to (T1', T2', phi'): two products per operator, no solve."""
    return l @ source.T1 - t1 @ l, l @ source.T2 - t2 @ l, l @ source.phi - phi


def certify_similarity(l, source: OperatorTriple, target: OperatorTriple,
                       svals=None) -> SimilarityWitness:
    """Residuals of the similarity equations for a candidate witness.

    The equations are checked in intertwining form, L T = T' L and
    L phi = phi', so a witness is certified by what it does and not by a
    recomputation of the conjugated triple; an operator residual whose
    Frobenius norm clears WITNESS_TOL takes no spectral norm until read
    (_linalg.guard_norm).  svals, the singular values of l in descending
    order, spare a second SVD when the caller has them.
    """
    l = np.asarray(l, dtype=np.complex128)
    if l.shape != (source.dim, source.dim):
        raise ValueError(f"witness shape {l.shape} does not match dim {source.dim}")
    if svals is None:
        svals = np.linalg.svd(l, compute_uv=False)
    d1, d2, d_phi = _witness_differences(l, source, target.T1, target.T2, target.phi)
    return SimilarityWitness(
        L=l,
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        residual_phi=float(np.linalg.norm(d_phi)),
        differences=tuple((d, guard_norm(d, WITNESS_TOL)) for d in (d1, d2)),
    )


def _singular(svals) -> bool:
    """Whether a map with singular values svals (descending) is numerically
    singular: s0 is 0 or the smallest is at most 1e-14 s0."""
    return svals[0] == 0.0 or svals[-1] <= 1e-14 * svals[0]


def transport(triple: OperatorTriple, l, condition_cap: float = CONDITION_GUARD,
              svals=None):
    """Conjugate a triple by an invertible map.

    Returns (new_triple, witness).  Numerically singular maps are
    rejected; condition numbers beyond the cap trip the guard.  The
    witness is certified against the new triple by its intertwining
    residuals.  svals, the singular values of l in descending order (as
    random_similarity returns them), spare the SVD taken here otherwise.
    """
    l = np.asarray(l, dtype=np.complex128)
    if l.shape != (triple.dim, triple.dim):
        raise ValueError(f"map shape {l.shape} does not match dim {triple.dim}")
    if svals is None:
        svals = np.linalg.svd(l, compute_uv=False)
    if _singular(svals):
        raise ValueError("similarity map is numerically singular")
    smin, smax = float(svals[-1]), float(svals[0])
    if smax / smin > condition_cap:
        raise GuardError(
            f"condition number {smax / smin:.3e} beyond cap {condition_cap:.1e}"
        )
    t1, t2 = _conjugate(l, triple.T1, triple.T2)
    new = OperatorTriple(T1=t1, T2=t2, phi=l @ triple.phi)
    return new, certify_similarity(l, triple, new, svals)


def estimate_similarity(source: IterateSystem, target: IterateSystem) -> np.ndarray:
    """Witness candidate from the two synthesis matrices alone.

    Any similarity carrying one system onto the other must map iterate to
    iterate, so it solves L U_source = U_target; for a frame system the
    least-squares solution is the unique one.  It is U_target times the
    pseudoinverse of U_source, formed from the source's cached SVD with
    the cutoff of numpy.linalg.pinv (singular values above 1e-15 times
    the largest).  For a coordinate source the kept rows of Vh are
    coordinate vectors, whose rows the source records
    (IterateSystem.coordinate_rows, sliced at that cutoff), so U_target
    Vh^H is a gather of target columns, with no product and no scan.
    """
    if source.horizon != target.horizon:
        raise ValueError("systems must share a horizon")
    u, s, vh = source.svd
    keep = s > 1e-15 * s.max(initial=0.0)
    rows = source.coordinate_rows(np.count_nonzero(keep))
    if rows is None:
        block = target.synthesis @ vh[keep].conj().T
    else:
        # C order, like the product, as the rounding below follows the layout
        block = np.ascontiguousarray(target.synthesis[:, rows])
    return (block / s[keep]) @ u[:, keep].conj().T


def random_similarity(dim: int, rng: np.random.Generator,
                      condition_cap: float = 1e3, *, return_svals: bool = False):
    """Seeded random invertible map of the form I + eps G.

    eps is scaled from the spectral norm of G so the perturbation stays
    strictly contractive, which keeps the condition number far below any
    reasonable cap; the cap is still enforced for tiny dimensions.  With
    return_svals, returns (L, singular values of L in descending order),
    which transport and uniqueness_of_L take instead of an SVD of their
    own.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    scale = float(rng.uniform(0.2, 0.9))
    l = np.eye(dim, dtype=np.complex128) + (scale / opnorm(g)) * g
    svals = np.linalg.svd(l, compute_uv=False)
    if svals[0] / svals[-1] > condition_cap:
        raise GuardError("sampled map exceeded the condition cap")
    return (l, svals) if return_svals else l


def recover_model(sys: IterateSystem) -> ModelRecovery:
    """Reconstruct the quotient-shaped model behind a frame system.

    Requires a frame system, else raises PreconditionError.  A frame has
    dim singular values, all above sqrt(CLASS_RTOL) > KERNEL_RTOL times
    the largest: so at least dim columns, and full rank dim.  The
    recovered quotient is the row space of the synthesis matrix, read off
    the system's cached SVD, and _linalg.compress gives its compressed
    shifts and seed: index maps on the rows the system records for a
    coordinate row space (IterateSystem.coordinate_rows).  The
    intertwining residuals are evaluated on complement vectors supported
    away from the horizon edge, where the box shifts are exact.
    """
    if not frame_bounds(sys).is_frame:
        raise PreconditionError("recovery needs a frame system")

    k_onb = synthesis_rowspace(sys)
    rank = k_onb.shape[1]
    svals = sys.svd[1]
    w = sys.synthesis @ k_onb
    cond_w = float(svals[0] / svals[rank - 1])

    jordan_z, jordan_w, seed_coords = compress(k_onb, sys.horizon, sys.coordinate_rows(rank))

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


def uniqueness_of_L(sys: IterateSystem, l1, l2, target: OperatorTriple | None = None,
                    svals=None) -> UniquenessReport:
    """Distance between two certified witnesses for the same similarity.

    The common target triple is derived from the first witness, which
    therefore satisfies it by construction; the second is certified
    against it by its intertwining residuals.  For frame systems the
    intertwining equations pin the witness down on the closed span of the
    iterates, so certified witnesses must coincide.  A system that is not
    a frame, a singular witness, or a second witness that is not
    certified is a false precondition (PreconditionError).

    target, the triple l1 carries the system's triple onto (as transport
    returns it), spares conjugating again; svals, the singular values of
    l1 in descending order, spare its SVD.  The second witness takes no
    SVD when Weyl's bounds, its singular values within d = ||l1 - l2|| of
    l1's, clear the singularity test by a factor of 2, and an operator
    residual takes no spectral norm when its Frobenius norm, which bounds
    it from above, clears WITNESS_TOL (_linalg.guard_norm); the refusal
    names the largest residual.
    """
    report = frame_bounds(sys)
    if not report.is_frame:
        raise PreconditionError("witness uniqueness requires a frame system")
    l1 = np.asarray(l1, dtype=np.complex128)
    l2 = np.asarray(l2, dtype=np.complex128)
    if svals is None:
        svals = np.linalg.svd(l1, compute_uv=False)
    distance = opnorm(l1 - l2)
    if _singular(svals):
        raise PreconditionError("first witness is numerically singular")
    # Weyl: each singular value of l2 lies within distance of l1's
    weyl_clear = svals[-1] - distance > 2e-14 * (svals[0] + distance)
    if not weyl_clear and _singular(np.linalg.svd(l2, compute_uv=False)):
        raise PreconditionError("second witness is numerically singular")
    source = sys.triple
    if target is None:
        moved = (*_conjugate(l1, source.T1, source.T2), l1 @ source.phi)
    else:
        moved = (target.T1, target.T2, target.phi)
    *differences, d_phi = _witness_differences(l2, source, *moved)
    norms = [guard_norm(d, WITNESS_TOL) for d in differences]
    worst = max([float(np.linalg.norm(d_phi))] + [n for n in norms if n is not None])
    if worst > WITNESS_TOL:
        raise PreconditionError(
            f"second witness not certified: residual {worst:.3e} > {WITNESS_TOL:.1e}"
        )
    return UniquenessReport(distance=distance, certified=True)
