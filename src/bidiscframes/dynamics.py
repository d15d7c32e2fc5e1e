"""Orbit behavior of the adjoint pair, and equivalence of frame vectors.

For a frame of iterates, adjoint orbits (T1*)^i (T2*)^j f must decay:
their square sums against the frame are controlled by the frame bounds.
The forward-orbit analogue under the double-commutation hypothesis is
an open question; the probe here only records evidence and says so.

A second seed generates an equivalent frame exactly when it is the image
of the original seed under an invertible map commuting with both
operators; the synthesis kernels then coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import iterate_grid, opnorm
from .frames import (
    FrameReport,
    InvariantViolation,
    IterateSystem,
    OperatorTriple,
    frame_bounds,
    iterate,
    moved_frame_report,
)

__all__ = [
    "OrbitTrace",
    "adjoint_decay",
    "conjecture_probe",
    "equivalent_frame_vector",
    "equivalent_frame_report",
    "partial_energy",
    "COMMUTE_REQ",
    "DECAY_LEVEL",
]

COMMUTE_REQ = 1e-9
KERNEL_MATCH_TOL = 1e-10
DECAY_LEVEL = 1e-6


@dataclass(frozen=True)
class OrbitTrace:
    """Grid of orbit norms over a horizon box.

    tail_max is the largest norm on the outer rim of the box (the
    computable stand-in for the behavior at infinity); corner is the
    norm at the far corner.  No single limit notion is privileged, so
    both are recorded.
    """

    norms: np.ndarray  # (L1+1, L2+1), real
    direction: str     # "adjoint" | "forward"
    tail_max: float
    corner: float
    decayed: bool
    note: str = ""


def _orbit_norms(a1, a2, f, horizon):
    grid = iterate_grid(a1, a2, f, int(horizon[0]), int(horizon[1]))
    return np.linalg.norm(grid, axis=2)


def _trace(norms, direction, fnorm, note=""):
    rim = 0.0
    if norms.size:
        rim = max(float(norms[-1, :].max()), float(norms[:, -1].max()))
    corner = float(norms[-1, -1])
    return OrbitTrace(
        norms=norms,
        direction=direction,
        tail_max=rim,
        corner=corner,
        decayed=bool(rim <= DECAY_LEVEL * fnorm),
        note=note,
    )


def adjoint_decay(triple: OperatorTriple, f, horizon) -> OrbitTrace:
    """Norms of (T1*)^i (T2*)^j f over the horizon box.

    Callers are expected to have classified the triple's iterate system
    as a frame first; under that hypothesis the rim norms go to zero once
    the horizon passes the truncation scale (exactly zero past the
    nilpotency index for the compressed-shift models).
    """
    f = np.asarray(f).reshape(-1)
    if f.shape[0] != triple.dim:
        raise ValueError("vector length does not match operator dimension")
    norms = _orbit_norms(triple.T1.conj().T, triple.T2.conj().T, f, horizon)
    return _trace(norms, "adjoint", float(np.linalg.norm(f)))


def conjecture_probe(triple: OperatorTriple, f, horizon,
                     kernel_verdict: bool | None = None) -> OrbitTrace:
    """Forward-orbit norms T1^i T2^j f, recorded as evidence only.

    The interesting regime is a kernel that passes the double-commutation
    test; pass that verdict in.  When it is missing or negative the probe
    warns and records anyway.  The output never claims a limit: the
    question whether forward orbits must vanish is open.
    """
    f = np.asarray(f).reshape(-1)
    if f.shape[0] != triple.dim:
        raise ValueError("vector length does not match operator dimension")
    if kernel_verdict is not True:
        warnings.warn(
            "double-commutation hypothesis not verified for this probe; "
            "recording evidence anyway",
            stacklevel=2,
        )
    norms = _orbit_norms(triple.T1, triple.T2, f, horizon)
    return _trace(
        norms, "forward", float(np.linalg.norm(f)),
        note="open conjecture: evidence only, no claim",
    )


def partial_energy(sys: IterateSystem, f, start=(0, 0)) -> float:
    """sum |<iterate(i,j), f>|^2 over the horizon box with (i, j) >= start
    componentwise."""
    f = np.asarray(f).reshape(-1)
    m1, m2 = int(start[0]), int(start[1])
    if m1 < 0 or m2 < 0:
        raise ValueError(f"start {(m1, m2)} must be nonnegative")
    coeffs = sys.vectors[m1:, m2:] @ f.conj()
    return float(np.sum(np.abs(coeffs) ** 2))


def equivalent_frame_vector(triple: OperatorTriple, v, horizon) -> FrameReport:
    """Frame report for the seed V phi over the horizon box; see
    equivalent_frame_report, which this calls on iterate(triple, horizon)."""
    return equivalent_frame_report(iterate(triple, horizon), v)


def equivalent_frame_report(base: IterateSystem, v) -> FrameReport:
    """Frame report for the seed V phi of the base system's triple, over
    the base system's horizon, where V is invertible and commutes with
    both operators.

    Under those hypotheses the new iterates are V applied to the old
    ones, so frame-ness, minimality, and the synthesis kernel are all
    preserved; this is asserted, and violations raise.  Non-commuting or
    singular V is rejected up front with the violated bound.  The base
    system's cached factorisation is reused, the moved system is
    compared with it by moved_frame_report, and the moved triple keeps
    the base triple's checked pair (OperatorTriple.with_seed).
    """
    triple = base.triple
    v = np.asarray(v)
    if v.shape != (triple.dim, triple.dim):
        raise ValueError(f"map shape {v.shape} does not match dim {triple.dim}")
    for name, t in (("T1", triple.T1), ("T2", triple.T2)):
        comm = opnorm(v @ t - t @ v)
        if comm > COMMUTE_REQ:
            raise ValueError(f"map does not commute with {name}: "
                             f"residual {comm:.3e} > {COMMUTE_REQ:.1e}")
    svals = np.linalg.svd(v, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= 1e-12 * svals[0]:
        raise ValueError("map is numerically singular")

    base_report = frame_bounds(base)
    moved = iterate(triple.with_seed(v @ triple.phi), base.horizon)
    # the kernels agree exactly when their complements, the row spaces, do
    gap, moved_report = moved_frame_report(base, moved)

    if base_report.is_frame != moved_report.is_frame or (
        (base_report.kernel_dim == 0) != (moved_report.kernel_dim == 0)
    ):
        raise InvariantViolation(
            "frame class not preserved: "
            f"{base_report.classification} -> {moved_report.classification}"
        )
    if gap > KERNEL_MATCH_TOL:
        raise InvariantViolation(
            f"synthesis kernels differ: subspace distance {gap:.3e}"
        )
    return moved_report
