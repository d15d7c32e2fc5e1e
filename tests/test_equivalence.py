"""The small-side subspace tests against dense reference implementations.

The package computes the double-commutation, kernel and quotient tests
from the k-dimensional complement of each subspace, and reads the frame
report, the row space and the recovered model off one cached thin SVD
per iterate system.  Its spanning family has no duplicate columns and is
factorised in real arithmetic when it is real, and the complement comes
out in a canonical form that depends only on the span.  The reference
functions below are the versions those replaced: n x n compressions,
null-space SVDs, projector differences, column-index lists, a full SVD
per recovery, a Jordan sweep that recomputes each iterate, and one full
complex pivoted QR of the family with every duplicate.  They live here
only, as the yardstick: verdicts and counts must agree exactly,
residuals to 1e-12.  The structured submodules (coordinate vectors for
monomials, one-variable factorisations for separable inners) are also
pinned to the package's own dense path, orthonormal_split of the
spanning family, which multi-term generators still take.  A union of
quadrants takes the double-commutation test on its index set; its
section pins that test to the dense reference and to the dense route on
the complement, and checks that it runs no factorisation.  The next
section pins the dtype contract: a real module's chain is float64 from
end to end and agrees with the same quotient cast to complex128.  The
last section pins the small-side spectral steps: opnorm from a Gram
matrix against the SVD norm, the column-at-a-time iterate grid against
one recurrence per vector, and the bound trace, built only when read.
The last section pins the coordinate path of an iterate system (at most
one nonzero entry in every row and column of its synthesis matrix) on
weighted shift pairs: the exact SVD, bound trace and kernel tests
against the dense references, the dense path for one extra entry, and
no factorisation on that path.  The last section pins the small side of
the similarity check: rowspace_gap against subspace_distance, the
estimate from a coordinate source and the index-map quotient of a union
of quadrants against the products they replace, byte for byte, the one
coordinate test against the column test and the axis counts it
replaced, the index routes of compress and compressed_commutator_residual
on coordinate bases against their product routes, the triple of a
quotient against the constructor's, and one SVD of the random map per
check, with no SVD of the second witness, whose refusals keep their
messages, and one LU of the map for both conjugations.  The last section
pins the k x k block of a moved system: its singular values against the
SVD's, a moved_frame_report that does not depend on what was read
before, the one rank rule against the rules it replaced, and no
factorisation of a moved synthesis matrix over a coordinate base in the
similarity and equiv-vector checks.  The last section pins build_inner,
which truncates an inner function in one pass over its axis factors, to
the dict-based truncation it replaced, and checks that its tail bound
covers the distance to a long truncation.
"""

import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bidiscframes
from bidiscframes import runner
from bidiscframes._linalg import (
    canonical_basis,
    compress,
    compressed_commutator_residual,
    coordinate_entries,
    coordinate_rows,
    iterate_grid,
    opnorm,
    orthonormal_split,
    rank_mask,
    subspace_distance,
)
from bidiscframes.fixtures import CATALOG, build_chain
from bidiscframes.frames import (
    CLASS_RTOL,
    KERNEL_RTOL,
    OperatorTriple,
    PreconditionError,
    _block_gap,
    _coordinate_kernel,
    frame_bounds,
    iterate,
    kernel_doubly_commutes,
    kernel_shift_invariance,
    moved_frame_report,
    rowspace_gap,
    synthesis_kernel,
    synthesis_rowspace,
)
from bidiscframes.hardy import BidiscPoly, DegreePair, make_space, shift_matrix, shift_rows
from bidiscframes.inner import InnerPoly, InnerSpec, _factor_series, build_inner
from bidiscframes.models import (
    WITNESS_TOL,
    estimate_similarity,
    random_similarity,
    recover_model,
    transport,
    triple_from_quotient,
    uniqueness_of_L,
)
from bidiscframes.submodule import (
    COMMUTE_TOL,
    _spanning_family,
    beurling_submodule,
    doubly_commute_test,
    generated_submodule,
    jordan_identity_check,
    jordan_identity_residual,
    quotient,
    zero_submodule,
)

TOL = 1e-12

# --- dense reference ----------------------------------------------------


def ref_restrict_to_support(q, keep):
    """Orthonormal basis of span(q) restricted to vectors vanishing off keep."""
    off = ~keep
    if q.shape[1] == 0 or not off.any():
        return q
    ns = scipy.linalg.null_space(q[off, :], rcond=1e-10)
    return q @ ns


def ref_commutator(onb, a, b, keep):
    """||[A_c, B_c^H]|| on span(onb) restricted to keep, via compressions."""
    ac = onb.conj().T @ a @ onb
    bc = onb.conj().T @ b @ onb
    comm = ac @ bc.conj().T - bc.conj().T @ ac
    basis = ref_restrict_to_support(onb, keep)
    if basis.shape[1] == 0:
        return 0.0, 0
    return np.linalg.norm(comm @ (onb.conj().T @ basis), 2), basis.shape[1]


def ref_doubly_commute(onb, space):
    n1, n2 = space.order
    sz, sw = shift_matrix(space, "z"), shift_matrix(space, "w")
    ideg, jdeg = space.degree_grid()
    rz, nz = ref_commutator(onb, sz, sw, (ideg <= n1 - 1) & (jdeg >= 1))
    rw, nw = ref_commutator(onb, sw, sz, (jdeg <= n2 - 1) & (ideg >= 1))
    return rz, nz, rw, nw


def ref_kernel(sys):
    u = sys.synthesis
    s = np.linalg.svd(u, compute_uv=False)
    if s[0] == 0.0:
        return np.eye(sys.ncols, dtype=np.complex128)
    rank = int(np.sum(s > KERNEL_RTOL * s[0]))
    return np.linalg.svd(u)[2][rank:].conj().T


def ref_kernel_invariance(sys):
    """(operator-norm residual, max-column residual, n_checked) or None
    when vacuous; n_checked 0 means inconclusive."""
    kernel = ref_kernel(sys)
    if kernel.shape[1] == 0:
        return None
    box = sys.box_space
    ideg, jdeg = box.degree_grid()
    keep = (ideg <= sys.horizon.d1 - 1) & (jdeg <= sys.horizon.d2 - 1)
    basis = ref_restrict_to_support(kernel, keep)
    if basis.shape[1] == 0:
        return 0.0, 0.0, 0
    images = [sys.synthesis @ shift_matrix(box, ax) @ basis for ax in ("z", "w")]
    op = max(np.linalg.norm(m, 2) for m in images)
    col = max(np.linalg.norm(m, axis=0).max() for m in images)
    return op, col, basis.shape[1]


def ref_kernel_commutes(sys):
    kernel = ref_kernel(sys)
    if kernel.shape[1] == 0:
        return None
    return ref_doubly_commute(kernel, sys.box_space)


def ref_extremes(s):
    vals = np.linalg.eigvalsh(s)
    return float(vals[0]), float(vals[-1])


def ref_frame_bounds(sys):
    """(lower, upper, classification, kernel_dim, bound_trace), with the
    trace's columns picked by col_index lists and the kernel dimension
    from a separate SVD."""
    u = sys.synthesis
    l1, l2 = sys.horizon
    trace = []
    for h in range(min(l1, l2) + 1):
        cols = [sys.col_index(i, j) for i in range(h + 1) for j in range(h + 1)]
        uh = u[:, cols]
        lo, hi = ref_extremes(uh @ uh.conj().T)
        trace.append((h, max(lo, 0.0), max(hi, 0.0)))
    s_full = u @ u.conj().T
    lower, upper = (max(v, 0.0) for v in ref_extremes(s_full))
    svals = np.linalg.svd(u, compute_uv=False)
    if svals[0] == 0.0:
        kernel_dim = sys.ncols
    else:
        kernel_dim = sys.ncols - int(np.sum(svals > KERNEL_RTOL * svals[0]))
    if upper <= 0.0 or lower <= CLASS_RTOL * upper:
        classification = "not_frame"
        if upper <= 0.0:
            lower = upper = 0.0
    elif kernel_dim == 0:
        classification = "minimal_frame"
    elif np.linalg.norm(s_full - np.eye(sys.triple.dim), 2) <= CLASS_RTOL:
        classification = "parseval"
    else:
        classification = "frame"
    return lower, upper, classification, kernel_dim, trace


def ref_recover_model(sys, rtol=1e-10):
    """Model recovery from a full SVD of the synthesis matrix, with the
    intertwining residuals taken on ref_restrict_to_support bases."""
    lower, upper, classification, _, _ = ref_frame_bounds(sys)
    if classification == "not_frame":
        raise ValueError("recovery needs a frame system")
    if sys.ncols < sys.triple.dim:
        raise ValueError("horizon box smaller than the operator dimension")
    u = sys.synthesis
    _, svals, vh = np.linalg.svd(u)
    rank = int(np.sum(svals > rtol * svals[0])) if svals[0] > 0 else 0
    kernel_onb, k_onb = vh[rank:].conj().T, vh[:rank].conj().T
    if rank != sys.triple.dim:
        raise ValueError("recovery failed: enlarge horizon")
    w = u @ k_onb
    box = sys.box_space
    ideg, jdeg = box.degree_grid()
    l1, l2 = sys.horizon
    out = {"k_dim": rank, "k_onb": k_onb, "kernel_onb": kernel_onb,
           "cond_W": float(svals[0] / svals[rank - 1])}
    for axis, t, keep in (("z", sys.triple.T1, ideg <= l1 - 1),
                          ("w", sys.triple.T2, jdeg <= l2 - 1)):
        jordan = k_onb.conj().T @ shift_matrix(box, axis) @ k_onb
        basis = ref_restrict_to_support(k_onb, keep)
        residual = 0.0
        if basis.shape[1]:
            coords = k_onb.conj().T @ basis
            residual = np.linalg.norm(t @ w @ coords - w @ jordan @ coords, 2)
        out[f"intertwine_residual_{axis}"] = residual
    seed_coords = k_onb.conj().T @ box.basis_vector(0, 0)
    out["residual_phi"] = float(np.linalg.norm(w @ seed_coords - sys.triple.phi))
    return out


def ref_jordan_identity_check(quot):
    """The identity swept one (m, n) at a time, each iterate recomputed."""
    n1, n2 = quot.parent.space.order
    p, q = (0, 0)
    if quot.parent.kind == "beurling" and quot.parent.inner is not None:
        p, q = quot.parent.inner.poly.maxdeg
    m_max, n_max = n1 - p - 1, n2 - q - 1
    residuals = [
        jordan_identity_residual(quot, m, n)
        for m in range(max(m_max, 0) + 1)
        for n in range(max(n_max, 0) + 1)
    ]
    return {"max_residual": max(residuals), "degree_box": [m_max, n_max],
            "n_checked": len(residuals)}


def ref_family(sub):
    """The spanning family built one product at a time, with duplicates."""
    gens = (sub.inner.poly,) if sub.kind == "beurling" else sub.generators
    n1, n2 = sub.space.order
    cols = []
    for g in gens:
        p, q = g.maxdeg
        for i in range(n1 - p + 1):
            for j in range(n2 - q + 1):
                cols.append(sub.space.to_vec(BidiscPoly.monomial(i, j) * g))
    return np.column_stack(cols)


def ref_complement(sub):
    """(rank, complement) from a full complex pivoted QR of ref_family."""
    q, r, _ = scipy.linalg.qr(ref_family(sub).astype(np.complex128), mode="full",
                              pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * diag[0]))
    return rank, q[:, rank:]


# --- comparison helpers -------------------------------------------------


def assert_doubly_commute_matches(sub):
    if sub.rank < 1:
        with pytest.raises(ValueError):
            doubly_commute_test(sub)
        return
    rep = doubly_commute_test(sub)
    rz, nz, rw, nw = ref_doubly_commute(sub.onb, sub.space)
    assert (rep.n_interior_z, rep.n_interior_w) == (nz, nw)
    assert rep.residual_z == pytest.approx(rz, abs=TOL)
    assert rep.residual_w == pytest.approx(rw, abs=TOL)
    assert rep.verdict == (max(rz, rw) <= COMMUTE_TOL)


def assert_quotient_matches(sub):
    """The complement spans the dense null space, and the quotient's
    compressed shifts and seed agree in basis-free form; a quotient whose
    dense compressed shifts fail to commute must be refused."""
    q, k = sub.onb, sub.complement
    dense_k = np.eye(sub.space.dim) if sub.rank == 0 else scipy.linalg.null_space(q.conj().T)
    assert k.shape == dense_k.shape
    assert np.abs(k @ k.conj().T - dense_k @ dense_k.conj().T).max() <= TOL
    dense_j = [dense_k.conj().T @ shift_matrix(sub.space, ax) @ dense_k for ax in ("z", "w")]
    comm = np.linalg.norm(dense_j[0] @ dense_j[1] - dense_j[1] @ dense_j[0], 2)
    if comm > 1e-10 and sub.exact:
        with pytest.raises(RuntimeError, match="fail to commute"):
            quotient(sub)
        return
    quot = quotient(sub)
    assert quot.onb_k is k
    assert quot.comm_residual == pytest.approx(comm, abs=TOL)
    for jordan, dense in zip((quot.jordan_z, quot.jordan_w), dense_j):
        assert np.abs(k @ jordan @ k.conj().T - dense_k @ dense @ dense_k.conj().T).max() <= TOL
    e0 = sub.space.basis_vector(0, 0)
    assert np.abs(k @ quot.seed - dense_k @ (dense_k.conj().T @ e0)).max() <= TOL


def assert_kernel_tests_match(sys):
    inv = kernel_shift_invariance(sys)
    ref = ref_kernel_invariance(sys)
    if ref is None:
        assert inv.vacuous and not inv.inconclusive and inv.n_checked == 0
    elif ref[2] == 0:
        assert inv.inconclusive and not inv.vacuous and inv.n_checked == 0
    else:
        op, col, n_checked = ref
        assert not inv.vacuous and not inv.inconclusive
        assert inv.n_checked == n_checked
        assert inv.residual == pytest.approx(op, abs=TOL)
        # the basis-free operator norm bounds the old max-column value
        assert inv.residual >= col - TOL

    com = kernel_doubly_commutes(sys)
    ref = ref_kernel_commutes(sys)
    if ref is None:
        assert com.vacuous and com.verdict and not com.inconclusive
        return
    rz, nz, rw, nw = ref
    if nz == 0 and nw == 0:
        assert com.inconclusive and not com.vacuous and com.n_checked == 0
        return
    assert not com.vacuous and not com.inconclusive
    assert com.n_checked == nz + nw
    assert com.residual_z == pytest.approx(rz, abs=TOL)
    assert com.residual_w == pytest.approx(rw, abs=TOL)
    assert com.verdict == (max(rz, rw) <= CLASS_RTOL)


def assert_factorisation_matches(sys):
    """Frame report, kernel and model recovery read off the cached SVD
    agree with the references."""
    rep = frame_bounds(sys)
    lower, upper, classification, kernel_dim, trace = ref_frame_bounds(sys)
    assert (rep.classification, rep.kernel_dim) == (classification, kernel_dim)
    assert rep.lower == pytest.approx(lower, rel=TOL, abs=TOL)
    assert rep.upper == pytest.approx(upper, rel=TOL, abs=TOL)
    assert [h for h, _, _ in rep.bound_trace] == [h for h, _, _ in trace]
    for (_, lo, hi), (_, ref_lo, ref_hi) in zip(rep.bound_trace, trace):
        assert lo == pytest.approx(ref_lo, rel=TOL, abs=TOL)
        assert hi == pytest.approx(ref_hi, rel=TOL, abs=TOL)

    kernel = synthesis_kernel(sys)
    assert kernel.shape == ref_kernel(sys).shape
    assert subspace_distance(kernel, ref_kernel(sys)) <= TOL

    try:
        ref = ref_recover_model(sys)
    except ValueError as exc:
        with pytest.raises(PreconditionError, match=str(exc)):
            recover_model(sys)
        return
    rec = recover_model(sys)
    assert rec.k_dim == ref["k_dim"]
    assert rec.kernel_onb.shape == ref["kernel_onb"].shape
    assert subspace_distance(rec.k_onb, ref["k_onb"]) <= TOL
    assert subspace_distance(rec.kernel_onb, ref["kernel_onb"]) <= TOL
    assert rec.cond_W == pytest.approx(ref["cond_W"], rel=TOL)
    for key in ("intertwine_residual_z", "intertwine_residual_w", "residual_phi"):
        assert getattr(rec, key) == pytest.approx(ref[key], abs=TOL)


def module_dtype(sub):
    """The dtype of the module's arrays: float64 when every coefficient
    of its inner function or generators is real, or when all of them are
    monomials (whose span a complex coefficient does not change), else
    complex128."""
    gens = (sub.inner.poly,) if sub.kind == "beurling" else sub.generators
    real = all(len(g.coeffs) == 1 for g in gens) or all(
        c.imag == 0 for g in gens for c in g.coeffs.values()
    )
    return np.dtype(np.float64 if real else np.complex128)


def assert_complement_is_canonical(sub, rng):
    """The complement is the reference complement in canonical form, and
    that form does not move when the input basis is rotated."""
    rank, ref = ref_complement(sub)
    k = sub.complement
    assert sub.rank == rank
    assert k.shape == ref.shape and k.dtype == module_dtype(sub)
    assert np.abs(k - canonical_basis(ref)[0]).max(initial=0.0) <= TOL
    dim = k.shape[1]
    u = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    assert np.abs(k - canonical_basis(ref @ u)[0]).max(initial=0.0) <= TOL


def assert_jordan_matches(quot):
    res, ref = jordan_identity_check(quot), ref_jordan_identity_check(quot)
    assert (res["degree_box"], res["n_checked"]) == (ref["degree_box"], ref["n_checked"])
    assert res["max_residual"] == pytest.approx(ref["max_residual"], abs=TOL)


# --- cases ----------------------------------------------------------------


CATALOG_CASES = [
    (fixture, order)
    for fixture in CATALOG
    for order in (None, (6, 6), (12, 12), (9, 5))
]


@pytest.mark.parametrize(
    "fixture,order", CATALOG_CASES,
    ids=[f"{f.name}-{o or 'default'}" for f, o in CATALOG_CASES],
)
def test_catalog_matches_dense_reference(fixture, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # approximate (truncated-inner) modules
        chain = build_chain(fixture, order=order)
        assert_doubly_commute_matches(chain.submodule)
        assert_quotient_matches(chain.submodule)
    if chain.system is not None:
        assert_kernel_tests_match(chain.system)


def random_generated_module(rng):
    order = tuple(int(d) for d in rng.integers(3, 7, size=2))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        coeffs = {}
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(d) for d in rng.integers(0, 3, size=2))
            if (i, j) != (0, 0):
                coeffs[(i, j)] = complex(rng.standard_normal(), rng.standard_normal())
        gens.append(BidiscPoly(coeffs or {(1, 0): 1.0}))
    return generated_submodule(gens, make_space(order))


def invariance_defect(sub):
    """max over the two shifts of ||K^H S Q||: 0 exactly when the span of
    Q is invariant under the truncated shifts."""
    k = sub.complement.conj().T
    return max(
        np.linalg.norm(k @ shift_rows(sub.onb, sub.space.order, ax), 2) for ax in "zw"
    )


@pytest.mark.filterwarnings("ignore:compressed shifts commute")
def test_random_generated_modules_match_dense_reference():
    rng = np.random.default_rng(20260101)
    verdicts = set()
    inexact = 0
    for _ in range(50):
        sub = random_generated_module(rng)
        assert_doubly_commute_matches(sub)
        assert_quotient_matches(sub)
        verdicts.add(doubly_commute_test(sub).verdict)
        if invariance_defect(sub) > 1e-10:
            # a span that is not invariant must not claim to be exact, and
            # its quotient warns instead of raising
            assert not sub.exact
            quotient(sub)
            inexact += 1
    assert verdicts == {True, False}
    assert inexact == 18


def random_system(rng, dim, horizon):
    """Iterates of a random commuting pair: two polynomials in one
    nilpotent matrix, moved by a random similarity."""
    a = np.triu(rng.standard_normal((dim, dim)), 1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    l = np.eye(dim) + 0.5 * g / np.linalg.norm(g, 2)
    linv = np.linalg.inv(l)
    t1 = l @ (a + 0.3 * a @ a) @ linv
    t2 = l @ (0.7 * a - a @ a @ a) @ linv
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return iterate(OperatorTriple(T1=t1, T2=t2, phi=phi), horizon)


@pytest.mark.parametrize(
    "name,order,horizon",
    [
        ("inner-zw", (3, 3), (8, 8)),  # the wide-horizon shape, at toy size
        ("inner-zw", (4, 4), (2, 2)),
        ("inner-z2w", (5, 4), (7, 3)),
        ("inner-w", (6, 6), (4, 9)),
        ("generated-zw", (4, 4), (6, 5)),
        ("blaschke-half", (10, 4), (12, 6)),
        ("riesz-model", (3, 3), (5, 5)),
    ],
)
def test_kernel_tests_off_the_order_match_dense_reference(name, order, horizon):
    fixture = next(f for f in CATALOG if f.name == name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(fixture, order=order, horizon=horizon)
    assert_kernel_tests_match(chain.system)


RANDOM_SYSTEM_CASES = [(3, (4, 4)), (4, (2, 6)), (5, (6, 3)), (6, (1, 1)), (4, (0, 5))]


def test_random_commuting_systems_match_dense_reference():
    rng = np.random.default_rng(7)
    for dim, horizon in RANDOM_SYSTEM_CASES:
        assert_kernel_tests_match(random_system(rng, dim, horizon))


def test_a_frame_system_has_full_rank():
    """A frame has all dim singular values above sqrt(CLASS_RTOL) times the
    largest, and CLASS_RTOL is set so that this is above the KERNEL_RTOL
    rank cut: so every frame system has at least dim columns and rank dim,
    which recover_model relies on instead of checking.  Over the catalog at
    three orders, each with a horizon below, at and above the order, and
    over the random commuting systems."""
    assert math.sqrt(CLASS_RTOL) > KERNEL_RTOL  # makes a frame system full rank
    systems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for order in [(6, 6), (9, 5), (10, 4)]:
            for step in (-2, 0, 2):
                horizon = tuple(max(d + step, 0) for d in order)
                chains = [build_chain(fixture, order, horizon) for fixture in CATALOG]
                systems += [c.system for c in chains if c.system is not None]
    rng = np.random.default_rng(7)
    for dim, horizon in RANDOM_SYSTEM_CASES:
        systems.append(random_system(rng, dim, horizon))
    frames = [sys for sys in systems if frame_bounds(sys).is_frame]
    assert 0 < len(frames) < len(systems)
    for sys in frames:
        assert sys.ncols >= sys.triple.dim and sys.rank() == sys.triple.dim


def test_subspace_distance_matches_projector_difference():
    rng = np.random.default_rng(11)
    for n, k1, k2 in [(12, 3, 3), (12, 4, 2), (9, 0, 3), (7, 7, 7), (10, 5, 5)]:
        q1 = np.linalg.qr(rng.standard_normal((n, k1)) + 1j * rng.standard_normal((n, k1)))[0]
        q2 = np.linalg.qr(q1[:, : min(k1, k2)] + 1e-3 * rng.standard_normal((n, min(k1, k2))))[0]
        if k2 > k1:
            q2 = np.linalg.qr(np.hstack([q2, rng.standard_normal((n, k2 - k1))]))[0]
        dense = np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T, 2) if n else 0.0
        assert subspace_distance(q1, q2) == pytest.approx(dense, abs=TOL)


def test_rowspace_is_kernel_complement():
    rng = np.random.default_rng(3)
    sys = random_system(rng, 5, (4, 4))
    rows, kernel = synthesis_rowspace(sys), ref_kernel(sys)
    assert rows.shape[1] + kernel.shape[1] == sys.ncols
    assert np.linalg.norm(rows.conj().T @ kernel, 2) <= TOL


def test_rowspace_is_one_c_contiguous_copy():
    """synthesis_rowspace returns one read-only, C-contiguous array of its
    own per system, the conjugate transpose of the leading rows of the
    cached Vh: on a real coordinate system and on its complex dense
    transport."""
    base = weighted_shift_system(np.random.default_rng(5), (5, 3), (8, 6))
    for sys in (base, transported(base, 6)):
        rows, vh = synthesis_rowspace(sys), sys.svd[2]
        assert synthesis_rowspace(sys) is rows and not rows.flags.writeable
        assert rows.flags.c_contiguous and rows.flags.owndata
        assert rows.dtype == vh.dtype == sys.synthesis.dtype
        assert rows.tobytes() == vh[: sys.rank()].conj().T.tobytes()


@pytest.mark.parametrize("order", [(0, 0), (3, 0), (2, 4), (5, 5)])
def test_shift_rows_matches_shift_matrix(order):
    space = make_space(order)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
    for axis in ("z", "w"):
        s = shift_matrix(space, axis)
        np.testing.assert_array_equal(shift_rows(x, order, axis), s @ x)
        np.testing.assert_array_equal(shift_rows(x, order, axis, adjoint=True), s.T @ x)
        np.testing.assert_array_equal(shift_rows(x[:, 0], order, axis), s @ x[:, 0])


@pytest.mark.parametrize(
    "fixture,order", CATALOG_CASES,
    ids=[f"{f.name}-{o or 'default'}" for f, o in CATALOG_CASES],
)
def test_catalog_factorisation_matches_reference(fixture, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(fixture, order=order)
    assert_jordan_matches(chain.quotient)
    if chain.system is not None:
        assert_factorisation_matches(chain.system)


@pytest.mark.parametrize(
    "name,order,horizon",
    [
        ("inner-zw", (3, 3), (8, 8)),
        ("inner-zw", (4, 4), (2, 2)),
        ("inner-z2w", (5, 4), (7, 3)),
        ("inner-w", (6, 6), (4, 9)),
        ("generated-zw", (4, 4), (6, 5)),
        ("blaschke-half", (10, 4), (12, 6)),
        ("riesz-model", (3, 3), (5, 5)),
    ],
)
def test_factorisation_off_the_order_matches_reference(name, order, horizon):
    fixture = next(f for f in CATALOG if f.name == name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(fixture, order=order, horizon=horizon)
    assert_factorisation_matches(chain.system)


def test_random_commuting_systems_factorisation_matches_reference():
    rng = np.random.default_rng(7)
    for dim, horizon in RANDOM_SYSTEM_CASES:
        assert_factorisation_matches(random_system(rng, dim, horizon))


def test_frame_report_is_cached_on_a_read_only_system():
    """Each call builds a new report, equal to the last, off the system's
    cached SVD; the synthesis matrix and its view are read-only."""
    sys = random_system(np.random.default_rng(13), 4, (5, 5))
    assert frame_bounds(sys) == frame_bounds(sys)
    with pytest.raises(ValueError, match="read-only"):
        sys.synthesis[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sys.vectors[0, 0, 0] = 1.0
    assert np.shares_memory(sys.vectors, sys.synthesis)


@pytest.mark.filterwarnings("ignore:compressed shifts commute")
def test_random_generated_modules_jordan_sweep_matches_reference():
    """Complex coefficients, so the direct route's conjugation matters.
    Spans that are not invariant at the box edge are swept too: their
    quotients warn instead of raising."""
    rng = np.random.default_rng(20260101)
    for _ in range(30):
        assert_jordan_matches(quotient(random_generated_module(rng)))


CANONICAL_CASES = [
    (fixture, order) for fixture in CATALOG for order in ((6, 6), (12, 12), (9, 5))
    if fixture.kind != "riesz"
]


@pytest.mark.parametrize(
    "fixture,order", CANONICAL_CASES,
    ids=[f"{f.name}-{o}" for f, o in CANONICAL_CASES],
)
def test_catalog_complement_is_canonical(fixture, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sub = fixture.make_submodule(make_space(order))
    assert_complement_is_canonical(sub, np.random.default_rng(17))
    # no residual sits near the edge of a tie window
    assert canonical_basis(sub.complement)[1] >= 1e-6


def test_random_generated_complements_are_canonical():
    rng = np.random.default_rng(20260101)
    for _ in range(50):
        assert_complement_is_canonical(random_generated_module(rng), rng)


@pytest.mark.parametrize(
    "make",
    [
        lambda space: generated_submodule([BidiscPoly.monomial(1, 0),
                                           BidiscPoly.monomial(0, 1)], space),
        lambda space: generated_submodule([BidiscPoly.monomial(2, 1),
                                           BidiscPoly.monomial(0, 3),
                                           BidiscPoly.monomial(1, 2)], space),
        lambda space: next(f for f in CATALOG if f.name == "inner-z2w").make_submodule(space),
        lambda space: next(f for f in CATALOG if f.name == "inner-w").make_submodule(space),
        zero_submodule,
    ],
    ids=["z-w", "z2w-w3-zw2", "inner-z2w", "inner-w", "zero"],
)
@pytest.mark.parametrize("order", [(6, 6), (9, 5)])
def test_monomial_complement_is_sorted_coordinate_vectors(make, order):
    """A module spanned by monomials has the monomials outside it as
    complement; the canonical basis lists them in index order, bytes and
    all (the identity for the zero module)."""
    space = make_space(order)
    sub = make(space)
    gens = (sub.inner.poly,) if sub.kind == "beurling" else sub.generators
    i, j = space.degree_grid()
    inside = np.zeros(space.dim, dtype=bool)
    for g in gens:
        (p, q), = g.coeffs
        inside |= (i >= p) & (j >= q)
    expected = np.eye(space.dim)[:, ~inside]
    assert sub.complement.tobytes() == expected.tobytes()
    assert sub.complement.shape == expected.shape


def test_spanning_family_lists_each_distinct_product_once():
    """The family has exactly the distinct columns of ref_family, and is
    real when every generator coefficient is."""
    rng = np.random.default_rng(20260101)
    zw = generated_submodule([BidiscPoly.monomial(1, 0), BidiscPoly.monomial(0, 1)],
                             make_space((5, 5)))
    subs = [zw] + [random_generated_module(rng) for _ in range(20)]
    for sub in subs:
        family = _spanning_family(sub.generators, sub.space)
        distinct = np.unique(ref_family(sub), axis=1)
        assert family.shape == distinct.shape
        np.testing.assert_array_equal(np.unique(family, axis=1), distinct)
        real = all(c.imag == 0 for g in sub.generators for c in g.coeffs.values())
        assert family.dtype == (np.float64 if real else np.complex128)
    assert _spanning_family(zw.generators, zw.space).shape == (36, 35)


# --- structured submodules against the dense split ------------------------


def dense_split(sub):
    """(onb, complement, rank) from one full pivoted QR of the spanning
    family: the path that multi-term generators take."""
    gens = (sub.inner.poly,) if sub.kind == "beurling" else sub.generators
    return orthonormal_split(_spanning_family(gens, sub.space))


def assert_split_matches_dense(sub, rng, min_margin=1e-6):
    """Same rank, K within TOL, and a tie margin of at least min_margin
    and of at least 1e4 times the largest deviation between the two
    paths' pivot residuals (the squared row norms of K), so that no pivot
    is decided by rounding."""
    onb, k, rank = dense_split(sub)
    assert sub.rank == rank
    assert sub.complement.shape == k.shape
    assert np.abs(sub.complement - k).max(initial=0.0) <= TOL
    margin = canonical_basis(sub.complement)[1]
    drift = np.abs(np.linalg.norm(sub.complement, axis=1) ** 2
                   - np.linalg.norm(k, axis=1) ** 2).max(initial=0.0)
    assert margin >= max(min_margin, 1e4 * drift)
    # the lazy basis spans the dense one, and its factored adjoint is Q^H
    assert sub.onb.shape == onb.shape
    assert opnorm(sub.onb.conj().T @ sub.onb - np.eye(rank)) <= TOL
    assert subspace_distance(sub.onb, onb) <= TOL
    x = rng.standard_normal((sub.space.dim, 3)) + 1j * rng.standard_normal((sub.space.dim, 3))
    assert np.abs(sub.onb_adjoint(x) - sub.onb.conj().T @ x).max(initial=0.0) <= TOL
    # the quotient's cross certificate, in factored form
    cross = opnorm(sub.onb_adjoint(sub.complement))
    assert cross == pytest.approx(opnorm(onb.conj().T @ k), abs=TOL)


SPLIT_CASES = [
    (fixture, order) for fixture in CATALOG for order in ((6, 6), (12, 12), (9, 5))
]


@pytest.mark.parametrize(
    "fixture,order", SPLIT_CASES, ids=[f"{f.name}-{o}" for f, o in SPLIT_CASES],
)
def test_catalog_split_matches_dense_split(fixture, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sub = fixture.make_submodule(make_space(order))
    assert_split_matches_dense(sub, np.random.default_rng(19))


def random_separable_inner(rng, order):
    """A product of several z and w Blaschke factors with complex zeros
    and a monomial, truncated to a random box inside order."""
    def zeros():
        return [complex(*rng.uniform(-0.6, 0.6, size=2))
                for _ in range(int(rng.integers(1, 3)))]

    a, b = (int(d) for d in rng.integers(0, 3, size=2))
    spec = InnerSpec.product([
        InnerSpec.blaschke_z(zeros()), InnerSpec.blaschke_w(zeros()),
        InnerSpec.monomial(a, b),
        InnerSpec.blaschke_z(zeros()), InnerSpec.blaschke_w(zeros()),
    ])
    box = (int(rng.integers(a, order[0] + 1)), int(rng.integers(b, order[1] + 1)))
    return build_inner(spec, box)


@pytest.mark.parametrize("order", [(6, 6), (12, 12), (9, 5)])
def test_random_separable_splits_match_dense_split(order):
    """Many factors truncated near the box edge leave most pivot
    residuals just below 1, a few 1e-8 apart, so the tie margin can fall
    to its floor of 1e-8 (1.03e-8 here at (12, 12)); the margin is then
    held only against the deviation between the two paths."""
    rng = np.random.default_rng(20261018)
    space = make_space(order)
    for _ in range(8):
        phi = random_separable_inner(rng, order)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sub = beurling_submodule(phi, space)
            # without its axis factors the same inner takes the dense path
            dense = beurling_submodule(dataclasses.replace(phi, axis_factors=None), space)
        if len(phi.poly.coeffs) == 1:  # truncated to the monomial part
            assert sub.onb_rows is not None
        else:
            assert sub.onb_factors[0].shape[0] == order[0] + 1
            assert dense.onb_factors[0].shape[0] == space.dim
        assert_split_matches_dense(sub, rng, min_margin=0.0)
        assert np.abs(sub.complement - dense.complement).max() <= TOL


@pytest.mark.parametrize("fixture", CATALOG, ids=[f.name for f in CATALOG])
def test_quotient_projector_is_complement_projector(fixture):
    """K K^H, built from the complement alone, is I - Q Q^H."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quot = quotient(fixture.make_submodule(make_space(fixture.order)))
    q = quot.parent.onb
    dense = np.eye(q.shape[0]) - q @ q.conj().T
    assert np.abs(quot.projector - dense).max() <= TOL


LARGE_BOX = [
    {"fixture": "inner-zw", "checks": ["build-module", "mandrekar", "jordan",
                                       "frame-bounds", "kernel-invariance",
                                       "kernel-doubly-commutes", "similarity",
                                       "recover", "decay", "equiv-vector"]},
    {"fixture": "generated-zw", "checks": ["build-module", "mandrekar"]},
]


@pytest.mark.parametrize(
    "config,factorised",
    [(cfg, False) for cfg in LARGE_BOX]
    + [({"fixture": name, "checks": ["build-module", "mandrekar", "jordan"]}, True)
       for name in ("blaschke-half", "blaschke-product")],
    ids=["inner-zw", "generated-zw", "blaschke-half", "blaschke-product"],
)
def test_no_factorisation_sees_an_n_row_matrix(monkeypatch, config, factorised):
    """At order (10, 10) every pivoted QR of a run has at most
    max(N1, N2) + 1 = 11 rows, not n = 121: monomial modules take none,
    separable inners one per variable."""
    shapes = []
    real_qr = scipy.linalg.qr
    monkeypatch.setattr(scipy.linalg, "qr",
                        lambda a, *args, **kw: shapes.append(np.shape(a)) or real_qr(a, *args, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = runner.run(runner.ExperimentConfig.from_json({**config, "order": [10, 10]}))
    assert outcome.results[0].data["space_dim"] == 121
    assert all(rows <= 11 for rows, _ in shapes), shapes
    assert bool(shapes) == factorised


SCIPY_PROBE = """
import sys, warnings
import bidiscframes
from bidiscframes import runner
loaded = ["scipy.linalg" in sys.modules]
warnings.simplefilter("ignore")
for config in ({"fixture": "inner-zw", "checks": list(runner.CHECK_NAMES)},
               {"fixture": "blaschke-half", "checks": ["build-module"]}):
    runner.run(runner.ExperimentConfig.from_json(config))
    loaded.append("scipy.linalg" in sys.modules)
print(loaded)
"""


def test_scipy_loads_only_for_a_pivoted_qr():
    """A fresh process imports the package and runs every check on
    inner-zw without loading scipy; the first separable inner, which
    takes one pivoted QR per variable, loads it."""
    src = str(Path(bidiscframes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True]"


# --- union-of-quadrant modules on their index set --------------------------


QUADRANT_ORDERS = [(0, 6), (6, 0), (0, 0), (4, 9), (9, 3), (7, 7)]


def random_quadrant_module(rng, order):
    """The module generated by 1 to 4 random monomials of the box."""
    gens = [BidiscPoly.monomial(int(rng.integers(0, order[0] + 1)),
                                int(rng.integers(0, order[1] + 1)))
            for _ in range(int(rng.integers(1, 5)))]
    return generated_submodule(gens, make_space(order))


def test_random_quadrant_modules_match_dense_reference():
    """Seeded random unions of quadrants, at boxes with an empty axis and
    non-square boxes: the index-set test agrees with the dense reference
    and with the dense route on the complement, and its residuals are
    exactly 0.0 or 1.0."""
    rng = np.random.default_rng(20261018)
    orders = QUADRANT_ORDERS + [tuple(int(d) for d in rng.integers(0, 10, size=2))
                                for _ in range(4)]
    verdicts = set()
    for order in orders:
        for _ in range(6):
            sub = random_quadrant_module(rng, order)
            assert sub.onb_rows is not None
            assert_doubly_commute_matches(sub)
            rep = doubly_commute_test(sub)
            assert {rep.residual_z, rep.residual_w} <= {0.0, 1.0}
            (rz, nz), (rw, nw) = compressed_commutator_residual(sub.complement, order, None)
            assert (rep.n_interior_z, rep.n_interior_w) == (nz, nw)
            assert (rep.residual_z, rep.residual_w) == pytest.approx((rz, rw), abs=TOL)
            verdicts.add(rep.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,residual", [
    ("inner-z", 0.0), ("inner-w", 0.0), ("inner-zw", 0.0), ("inner-z2w", 0.0),
    ("inner-zw2", 0.0), ("generated-zw", 1.0),
])
def test_quadrant_residuals_are_exact_at_order_28(name, residual):
    sub = next(f for f in CATALOG if f.name == name).make_submodule(make_space((28, 28)))
    rep = doubly_commute_test(sub)
    assert (rep.residual_z, rep.residual_w, rep.residual_interior) == (residual,) * 3


def test_quadrant_double_commutation_takes_no_factorisation(monkeypatch):
    """doubly_commute_test on a union of quadrants, and a whole run of
    build-module and mandrekar on one, call no SVD or QR."""
    rng = np.random.default_rng(20261018)
    subs = [f.make_submodule(make_space((10, 10))) for f in CATALOG
            if f.name in ("inner-zw", "inner-z2w", "generated-zw")]
    subs += [random_quadrant_module(rng, (9, 5)) for _ in range(5)]

    def refuse(*args, **kwargs):
        raise AssertionError("factorisation on a union of quadrants")

    for module in (np.linalg, scipy.linalg):
        for name in ("svd", "qr"):
            monkeypatch.setattr(module, name, refuse)
    for sub in subs:
        doubly_commute_test(sub)
    for fixture in ("inner-zw", "generated-zw"):
        config = {"fixture": fixture, "order": [10, 10], "checks": ["build-module", "mandrekar"]}
        outcome = runner.run(runner.ExperimentConfig.from_json(config))
        assert [r.name for r in outcome.results] == ["build-module", "mandrekar"]


# --- real arithmetic for real modules -------------------------------------


COMPLEX_SPEC = InnerSpec.blaschke_z([0.3 + 0.4j])


def chain_arrays(quot, triple, system):
    """name -> array for every public array of a chain."""
    arrays = {"complement": quot.parent.complement, "onb": quot.parent.onb,
              "onb_k": quot.onb_k, "jordan_z": quot.jordan_z,
              "jordan_w": quot.jordan_w, "seed": quot.seed}
    if triple is not None:
        arrays.update(T1=triple.T1, T2=triple.T2, phi=triple.phi)
    if system is not None:
        arrays.update(vectors=system.vectors, synthesis=system.synthesis,
                      **dict(zip(("svd_u", "svd_s", "svd_vh"), system.svd)))
    return arrays


@pytest.mark.parametrize("fixture", CATALOG, ids=[f.name for f in CATALOG])
def test_catalog_chains_are_real(fixture):
    """Every catalog fixture has real coefficients, so its whole chain is
    float64; the singular values are float64 in any case."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(fixture)
    arrays = chain_arrays(chain.quotient, chain.triple, chain.system)
    assert (chain.system is None) == (fixture.name == "blaschke-product")
    assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float64)


def test_complex_zeros_make_the_chain_complex():
    """A complex Blaschke zero makes the chain complex128 from the
    complement on; a random similarity makes a real triple complex.  The
    seed is K^H e_(0,0) bit for bit, signed zeros included, so exported
    quotients keep their bytes."""
    space = make_space((8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quot = quotient(beurling_submodule(build_inner(COMPLEX_SPEC, space.order), space))
    direct = quot.onb_k.conj().T @ space.basis_vector(0, 0)
    assert quot.seed.tobytes() == direct.tobytes()
    triple = triple_from_quotient(quot)
    arrays = chain_arrays(quot, triple, iterate(triple, space.order))
    expected = {name: np.complex128 for name in arrays}
    expected["svd_s"] = np.float64
    assert {name: a.dtype for name, a in arrays.items()} == expected

    real = build_chain(next(f for f in CATALOG if f.name == "inner-zw")).triple
    moved, _ = transport(real, random_similarity(real.dim, np.random.default_rng(3)))
    assert moved.T1.dtype == moved.T2.dtype == moved.phi.dtype == np.complex128
    assert iterate(moved, (6, 6)).synthesis.dtype == np.complex128


def chain_results(sub, quot, horizon):
    """(exact, floats) of the checks that run on a quotient: counts,
    verdicts, classifications and failed preconditions in the first,
    residuals in the second."""
    exact, floats = {}, {}

    def record(name, call, keys=()):
        try:
            rep = call()
        except PreconditionError as exc:
            exact[name] = str(exc)
            return None
        for key in keys:
            value = getattr(rep, key)
            (floats if isinstance(value, float) else exact)[f"{name}.{key}"] = value
        return rep

    record("mandrekar", lambda: doubly_commute_test(sub),
           ("residual_interior", "verdict", "residual_z", "residual_w",
            "n_interior_z", "n_interior_w"))
    triple = record("triple", lambda: OperatorTriple(
        T1=quot.jordan_z, T2=quot.jordan_w, phi=quot.seed))
    if triple is None:
        return exact, floats
    sys = iterate(triple, horizon)
    rep = record("frame", lambda: frame_bounds(sys),
                 ("lower", "upper", "classification", "kernel_dim"))
    floats["frame.bound_trace"] = np.array(rep.bound_trace)
    record("invariance", lambda: kernel_shift_invariance(sys),
           ("residual", "vacuous", "inconclusive", "n_checked"))
    record("commutes", lambda: kernel_doubly_commutes(sys),
           ("residual", "verdict", "vacuous", "inconclusive",
            "residual_z", "residual_w", "n_checked"))
    record("recover", lambda: recover_model(sys),
           ("k_dim", "intertwine_residual_z", "intertwine_residual_w",
            "residual_phi", "cond_W"))
    return exact, floats


@pytest.mark.parametrize(
    "fixture,order", CATALOG_CASES,
    ids=[f"{f.name}-{o or 'default'}" for f, o in CATALOG_CASES],
)
def test_real_chain_matches_its_complex_cast(fixture, order):
    """The real chain and the same quotient cast to complex128 give the
    same counts, verdicts and classifications, and residuals within TOL."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sub = fixture.make_submodule(make_space(order or fixture.order))
        quot = quotient(sub)
    csub = dataclasses.replace(sub, complement=sub.complement.astype(np.complex128))
    cquot = dataclasses.replace(
        quot, parent=csub, onb_k=csub.complement,
        **{key: getattr(quot, key).astype(np.complex128)
           for key in ("jordan_z", "jordan_w", "seed")},
    )
    horizon = sub.space.order
    real_exact, real_floats = chain_results(sub, quot, horizon)
    cast_exact, cast_floats = chain_results(csub, cquot, horizon)
    assert cast_exact == real_exact
    assert cast_floats.keys() == real_floats.keys()
    for key, value in real_floats.items():
        np.testing.assert_allclose(cast_floats[key], value, rtol=0, atol=TOL, err_msg=key)


# --- spectral norms, iterate grids and the lazy bound trace ----------------


def _random_matrix(rng, shape, complex_):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_ else a


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (12, 12)],
                         ids=["tall", "wide", "square"])
def test_opnorm_matches_the_svd_norm(shape, complex_, scale):
    """The Gram route agrees with the SVD to 1e-13 relative, rank-1
    matrices and entries far outside the Gram's safe range included."""
    rng = np.random.default_rng(31)
    a = _random_matrix(rng, shape, complex_)
    rank1 = np.outer(a[:, 0], a[0].conj())
    for m in (a * scale, rank1 * scale):
        assert opnorm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0.0)


def test_opnorm_of_zero_empty_and_nan_matrices():
    for shape in [(5, 3), (3, 5), (0, 3), (4, 0), (0, 0)]:
        assert opnorm(np.zeros(shape)) == 0.0
        assert opnorm(np.zeros(shape, dtype=np.complex128)) == 0.0
    a = np.ones((4, 3))
    a[2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        opnorm(a)


def ref_iterate_grid(t1, t2, phi, l1, l2):
    """Each iterate from its own recurrence: T1 applied i times to phi,
    then T2 j times, one vector at a time."""
    v = np.zeros((l1 + 1, l2 + 1, len(phi)), dtype=np.result_type(t1, t2, phi))
    for i in range(l1 + 1):
        for j in range(l2 + 1):
            x = phi
            for _ in range(i):
                x = t1 @ x
            for _ in range(j):
                x = t2 @ x
            v[i, j] = x
    return v


@pytest.mark.parametrize("horizon", [(0, 7), (7, 0), (9, 5)])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_iterate_grid_matches_the_per_vector_recurrence(kind, horizon):
    """Block products give every iterate to 1e-13 relative, in the
    common dtype of the inputs (mixed: real operators, complex seed)."""
    rng = np.random.default_rng(47)
    dim = 6
    a = _random_matrix(rng, (dim, dim), kind == "complex")
    a /= np.linalg.norm(a, 2)
    t1 = 0.6 * np.eye(dim) + 0.3 * a
    t2 = 0.5 * np.eye(dim) - 0.2 * a + 0.2 * a @ a
    phi = _random_matrix(rng, dim, kind != "real")
    got = iterate_grid(t1, t2, phi, *horizon)
    ref = ref_iterate_grid(t1, t2, phi, *horizon)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    err = np.linalg.norm(got - ref, axis=-1)
    assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=-1))


@pytest.mark.parametrize("reader", [None, "frame-bounds", "parseval"])
def test_bound_trace_is_built_only_when_read(monkeypatch, reader):
    """similarity, equiv-vector and recover read the bounds of their
    systems, never the trace: no moved system builds one, and the run's
    own system builds it only for frame-bounds or parseval."""
    from bidiscframes import dynamics

    moved = []

    def spy(iterate_fn):
        return lambda *args: moved.append(iterate_fn(*args)) or moved[-1]

    monkeypatch.setattr(runner, "iterate", spy(runner.iterate))
    monkeypatch.setattr(dynamics, "iterate", spy(dynamics.iterate))
    checks = ["similarity", "equiv-vector", "recover"] + ([reader] if reader else [])
    ctx = runner.RunContext(runner.ExperimentConfig.from_json(
        {"fixture": "inner-zw", "order": [6, 6], "checks": checks}))
    for name in checks:
        assert runner._run_check(name, ctx).passed, name
    moved = [sys_ for sys_ in moved if sys_ is not ctx.system]
    assert len(moved) == 2
    assert not any("bound_trace" in vars(sys_) for sys_ in moved)
    assert ("bound_trace" in vars(ctx.system)) == (reader is not None)


def test_a_report_and_its_system_are_freed_without_the_cycle_collector():
    """The report holds its system and the system holds nothing of the
    report, so there is no cycle: dropping both frees the iterates and
    the SVD at once."""
    system = random_system(np.random.default_rng(5), 4, (5, 5))
    report = frame_bounds(system)
    assert report.bound_trace is system.bound_trace
    held = weakref.ref(system)
    gc.disable()
    try:
        del system, report
        assert held() is None
    finally:
        gc.enable()


# --- coordinate synthesis matrices: weighted shift pairs ------------------


def weighted_shift_system(rng, order, horizon, complex_=False, zero_from=None, tiny=None):
    """The iterates of c e_(0,0) under a weighted shift pair on the box
    `order`, with T1^i T2^j c e_(0,0) = w_(i,j) e_(i,j) for random weights
    w of modulus in [0.3, 3] (random signs, or phases when complex_).

    The weights vanish on the quadrant i >= p, j >= q when zero_from is
    (p, q), and w at the index `tiny` is 1e-12, below the rank cutoff (at
    an index with no weight out of it, so that the pair still commutes to
    rounding).
    T1 e_(i,j) = (w_(i+1,j) / w_(i,j)) e_(i+1,j), and likewise T2, with
    weight 1 out of an index where w vanishes: the pair commutes, and each
    iterate is a multiple of one coordinate vector, or zero past the box.
    """
    shape = (order[0] + 1, order[1] + 1)
    w = rng.uniform(0.3, 3.0, size=shape)
    w = w * (np.exp(2j * np.pi * rng.uniform(size=shape)) if complex_
             else rng.choice([-1.0, 1.0], size=shape))
    if zero_from is not None:
        w[zero_from[0]:, zero_from[1]:] = 0.0
    if tiny is not None:
        w[tiny] = 1e-12
    c, w = w[0, 0], w / w[0, 0]
    space = make_space(order)
    t1 = np.zeros((space.dim, space.dim), dtype=w.dtype)
    t2 = np.zeros_like(t1)
    for i, j in np.ndindex(*shape):
        for t, (a, b) in ((t1, (i + 1, j)), (t2, (i, j + 1))):
            if a < shape[0] and b < shape[1]:
                t[space.index(a, b), space.index(i, j)] = w[a, b] / w[i, j] if w[i, j] else 1.0
    return iterate(OperatorTriple(T1=t1, T2=t2, phi=c * space.basis_vector(0, 0)), horizon)


WEIGHTED_CASES = [
    # order, horizon, complex_, zero_from, tiny
    ((4, 4), (4, 4), False, None, None),
    ((4, 4), (4, 4), True, None, None),
    ((5, 3), (8, 6), False, None, None),  # horizon past the order: zero columns
    ((5, 3), (8, 6), True, (2, 1), None),
    ((3, 3), (6, 6), False, (1, 2), (0, 3)),
    ((6, 2), (7, 3), True, None, (6, 2)),
    ((2, 6), (2, 7), True, (1, 4), (0, 6)),
    ((4, 4), (0, 6), False, None, None),
    # a 1e-12 weight on the top or right edge of the box: its kernel
    # column is moved by one shift only, to an entry of order 1
    ((4, 3), (6, 5), False, None, (1, 3)),
    ((3, 4), (5, 6), True, None, (3, 1)),
]


@pytest.mark.parametrize("order,horizon,complex_,zero_from,tiny", WEIGHTED_CASES)
def test_weighted_shift_systems_match_dense_reference(order, horizon, complex_, zero_from, tiny):
    """The exact SVD, bound trace and kernel tests of a coordinate
    synthesis matrix agree with the dense references, and the kernel
    residuals are exact: 0.0 or 1.0, and 0.0 or an entry modulus."""
    rng = np.random.default_rng([*order, *horizon, complex_])
    sys = weighted_shift_system(rng, order, horizon, complex_, zero_from, tiny)
    assert sys._coordinate_entries is not None
    u, s, vh = sys.svd
    ref_u, ref_s, ref_vh = np.linalg.svd(sys.synthesis, full_matrices=False)
    assert (u.shape, s.shape, vh.shape) == (ref_u.shape, ref_s.shape, ref_vh.shape)
    assert u.dtype == ref_u.dtype and vh.dtype == ref_vh.dtype
    assert np.abs(s - ref_s).max() <= TOL
    assert np.all(np.diff(s) <= 0.0)
    assert np.abs(u.conj().T @ u - np.eye(s.size)).max() <= TOL
    assert np.abs(vh @ vh.conj().T - np.eye(s.size)).max() <= TOL
    assert np.abs((u * s) @ vh - sys.synthesis).max() <= TOL
    assert_factorisation_matches(sys)
    assert_kernel_tests_match(sys)
    com = kernel_doubly_commutes(sys)
    if not (com.vacuous or com.inconclusive):
        assert {com.residual_z, com.residual_w} <= {0.0, 1.0}
    inv = kernel_shift_invariance(sys)
    if not (inv.vacuous or inv.inconclusive):
        assert inv.residual in {0.0, *np.abs(sys.synthesis).ravel()}


def test_svd_order_ties_and_completion():
    """Singular values in descending order, equal ones in column order,
    and the unused coordinate vectors completing U and Vh in index
    order; U diag(s) Vh gives the synthesis matrix bit for bit."""
    t1, t2 = np.zeros((4, 4)), np.zeros((4, 4))
    t1[1, 0], t2[2, 0] = 1.5, -1.0
    sys = iterate(OperatorTriple(T1=t1, T2=t2, phi=np.array([2.0, 0.0, 0.0, 0.0])), (2, 1))
    u, s, vh = sys.svd
    np.testing.assert_array_equal(s, [3.0, 2.0, 2.0, 0.0])
    np.testing.assert_array_equal(vh.argmax(axis=1), [2, 0, 1, 3])
    np.testing.assert_array_equal(u, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    np.testing.assert_array_equal((u * s) @ vh, sys.synthesis)

    # T1^i T2^j e_(0,0) = 2^j e_(i,j): ten equal entries per j
    space = make_space((9, 2))
    sys = iterate(OperatorTriple(T1=shift_matrix(space, "z"), T2=2.0 * shift_matrix(space, "w"),
                                 phi=space.basis_vector(0, 0)), (9, 2))
    u, s, vh = sys.svd
    np.testing.assert_array_equal(s, np.repeat([4.0, 2.0, 1.0], 10))
    order = [sys.col_index(i, j) for j in (2, 1, 0) for i in range(10)]
    np.testing.assert_array_equal(vh.argmax(axis=1), order)
    np.testing.assert_array_equal(u.argmax(axis=0), order)


@pytest.mark.parametrize("where", ["column", "row"])
def test_one_extra_entry_takes_the_dense_path(where):
    """A second nonzero entry in one column, or in one row, sends the
    system to the dense SVD, byte for byte."""
    sys = weighted_shift_system(np.random.default_rng(3), (4, 4), (5, 5))
    rows, entries = sys._coordinate_entries
    synthesis = sys.synthesis.copy()
    if where == "column":  # column 1 holds e_(0,1); add an entry in row 0
        synthesis[0, 1] = 0.5
    else:  # a zero column past the box edge, on the row of column 0
        synthesis[rows[0], sys.col_index(5, 5)] = 0.5
    dense = dataclasses.replace(sys, synthesis=synthesis)
    assert dense._coordinate_entries is None
    for got, ref in zip(dense.svd, np.linalg.svd(synthesis, full_matrices=False)):
        np.testing.assert_array_equal(got, ref)
    assert_factorisation_matches(dense)
    assert_kernel_tests_match(dense)


@pytest.mark.filterwarnings("ignore:horizon")
def test_coordinate_systems_take_no_factorisation(monkeypatch):
    """frame-bounds, kernel-invariance and kernel-doubly-commutes on a
    coordinate synthesis matrix, and a whole riesz run, call no SVD, no
    eigvalsh and no masked_complement."""
    from bidiscframes import _linalg, frames

    ctxs = []
    for config in ({"fixture": "inner-zw", "order": [10, 10]},
                   {"fixture": "inner-z2w", "order": [6, 6], "horizon": [9, 9]}):
        ctx = runner.RunContext(runner.ExperimentConfig.from_json(
            {**config, "checks": ["frame-bounds"]}))
        assert ctx.system._coordinate_entries is not None
        ctxs.append(ctx)
    weighted = [weighted_shift_system(np.random.default_rng(9), (5, 3), (8, 6), complex_)
                for complex_ in (False, True)]

    def refuse(*args, **kwargs):
        raise AssertionError("factorisation on a coordinate synthesis matrix")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(frames, "masked_complement", refuse)
    monkeypatch.setattr(_linalg, "masked_complement", refuse)
    for ctx in ctxs:
        for name in ("frame-bounds", "kernel-invariance", "kernel-doubly-commutes"):
            assert runner._run_check(name, ctx).data, name
    for sys_ in weighted:
        frame_bounds(sys_).to_dict()
        kernel_shift_invariance(sys_)
        kernel_doubly_commutes(sys_)
    outcome = runner.run(runner.ExperimentConfig.from_json(
        {"fixture": "riesz-model", "order": [6, 6], "checks": ["riesz"]}))
    assert outcome.exit_code == 0


# --- the similarity check on its small side --------------------------------


def transported(sys, seed):
    """The iterates of sys's triple moved by a seeded random similarity,
    over the same horizon: a dense system with the same kernel."""
    l = random_similarity(sys.triple.dim, np.random.default_rng(seed))
    return iterate(transport(sys.triple, l)[0], sys.horizon)


def catalog_systems(order):
    """The iterate system of every catalog fixture whose chain reaches one
    at the order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chains = [build_chain(fixture, order) for fixture in CATALOG]
    return [chain.system for chain in chains if chain.system is not None]


def ref_gap(a, b):
    return subspace_distance(synthesis_rowspace(a), synthesis_rowspace(b))


# the weighted cases whose pair stays commuting after a random similarity
TRANSPORTABLE = WEIGHTED_CASES[:8]


@pytest.mark.filterwarnings("ignore:horizon")
def test_rowspace_gap_matches_subspace_distance():
    """rowspace_gap agrees with the two-term subspace_distance of the row
    spaces, both ways round: a coordinate system against a dense one, two
    dense systems of equal rank, and unequal ranks; two coordinate systems
    give exactly 0.0 or 1.0, as the dense formula does."""
    pairs = []
    for seed, case in enumerate(TRANSPORTABLE):
        sys = weighted_shift_system(np.random.default_rng(seed), *case)
        pairs += [(sys, transported(sys, 1)), (transported(sys, 2), transported(sys, 3))]
    for sys in catalog_systems((6, 6)):
        pairs += [(sys, transported(sys, 4)), (transported(sys, 5), transported(sys, 6))]
    block_cases = 0
    for a, b in pairs:
        # a fresh dense b moved from a full-rank coordinate a: b takes its
        # k x k block, no SVD, and the gap agrees with rowspace_gap's
        gap, report = moved_frame_report(a, b)
        if "svd" not in vars(b):
            block_cases += 1
            assert a._coordinate_entries is not None and a.rank() == b.triple.dim
            assert report.kernel_dim == b.ncols - b.triple.dim
            assert gap == pytest.approx(ref_gap(a, b), abs=TOL)
            assert gap == pytest.approx(rowspace_gap(a, b), abs=TOL)  # the Vh gap
        else:
            assert gap == rowspace_gap(a, b) and report == frame_bounds(b)
        assert a.rank() == b.rank()
        for x, y in ((a, b), (b, a)):
            assert rowspace_gap(x, y) == pytest.approx(ref_gap(x, y), abs=TOL)

    assert block_cases == 9

    # a b whose row space is off a's by up to order 1: the gap against the
    # dense reference, in both argument orders
    rng = np.random.default_rng(20261020)
    bases = [weighted_shift_system(np.random.default_rng(seed), *case)
             for seed, case in enumerate(TRANSPORTABLE)]
    bases += [a for a in catalog_systems((6, 6)) if a._coordinate_entries is not None]
    bases = [a for a in bases if a.rank() == a.triple.dim < a.ncols]
    assert len(bases) == 7
    seen = []
    for a in bases:
        l = random_similarity(a.triple.dim, rng)
        for eps in (1e-9, 1e-5, 1e-1):
            noise = _random_matrix(rng, a.synthesis.shape, True)
            off = l @ (a.synthesis + eps * noise)
            moved = dataclasses.replace(a, synthesis=off)
            gap = moved_frame_report(a, moved)[0]
            # the block route up to a largest angle of 45 degrees
            assert ("svd" not in vars(moved)) == (gap <= 2.0 ** -0.5)
            assert gap == pytest.approx(ref_gap(a, moved), abs=TOL)
            for x, y in ((a, moved), (moved, a)):
                gap = rowspace_gap(x, y)
                assert gap == pytest.approx(ref_gap(x, y), abs=TOL)
                seen.append(gap / eps)
    assert 0.01 < min(seen) and max(seen) < 100.0

    # the three fallbacks of the block route, each to the thin SVD
    a = bases[0]
    mod = np.abs(a.synthesis).max(axis=0)
    rank_cols = mod > KERNEL_RTOL * mod.max()  # a's rank set
    noise = _random_matrix(rng, a.synthesis.shape, True)
    singular = a.synthesis + 1e-3 * noise
    singular[:, np.flatnonzero(rank_cols)[0]] = 0.0  # B has a zero column
    far = noise  # a random row space, at largest angle past 45 degrees
    scale = np.ones(a.triple.dim)
    scale[-1] = 1e-12
    thin = scale[:, None] * (a.synthesis + 1e-3 * noise)  # rank dim - 1
    for off in (singular, far, thin):
        b = off[:, rank_cols]
        values = np.linalg.svd(off, compute_uv=False)
        if off is singular:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(b)
            assert values[-1] > 1e-6 * values[0]
        else:
            sigma = np.linalg.norm(np.linalg.solve(b, off[:, ~rank_cols]), 2)
            assert (sigma > 1.0) == (off is far)
            assert (values[-1] > KERNEL_RTOL * values[0]) == (off is far)
        moved = dataclasses.replace(a, synthesis=off)
        gap, report = moved_frame_report(a, moved)
        assert "svd" in vars(moved)
        assert gap == rowspace_gap(a, moved) and report == frame_bounds(moved)
        for x, y in ((a, moved), (moved, a)):
            assert rowspace_gap(x, y) == pytest.approx(ref_gap(x, y), abs=TOL)

    full = weighted_shift_system(np.random.default_rng(7), (5, 3), (8, 6))
    cut = weighted_shift_system(np.random.default_rng(8), (5, 3), (8, 6), zero_from=(2, 1))
    assert full.rank() != cut.rank()
    # a rank-deficient b against a full-rank coordinate a falls back from
    # its block to the two-term formula
    deficient = transported(cut, 9)
    assert full.rank() == deficient.triple.dim
    assert moved_frame_report(full, deficient)[0] == ref_gap(full, deficient)
    assert "svd" in vars(deficient)
    assert deficient.rank() < deficient.triple.dim
    for a, b in ((full, deficient), (transported(full, 10), transported(cut, 11))):
        for x, y in ((a, b), (b, a)):
            assert rowspace_gap(x, y) == ref_gap(x, y)
    # fewer columns than dim: a coordinate rank below dim takes no block
    short = weighted_shift_system(np.random.default_rng(13), (4, 4), (2, 2))
    assert short.ncols < short.triple.dim
    moved = transported(short, 14)
    gap = moved_frame_report(short, moved)[0]
    assert "svd" in vars(moved)
    assert gap == pytest.approx(ref_gap(short, moved), abs=TOL)

    rng = np.random.default_rng(20261019)
    coordinate = [weighted_shift_system(rng, (3, 3), (6, 6), False, (1, 2), (0, 3)),
                  weighted_shift_system(rng, (3, 3), (6, 6), True, (1, 2), (0, 3)),
                  weighted_shift_system(rng, (3, 3), (6, 6), False, (2, 1), (3, 0)),
                  full, cut]
    for order in [(4, 9), (7, 7)]:
        for _ in range(4):
            quot = quotient(random_quadrant_module(rng, order))
            if not quot.trivial:
                coordinate.append(iterate(triple_from_quotient(quot), (7, 7)))
    gaps = set()
    for a in coordinate:
        for b in coordinate:
            if a.ncols == b.ncols:
                assert a._coordinate_entries is not None and b._coordinate_entries is not None
                gap = rowspace_gap(a, b)
                assert gap == ref_gap(a, b)
                gaps.add((gap, a.rank() == b.rank()))
    assert gaps == {(0.0, True), (1.0, True), (1.0, False)}


@pytest.mark.filterwarnings("ignore:horizon")
def test_estimate_from_a_coordinate_source_is_the_product():
    """From a coordinate source, estimate_similarity gathers target
    columns where it multiplied by the source's Vh: the estimate is the
    product's, byte for byte."""
    sources = [weighted_shift_system(np.random.default_rng(12), *case) for case in TRANSPORTABLE]
    sources += [s for s in catalog_systems((6, 6)) if s._coordinate_entries is not None]
    sources.append(build_chain(next(f for f in CATALOG if f.name == "inner-z2w"), (6, 6),
                               horizon=(9, 9)).system)
    for seed, source in enumerate(sources):
        assert source._coordinate_entries is not None
        target = transported(source, seed)
        u, s, vh = source.svd
        keep = s > 1e-15 * s.max(initial=0.0)
        ref = (target.synthesis @ vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
        got = estimate_similarity(source, target)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def ref_coordinate_rows(onb_k):
    """The column test the quotient used to make of K: r with column j of
    onb_k equal to e_(r[j]) for every j, or None (rows may repeat)."""
    cols, rows = np.nonzero(onb_k.T)
    if cols.size != onb_k.shape[1] or not np.array_equal(cols, np.arange(cols.size)):
        return None
    return rows if (onb_k[rows, cols] == 1.0).all() else None


def index_map_modules(rng):
    """The modules test_index_map_quotient_matches_the_products builds,
    from the same seed."""
    subs = [f.make_submodule(make_space(order)) for f in CATALOG for order in [(6, 6), (9, 5)]]
    subs = [s for s in subs if s.onb_rows is not None]
    subs += [random_quadrant_module(rng, order) for order in QUADRANT_ORDERS for _ in range(3)]
    subs += [zero_submodule(make_space(order)) for order in [(0, 0), (3, 0), (4, 6)]]
    return subs


@pytest.mark.filterwarnings("ignore:trivial quotient", "ignore:submodule is approximate")
def test_index_map_quotient_matches_the_products(monkeypatch):
    """On a union of quadrants the compressed shifts are the index-map
    submatrices S[rows][:, rows], equal byte for byte to K^H shift_rows(K),
    with no shift applied: catalog fixtures, random unions of quadrants
    and the zero submodule, which the riesz check takes."""
    from bidiscframes import _linalg

    rng = np.random.default_rng(20261019)
    subs = [f.make_submodule(make_space(order)) for f in CATALOG for order in [(6, 6), (9, 5)]]
    subs = [s for s in subs if s.onb_rows is not None]
    subs += [random_quadrant_module(rng, order) for order in QUADRANT_ORDERS for _ in range(3)]
    subs += [zero_submodule(make_space(order)) for order in [(0, 0), (3, 0), (4, 6)]]

    def refuse(*args, **kwargs):
        raise AssertionError("shift applied on a union of quadrants")

    for sub in subs:
        k = sub.complement
        refs = [k.conj().T @ shift_rows(k, sub.space.order, axis) for axis in ("z", "w")]
        with monkeypatch.context() as patch:
            patch.setattr(_linalg, "shift_rows", refuse)
            quot = quotient(sub)
        for got, ref in zip((quot.jordan_z, quot.jordan_w), refs):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_index_map_quotient_keeps_its_certificates():
    """A repeated missing index fails ||K^H K - I||, and a missing index
    inside the module fails ||Q^H K||: the index-set certificates still
    raise."""
    sub = next(f for f in CATALOG if f.name == "inner-zw").make_submodule(make_space((6, 6)))
    repeated = sub.complement.copy()
    repeated[:, 1] = repeated[:, 0]
    inside = sub.complement.copy()
    inside[:, 0] = 0.0
    inside[sub.onb_rows[0], 0] = 1.0
    for bad in (repeated, inside):
        with pytest.raises(RuntimeError, match="complement defect"):
            quotient(dataclasses.replace(sub, complement=bad))


def test_coordinate_entries_edge_cases():
    """One nonzero at most per row and per column: an n x 0 matrix passes
    with no entries, a matrix with no rows, a repeated row and a NaN entry
    do not, a zero column has entry 0, and complex entries keep their
    values."""
    rows, entries = coordinate_entries(np.zeros((4, 0)))
    assert rows.shape == entries.shape == (0,)
    assert coordinate_entries(np.zeros((0, 3))) is None
    assert coordinate_entries(np.zeros((0, 0))) is None
    rows, entries = coordinate_entries(np.array([[0.0, 0.0, 2.0], [0.0, -3.0, 0.0]]))
    assert rows[1:].tolist() == [1, 0] and entries.tolist() == [0.0, -3.0, 2.0]
    assert coordinate_entries(np.array([[1.0, 1.0], [0.0, 0.0]])) is None
    assert coordinate_entries(np.array([[1.0, 0.0], [1.0, 0.0]])) is None
    assert coordinate_entries(np.array([[np.nan, 0.0], [0.0, 1.0]])) is None
    assert coordinate_entries(np.array([[np.inf, 0.0], [0.0, 1.0]])) is None
    rows, entries = coordinate_entries(np.array([[0.0, 1j], [2.0 - 1j, 0.0]]))
    assert rows.tolist() == [1, 0] and entries.tolist() == [2.0 - 1j, 1j]
    assert entries.dtype == np.complex128


@pytest.mark.filterwarnings("ignore:submodule is approximate")
def test_coordinate_entries_agrees_with_the_column_test():
    """On every K of the index-map quotients, and on those K with a column
    made a repeat, off the coordinate axes or zero, the one coordinate
    test with every entry 1.0 gives the rows the old column test gave;
    a repeated row, which the column test let through to the K^H K
    certificate, it refuses itself."""
    checked = 0
    for sub in index_map_modules(np.random.default_rng(20261019)):
        k = sub.complement
        variants = [k]
        if k.shape[1] >= 2:
            repeated = k.copy()
            repeated[:, 1] = repeated[:, 0]
            variants.append(repeated)
        if k.shape[1] and k.shape[0] >= 2:
            spread, zero = k.copy(), k.copy()
            spread[:, 0] = np.sqrt(0.5) * (k[:, 0] + np.roll(k[:, 0], 1))
            zero[:, 0] = 0.0
            variants += [spread, zero]
        for a in variants:
            hits = coordinate_entries(a)
            got = hits[0] if hits is not None and (hits[1] == 1.0).all() else None
            ref = ref_coordinate_rows(a)
            if ref is not None and np.bincount(ref).max(initial=0) > 1:
                assert got is None  # the repeated column
            else:
                assert (got is None) == (ref is None)
                if got is not None:
                    assert np.array_equal(got, ref)
                    checked += 1
    assert checked >= 30


def ref_coordinate_entries(a):
    """The axis-count form of the coordinate test: at most one nonzero per
    column and per row by counts along each axis, rows by argmax."""
    nonzero = a != 0
    if (not a.shape[0]
            or np.count_nonzero(nonzero, axis=0).max(initial=0) > 1
            or np.count_nonzero(nonzero, axis=1).max() > 1):
        return None
    rows = nonzero.argmax(axis=0)
    entries = a[rows, np.arange(a.shape[1])]
    return (rows, entries) if np.isfinite(entries).all() else None


def test_coordinate_entries_matches_the_axis_counts():
    """The row-major scan of coordinate_entries gives what the axis counts
    give, rows and entry bytes, on seeded random sparse matrices up to
    6 x 6: real and complex, C and Fortran order, transposed views, with
    entries 1.0, -2.0, NaN, inf and -0.0."""
    rng = np.random.default_rng(20261022)
    values = [1.0, -2.0, np.nan, np.inf, -0.0, 0.0]
    passed = 0
    for _ in range(4000):
        m, n = (int(d) for d in rng.integers(0, 7, size=2))
        a = np.zeros((m, n))
        for _ in range(int(rng.integers(0, 7)) if m and n else 0):
            a[rng.integers(m), rng.integers(n)] = values[rng.integers(len(values))]
        a = a + 0j if rng.integers(2) else a
        a = np.asfortranarray(a) if rng.integers(2) else a
        a = a.T if rng.integers(3) == 0 else a
        got, ref = coordinate_entries(a), ref_coordinate_entries(a)
        assert (got is None) == (ref is None), a
        if got is not None:
            assert np.array_equal(got[0], ref[0]) and got[1].dtype == ref[1].dtype
            assert got[1].tobytes() == ref[1].tobytes()
            passed += 1
    assert 500 < passed < 3500


def test_coordinate_rows_edge_cases():
    """coordinate_rows passes distinct unit coordinate columns with every
    entry 1.0, and refuses a repeated row, an entry -1.0 or 0.5 and a
    dense column; an n x 0 basis gives an empty array of rows."""
    k = np.zeros((5, 2))
    k[3, 0] = k[1, 1] = 1.0
    assert coordinate_rows(k).tolist() == [3, 1]
    rows = coordinate_rows(np.zeros((4, 0)))
    assert rows is not None and rows.shape == (0,)
    repeated, negative, half, dense = k.copy(), k.copy(), k.copy(), k.copy()
    repeated[:, 1] = repeated[:, 0]
    negative[3, 0] = -1.0
    half[1, 1] = 0.5
    dense[:, 1] = np.sqrt(0.2)
    for bad in (repeated, negative, half, dense):
        assert coordinate_rows(bad) is None


def coordinate_catalog_rowspaces():
    """(horizon, row space) of every coordinate catalog system at three
    orders, the row spaces recover_model and kernel_doubly_commutes take."""
    systems = [s for order in [(6, 6), (9, 5), (10, 4)] for s in catalog_systems(order)
               if s._coordinate_entries is not None]
    assert systems
    return [(s.horizon, synthesis_rowspace(s)) for s in systems]


def test_compress_index_route_matches_the_products():
    """On the row space R of every coordinate catalog system, compress
    takes the index route (coordinate_rows(R) is not None), and its
    compressed shifts and seed equal those of the product route byte for
    byte, with the same dtype."""
    for horizon, k in coordinate_catalog_rowspaces():
        rows = coordinate_rows(k)
        assert rows is not None
        for got, ref in zip(compress(k, horizon, rows), compress(k, horizon, None)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_commutator_index_route_matches_the_dense_route():
    """compressed_commutator_residual with the rows of the basis agrees
    with its dense route on random quadrant complements and on the row
    spaces of the coordinate catalog systems: equal counts, residuals to
    TOL, and exactly 0.0 or 1.0."""
    rng = np.random.default_rng(20261021)
    cases = [(order, random_quadrant_module(rng, order).complement)
             for order in QUADRANT_ORDERS for _ in range(4)]
    cases += coordinate_catalog_rowspaces()
    residuals = set()
    for order, k in cases:
        rows = coordinate_rows(k)
        assert rows is not None
        dense = compressed_commutator_residual(k, order, None)
        for (r, n), (r_ref, n_ref) in zip(compressed_commutator_residual(k, order, rows), dense):
            assert n == n_ref and r in (0.0, 1.0)
            assert r == pytest.approx(r_ref, abs=TOL)
            residuals.add(r)
    assert residuals == {0.0, 1.0}


@pytest.mark.filterwarnings("ignore:trivial quotient", "ignore:submodule is approximate",
                            "ignore:compressed shifts commute")
def test_triple_from_quotient_is_the_constructor_triple(monkeypatch):
    """triple_from_quotient multiplies no pair, yet gives the triple
    OperatorTriple(J_z, J_w, seed) builds: the same array bytes and
    dtype, dim, and comm_residual exactly.  A pair that fails to commute
    raises the constructor's PreconditionError with its text."""
    from bidiscframes import frames

    rng = np.random.default_rng(20261020)
    subs = [f.make_submodule(make_space(order)) for f in CATALOG for order in [(6, 6), (9, 5)]]
    subs += [random_quadrant_module(rng, order) for order in QUADRANT_ORDERS for _ in range(3)]
    subs += [zero_submodule(make_space(order)) for order in [(0, 0), (3, 0), (4, 6)]]
    subs += [beurling_submodule(build_inner(COMPLEX_SPEC, order), make_space(order))
             for order in [(6, 6), (9, 5)]]
    subs += [random_generated_module(rng) for _ in range(12)]
    product = next(f for f in CATALOG if f.name == "blaschke-product")
    subs.append(product.make_submodule(make_space(product.order)))

    def refuse(*args, **kwargs):
        raise AssertionError("commutator formed again")

    dtypes, refused = set(), 0
    for sub in subs:
        quot = quotient(sub)
        if quot.trivial:
            continue
        try:
            ref = OperatorTriple(quot.jordan_z, quot.jordan_w, quot.seed)
        except PreconditionError as exc:
            ref, text = None, str(exc)
        with monkeypatch.context() as patch:
            patch.setattr(frames, "opnorm", refuse)
            if ref is None:
                with pytest.raises(PreconditionError, match=re.escape(text)):
                    triple_from_quotient(quot)
                refused += 1
                continue
            got = triple_from_quotient(quot)
        for name in ("T1", "T2", "phi"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got.dim == ref.dim and got.comm_residual == ref.comm_residual
        dtypes.add(got.T1.dtype)
    assert dtypes == {np.dtype(np.float64), np.dtype(np.complex128)} and refused >= 1
    with pytest.raises(PreconditionError, match="operators do not commute: residual"):
        triple_from_quotient(quotient(subs[-1]))


def test_similarity_check_factorises_its_map_once(monkeypatch):
    """One similarity check takes the singular values of its random map L
    once, in random_similarity, and hands them to transport and to
    uniqueness_of_L, which takes no SVD of the estimate of L either."""
    ctx = runner.RunContext(runner.ExperimentConfig.from_json(
        {"fixture": "inner-zw", "order": [10, 10], "checks": ["similarity"]}))
    ctx.system
    l = random_similarity(ctx.triple.dim, ctx.transport_rng(), ctx.cfg.condition_cap)
    args, estimates = [], []
    real_svd, real_estimate = np.linalg.svd, runner.estimate_similarity
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *rest, **kw: args.append(a) or real_svd(a, *rest, **kw))
    monkeypatch.setattr(runner, "estimate_similarity",
                        lambda *systems: estimates.append(real_estimate(*systems))
                        or estimates[-1])
    assert runner._run_check("similarity", ctx).passed
    assert [np.array_equal(a, l) for a in args].count(True) == 1
    # the estimate is complex128, so uniqueness_of_L would pass it as is
    assert len(estimates) == 1 and estimates[0].dtype == np.complex128
    assert not any(a is estimates[0] for a in args)


def ref_uniqueness_distance(sys, l1, l2):
    """The witness distance as uniqueness_of_L computed it before it took
    Weyl's bounds and Frobenius norms: an SVD of each witness, one solve
    per conjugated operator and the spectral norm of every residual."""
    l1, l2 = np.asarray(l1, dtype=np.complex128), np.asarray(l2, dtype=np.complex128)
    for name, l in (("first", l1), ("second", l2)):
        s = np.linalg.svd(l, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= 1e-14 * s[0]:
            raise PreconditionError(f"{name} witness is numerically singular")
    t = sys.triple
    moved = [ref_conjugate(l1, t.T1), ref_conjugate(l1, t.T2), l1 @ t.phi]
    worst = max(opnorm(l2 @ t.T1 - moved[0] @ l2), opnorm(l2 @ t.T2 - moved[1] @ l2),
                float(np.linalg.norm(l2 @ t.phi - moved[2])))
    if worst > WITNESS_TOL:
        raise PreconditionError(
            f"second witness not certified: residual {worst:.3e} > {WITNESS_TOL:.1e}")
    return opnorm(l1 - l2)


def ref_conjugate(l, a):
    """L a L^-1 by one solve per operator."""
    return np.linalg.solve(l.conj().T, (l @ a).conj().T).conj().T


def uniqueness_outcome(fn, sys, l1, l2):
    try:
        return fn(sys, l1, l2)
    except PreconditionError as exc:
        return str(exc)


def test_uniqueness_refuses_what_it_refused():
    """uniqueness_of_L gives the distance, or the refusal with its message
    and residual, of the version with an SVD of each witness and spectral
    norms throughout: a singular second witness, a witness off by 1e-6,
    one whose largest residual is twice the tolerance, one whose
    residuals pass in spectral norm but not in Frobenius norm, and the
    check's own estimate."""
    ctx = runner.RunContext(runner.ExperimentConfig.from_json(
        {"fixture": "inner-zw", "order": [8, 8], "checks": ["similarity"]}))
    sys, rng = ctx.system, np.random.default_rng(20261019)
    l1 = random_similarity(sys.triple.dim, rng)
    moved = iterate(transport(sys.triple, l1)[0], sys.horizon)
    v = _random_matrix(rng, (sys.triple.dim, 1), True)
    v /= np.linalg.norm(v)
    bump = _random_matrix(rng, l1.shape, True)
    # the residuals are linear in l2 - l1: scale the bump to 0.9 WITNESS_TOL
    # in the largest spectral norm, which leaves a Frobenius norm above it
    residual = max(opnorm(bump @ sys.triple.T1 - ref_conjugate(l1, sys.triple.T1) @ bump),
                   opnorm(bump @ sys.triple.T2 - ref_conjugate(l1, sys.triple.T2) @ bump),
                   float(np.linalg.norm(bump @ sys.triple.phi)))
    spectral_only = l1 + (0.9 * WITNESS_TOL / residual) * bump
    cases = {
        "singular": l1 - (l1 @ v) @ v.conj().T,
        "off": l1 + 1e-6 * bump,
        "just off": l1 + (2.0 * WITNESS_TOL / residual) * bump,
        "spectral only": spectral_only,
        "estimate": estimate_similarity(sys, moved),
    }
    outcomes = {}
    for name, l2 in cases.items():
        got = uniqueness_outcome(
            lambda *a: uniqueness_of_L(*a).distance, sys, l1, l2)
        assert got == uniqueness_outcome(ref_uniqueness_distance, sys, l1, l2), name
        outcomes[name] = got
    assert outcomes["singular"] == "second witness is numerically singular"
    for name in ("off", "just off"):
        assert outcomes[name].startswith("second witness not certified: residual ")
    assert isinstance(outcomes["spectral only"], float)
    assert max(np.linalg.norm(spectral_only @ sys.triple.T1
                              - ref_conjugate(l1, sys.triple.T1) @ spectral_only),
               np.linalg.norm(spectral_only @ sys.triple.T2
                              - ref_conjugate(l1, sys.triple.T2) @ spectral_only)) > WITNESS_TOL
    assert outcomes["estimate"] <= 1e-8


def test_transport_conjugates_both_operators_with_one_lu(monkeypatch):
    """transport solves once against L^H, on both products side by side,
    and its T1' and T2' are those of one solve per operator, byte for
    byte and in the same memory order: every catalog triple at (6, 6),
    (12, 12) and (9, 5), each under three seeded maps."""
    from bidiscframes import models

    triples = [system.triple for order in [(6, 6), (12, 12), (9, 5)]
               for system in catalog_systems(order)]
    solves = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *a: solves.append(a[1].shape) or real_solve(*a))
    for triple in triples:
        for seed in range(3):
            l = random_similarity(triple.dim, np.random.default_rng(seed))
            solves.clear()
            new = transport(triple, l)[0]
            assert solves == [(triple.dim, 2 * triple.dim)]
            for got, a in ((new.T1, triple.T1), (new.T2, triple.T2)):
                ref = ref_conjugate(l, a)
                assert got.tobytes() == ref.tobytes() and got.strides == ref.strides
            assert models._conjugate(l, triple.T1)[0].tobytes() == new.T1.tobytes()
    assert len(triples) == 24


# --- the moved systems' block values ----------------------------------------


def moved_systems(sys, seed):
    """The moved systems of the similarity and equiv-vector checks over sys:
    the seeded random similarity, and the seed (I + 0.5 T1 T2) phi."""
    t = sys.triple
    v = np.eye(t.dim, dtype=t.T1.dtype) + 0.5 * (t.T1 @ t.T2)
    return [transported(sys, seed), iterate(t.with_seed(v @ t.phi), sys.horizon)]


def block_values(base, moved):
    """(gap, values) of the k x k block route of moved over the coordinate
    base: _block_gap caches nothing on moved, and moved_frame_report
    returns that gap with a report built from those values, and takes no
    SVD of moved."""
    cached = set(vars(moved))
    gap, values = _block_gap(moved, _coordinate_kernel(base)[0].ravel())
    assert set(vars(moved)) == cached
    got, rep = moved_frame_report(base, moved)
    assert "svd" not in vars(moved) and got == gap
    top, bottom = float(values[0]), float(values[-1])
    assert rep.upper == top * top and rep.lower == bottom * bottom
    return gap, values


def test_block_values_match_the_svd_values():
    """The singular values of the k x k block B C that moved_frame_report
    reads are those of U, to 1e-13 times s0 (largest deviation seen:
    7.5e-16 times s0): on the moved similarity and equiv-vector systems
    of every coordinate catalog base of rank dim at (6, 6), (12, 12) and
    (9, 5), and on weighted shift systems with entries from 1e-6 to 1,
    moved by a seeded complex map; 30 pairs in all take the block
    route."""
    pairs = []
    for order in [(6, 6), (12, 12), (9, 5)]:
        for seed, sys in enumerate(catalog_systems(order)):
            if sys._coordinate_entries is not None:
                pairs += [(sys, moved) for moved in moved_systems(sys, seed)]
    rng = np.random.default_rng(20261019)
    for case in WEIGHTED_CASES:
        sys = weighted_shift_system(rng, *case)
        entries = sys.synthesis * 10.0 ** rng.uniform(-6.0, 0.0, size=sys.ncols)
        l = random_similarity(sys.triple.dim, rng)
        pairs.append((dataclasses.replace(sys, synthesis=entries),
                      dataclasses.replace(sys, synthesis=l @ entries)))
    worst, checked = 0.0, 0
    for base, moved in pairs:
        if base.rank() < base.triple.dim or moved._coordinate_entries is not None:
            continue  # no block route (V = I leaves the moved system coordinate)
        got = block_values(base, moved)[1]
        ref = np.linalg.svd(moved.synthesis, compute_uv=False)
        assert got.shape == ref.shape == (moved.triple.dim,)
        worst = max(worst, np.abs(got - ref).max() / ref[0])
        checked += 1
    assert checked == 30
    assert worst <= 1e-13, worst


def test_block_route_on_a_gap_of_order_one_and_any_scale():
    """Off the base's row space by up to order one (largest angle below 45
    degrees, so C is far from I) and with the synthesis matrix scaled by
    1e-160, 1e160, or so that U_K falls below 1e-100 while B does not, the
    block route gives the dense reference's gap and singular values: the
    gap to 1e-12, the values to 1e-13 times s0.  Its frame report is built
    at every scale (the squared bounds of the 1e160 system saturate to
    inf), with the class of the unscaled system."""
    rng = np.random.default_rng(20261021)
    bases = [a for a in catalog_systems((6, 6))
             if a._coordinate_entries is not None and a.rank() == a.triple.dim < a.ncols]
    gaps = []
    for a in bases:
        l = random_similarity(a.triple.dim, rng)
        off = l @ (a.synthesis + 0.03 * _random_matrix(rng, a.synthesis.shape, True))
        u_k = np.abs(off[:, np.abs(a.synthesis).max(axis=0) == 0.0]).max()
        kind = moved_frame_report(a, dataclasses.replace(a, synthesis=off))[1].classification
        for factor in (1.0, 1e-160, 1e160, 0.5e-100 / u_k):
            moved = dataclasses.replace(a, synthesis=factor * off)
            gap, got = block_values(a, moved)
            assert moved_frame_report(a, moved)[1].classification == kind
            ref = np.linalg.svd(moved.synthesis, compute_uv=False)
            assert np.abs(got - ref).max() <= 1e-13 * ref[0]
            assert gap == pytest.approx(ref_gap(a, moved), abs=TOL)
            gaps.append(gap)
    assert len(bases) >= 3 and 0.1 < max(gaps) < 2.0 ** -0.5


def test_moved_frame_report_leaves_no_state():
    """moved_frame_report gives the same gap and report bytes on a fresh
    moved system as on a copy whose frame_bounds was read first, and a
    later frame_bounds of the moved system has the bytes of a fresh
    copy's: on the moved similarity and equiv-vector systems of every
    catalog base at (6, 6), over both routes."""
    def dump(report):
        return json.dumps(report.to_dict(), sort_keys=True)

    routes = set()
    for seed, base in enumerate(catalog_systems((6, 6))):
        for moved in moved_systems(base, seed):
            read = dataclasses.replace(moved)
            frame_bounds(read)
            gap, report = moved_frame_report(base, moved)
            routes.add("svd" in vars(moved))
            again = moved_frame_report(base, read)
            assert again[0] == gap and dump(again[1]) == dump(report)
            assert dump(frame_bounds(moved)) == dump(frame_bounds(dataclasses.replace(moved)))
    assert routes == {True, False}


def test_rank_mask_is_the_old_rank_rules():
    """rank_mask agrees with the inline rules it replaced: the relative
    cut of null_space_onb and of the coordinate kernel (any order), and
    those of the pivoted QR and of IterateSystem.rank (largest value
    first), on empty, all-zero, unsorted and at-threshold inputs."""
    def any_order(s):
        return s > s.max(initial=0.0) * KERNEL_RTOL

    def coordinate(mod):  # no empty input: the horizon box has columns
        return mod > KERNEL_RTOL * mod.max()

    def pivoted(diag):
        if diag.size == 0 or diag[0] == 0.0:
            return np.zeros(diag.shape, dtype=bool)
        return diag > KERNEL_RTOL * diag[0]

    def numerical(s):
        smax = s[0] if s.size else 0.0
        return s > KERNEL_RTOL * smax if smax > 0.0 else np.zeros(s.shape, dtype=bool)

    edge = 3.0 * KERNEL_RTOL
    cases = [np.zeros(0), np.zeros(1), np.zeros(4),
             np.array([3.0, edge, np.nextafter(edge, 1.0), np.nextafter(edge, 0.0), 0.0]),
             np.array([1.0, KERNEL_RTOL, 0.5 * KERNEL_RTOL, 0.0]),
             np.array([2.0]), np.array([1e-300, 1e-311, 0.0])]
    cases += [np.sort(s)[::-1] for s in cases]
    cases += [np.array([edge, 0.0, 3.0, 1.0, np.nextafter(edge, 0.0)]),
              np.array([0.0, 5e-11, 1.0, 1e-10, 2.0]),
              np.random.default_rng(3).permutation(np.logspace(-14, 0, 15))]
    for s in cases:
        mask = rank_mask(s)
        assert mask.dtype == bool and mask.shape == s.shape
        np.testing.assert_array_equal(mask, any_order(s))
        if s.size:
            np.testing.assert_array_equal(mask, coordinate(s))
        if np.all(s[:-1] >= s[1:]):
            np.testing.assert_array_equal(mask, pivoted(s))
            np.testing.assert_array_equal(mask, numerical(s))
    # at the cut itself a value is out: 3 KERNEL_RTOL against 3.0 counts as zero
    assert [int(rank_mask(s).sum()) for s in cases[:7]] == [0, 0, 0, 2, 1, 1, 1]


@pytest.mark.filterwarnings("ignore:submodule is approximate")
@pytest.mark.parametrize("fixture,coordinate", [("inner-z2w", True), ("blaschke-half", False)])
@pytest.mark.parametrize("check", ["similarity", "equiv-vector"])
def test_moved_systems_take_one_factorisation(monkeypatch, check, fixture, coordinate):
    """Over a coordinate base the similarity and equiv-vector checks take
    no QR and no SVD of a synthesis-shaped matrix: the moved system's
    values come from its k x k block; over a dense base each system takes
    exactly one SVD and no QR.  (On inner-z2w the map V of equiv-vector is not the identity;
    blaschke-half at (10, 10) is no frame, so similarity FAILs right
    after transport, and only the base is factorised.)"""
    ctx = runner.RunContext(runner.ExperimentConfig.from_json(
        {"fixture": fixture, "order": [10, 10], "checks": [check]}))
    base = ctx.system
    assert (base._coordinate_entries is not None) == coordinate
    shape = base.synthesis.shape
    svds, qrs = [], []
    real_svd, real_qr = np.linalg.svd, np.linalg.qr
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: (
        svds.append(a) if np.shape(a) in (shape, shape[::-1]) else None)
        or real_svd(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: (
        qrs.append(a.shape)) or real_qr(a, *args, **kw))
    result = runner._run_check(check, ctx)
    # the check reached its verdict, or the precondition FAIL named above
    assert result.data or result.note == "witness uniqueness requires a frame system"
    if coordinate:
        assert svds == [] and qrs == []
    elif check == "similarity":
        assert result.note == "witness uniqueness requires a frame system"
        assert qrs == [] and len(svds) == 1 and svds[0] is base.synthesis
    else:
        assert qrs == [] and len(svds) == 2
        assert svds[0] is base.synthesis and svds[1] is not base.synthesis


def test_with_seed_keeps_the_checked_pair(monkeypatch):
    """with_seed casts the pair when the seed is complex, keeps its
    comm_residual, checks the seed's length and computes no commutator."""
    from bidiscframes import frames

    t = next(f for f in CATALOG if f.name == "inner-zw").make_submodule(make_space((4, 4)))
    triple = triple_from_quotient(quotient(t))
    monkeypatch.setattr(frames, "opnorm", lambda *args: pytest.fail("commutator recomputed"))
    real = triple.with_seed(2.0 * triple.phi)
    assert real.T1 is triple.T1 and real.phi.dtype == np.float64
    moved = triple.with_seed(1j * triple.phi)
    assert moved.T1.dtype == moved.T2.dtype == moved.phi.dtype == np.complex128
    np.testing.assert_array_equal(moved.T1, triple.T1)
    assert moved.comm_residual == triple.comm_residual and moved.dim == triple.dim
    with pytest.raises(ValueError, match="seed length"):
        triple.with_seed(triple.phi[:-1])



# --- inner truncation: one pass over the axis factors ---------------------


def ref_build_inner(spec, order):
    """The dict-based truncation: each factor's polynomial multiplied into a
    BidiscPoly, clipped to the box, its tail bound carried as
    err + l1(acc) tail + dropped, and the axis factors multiplied
    separately."""
    order = DegreePair(*order)

    def unit(a):
        c = np.zeros(a + 1, dtype=np.complex128)
        c[a] = 1.0
        return c

    def accumulate(acc, err, fpoly, ftail):
        l1 = sum(abs(c) for c in acc.coeffs.values())
        kept, dropped_sq = {}, 0.0
        for (i, j), c in (acc * fpoly).coeffs.items():
            if i <= order.d1 and j <= order.d2:
                kept[(i, j)] = c
            else:
                dropped_sq += abs(c) ** 2
        return BidiscPoly(kept), err + l1 * ftail + math.sqrt(dropped_sq)

    if spec.kind == "monomial":
        if not order.covers(spec.degree):
            raise ValueError(
                f"monomial degree {tuple(spec.degree)} exceeds box {tuple(order)}"
            )
        a, b = spec.degree
        return InnerPoly(spec=spec, poly=BidiscPoly.monomial(a, b), trunc_error=0.0,
                         axis_factors=(unit(a), unit(b)))
    acc, err = BidiscPoly.one(), 0.0
    theta = [unit(0), unit(0)]
    if spec.kind in ("blaschke_z", "blaschke_w"):
        axis = 0 if spec.kind == "blaschke_z" else 1
        for zero in spec.zeros:
            series, tail = _factor_series(zero, order[axis])
            key = (lambda k: (k, 0)) if axis == 0 else (lambda k: (0, k))
            fpoly = BidiscPoly({key(k): c for k, c in enumerate(series)})
            acc, err = accumulate(acc, err, fpoly, tail)
            theta[axis] = np.convolve(theta[axis], series)[: order[axis] + 1]
    else:
        for factor in spec.factors:
            built = ref_build_inner(factor, order)
            acc, err = accumulate(acc, err, built.poly, built.trunc_error)
            theta = [np.convolve(t, f)[: d + 1]
                     for t, f, d in zip(theta, built.axis_factors, order)]
    return InnerPoly(spec=spec, poly=acc, trunc_error=err, axis_factors=tuple(theta))


_M, _Z, _W, _PROD = (InnerSpec.monomial, InnerSpec.blaschke_z, InnerSpec.blaschke_w,
                     InnerSpec.product)
CATALOG_SPECS = {f.name: f.spec for f in CATALOG if f.spec is not None}
# name -> (spec, at most one non-monomial factor)
INNER_CASES = {
    "constant": (_M(0, 0), True),
    "z2w": (_M(2, 1), True),
    "z6": (_M(6, 0), True),
    "w5": (_M(0, 5), True),
    "z-zero": (_Z([0.5]), True),
    "w-zero": (_W([-0.3]), True),
    "complex-zero": (COMPLEX_SPEC, True),
    "blaschke-half": (CATALOG_SPECS["blaschke-half"], True),
    "blaschke-product": (CATALOG_SPECS["blaschke-product"], True),
    "monomial-times-complex-zero": (_PROD([_M(3, 1), _Z([0.3 + 0.4j])]), True),
    "two-z-zeros": (_Z([0.5, -0.3]), False),
    "two-w-zeros": (_W([0.5, 0.2 + 0.1j]), False),
    "three-z-zeros": (_Z([0.9, 0.85, 0.5]), False),
    "z-and-w-times-monomial": (_PROD([_Z([0.5]), _W([-0.3]), _M(1, 1)]), False),
}
INNER_ORDERS = [(6, 0), (6, 1), (8, 5), (10, 4), (12, 12), (28, 28)]


@pytest.mark.parametrize("order", INNER_ORDERS)
@pytest.mark.parametrize("name", INNER_CASES)
def test_build_inner_matches_the_dict_reference(name, order):
    """The axis factors are the old ones bit for bit; the polynomial and
    the tail bound are too when at most one factor is not a monomial, and
    otherwise agree to 1e-15, the rounding of the summation order."""
    spec, single = INNER_CASES[name]
    try:
        ref = ref_build_inner(spec, order)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            build_inner(spec, order)
        return
    got = build_inner(spec, order)
    for a, b in zip(got.axis_factors, ref.axis_factors):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.poly.coeffs.keys() == ref.poly.coeffs.keys()
    if single:
        assert got.poly == ref.poly and got.trunc_error == ref.trunc_error
    else:
        for key, c in ref.poly.coeffs.items():
            assert abs(got.poly.coeffs[key] - c) <= 1e-15
        assert got.trunc_error == pytest.approx(ref.trunc_error, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("order", [4, 8, 16])
@pytest.mark.parametrize("spec", [_Z([0.9]), _W([0.85, -0.5]), _Z([0.9, 0.85, 0.3 + 0.4j])],
                         ids=["one-zero", "two-zeros", "three-zeros"])
def test_trunc_error_bounds_the_distance_to_a_long_truncation(spec, order):
    """trunc_error is a certified l2 bound: two truncations of one inner
    function are no further apart than the sum of their bounds (exact for
    one zero, up to rounding)."""
    axis = 0 if spec.kind == "blaschke_z" else 1
    box, long_box = [0, 0], [0, 0]
    box[axis], long_box[axis] = order, 400
    short, long = build_inner(spec, box), build_inner(spec, long_box)
    gap = long.axis_factors[axis].copy()
    gap[: order + 1] -= short.axis_factors[axis]
    assert np.linalg.norm(gap) <= (1 + 1e-12) * (short.trunc_error + long.trunc_error)
