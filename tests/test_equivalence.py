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
spanning family, which multi-term generators still take.
"""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from bidiscframes import runner
from bidiscframes._linalg import (
    canonical_basis,
    opnorm,
    orthonormal_split,
    subspace_distance,
)
from bidiscframes.fixtures import CATALOG, build_chain
from bidiscframes.frames import (
    CLASS_RTOL,
    KERNEL_RTOL,
    OperatorTriple,
    PreconditionError,
    frame_bounds,
    iterate,
    kernel_doubly_commutes,
    kernel_shift_invariance,
    synthesis_kernel,
    synthesis_rowspace,
)
from bidiscframes.hardy import BidiscPoly, make_space, shift_matrix, shift_rows
from bidiscframes.inner import InnerSpec, build_inner
from bidiscframes.models import recover_model
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


def assert_complement_is_canonical(sub, rng):
    """The complement is the reference complement in canonical form, and
    that form does not move when the input basis is rotated."""
    rank, ref = ref_complement(sub)
    k = sub.complement
    assert sub.rank == rank
    assert k.shape == ref.shape and k.dtype == np.complex128
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


def test_random_commuting_systems_match_dense_reference():
    rng = np.random.default_rng(7)
    for dim, horizon in [(3, (4, 4)), (4, (2, 6)), (5, (6, 3)), (6, (1, 1)), (4, (0, 5))]:
        assert_kernel_tests_match(random_system(rng, dim, horizon))


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
    for dim, horizon in [(3, (4, 4)), (4, (2, 6)), (5, (6, 3)), (6, (1, 1)), (4, (0, 5))]:
        assert_factorisation_matches(random_system(rng, dim, horizon))


def test_frame_report_is_cached_on_a_read_only_system():
    sys = random_system(np.random.default_rng(13), 4, (5, 5))
    assert frame_bounds(sys) is frame_bounds(sys)
    with pytest.raises(ValueError, match="read-only"):
        sys.synthesis[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sys.vectors[0, 0, 0] = 1.0


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
    expected = np.eye(space.dim, dtype=np.complex128)[:, ~inside]
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
