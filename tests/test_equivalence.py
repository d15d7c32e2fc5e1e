"""The small-side subspace tests against dense reference implementations.

The package computes the double-commutation, kernel and quotient tests
from the k-dimensional complement of each subspace, and reads the frame
report, the row space and the recovered model off one cached thin SVD
per iterate system.  The reference functions below are the versions
those replaced: n x n compressions, null-space SVDs, projector
differences, column-index lists, a full SVD per recovery and a Jordan
sweep that recomputes each iterate.  They live here only, as the
yardstick: verdicts and counts must agree exactly, residuals to 1e-12.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from bidiscframes._linalg import subspace_distance
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
from bidiscframes.models import recover_model
from bidiscframes.submodule import (
    COMMUTE_TOL,
    doubly_commute_test,
    generated_submodule,
    jordan_identity_check,
    jordan_identity_residual,
    quotient,
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
