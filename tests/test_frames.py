"""Iterate systems, frame bounds, classification, and kernel structure."""

import numpy as np
import pytest

from bidiscframes.frames import (
    CLASS_RTOL,
    GuardError,
    OperatorTriple,
    frame_bounds,
    iterate,
    kernel_doubly_commutes,
    kernel_shift_invariance,
    moved_frame_report,
    synthesis_kernel,
)
from bidiscframes.fixtures import get_fixture
from bidiscframes.hardy import make_space, shift_matrix
from bidiscframes.inner import InnerSpec, build_inner
from bidiscframes.models import triple_from_quotient
from bidiscframes.submodule import beurling_submodule, quotient

RNG = np.random.default_rng(20240814)


def monomial_triple(a, b, order=(5, 5)):
    space = make_space(order)
    sub = beurling_submodule(build_inner(InnerSpec.monomial(a, b), order), space)
    quot = quotient(sub)
    return space, sub, quot, triple_from_quotient(quot)


def shifts_triple(order):
    space = make_space(order)
    return space, OperatorTriple(
        T1=shift_matrix(space, "z"),
        T2=shift_matrix(space, "w"),
        phi=space.basis_vector(0, 0),
    )


def test_triple_validates_shapes_and_commutation():
    a = np.zeros((3, 3))
    b = np.zeros((2, 2))
    with pytest.raises(ValueError):
        OperatorTriple(T1=a, T2=b, phi=np.zeros(3))
    with pytest.raises(ValueError):
        OperatorTriple(T1=a, T2=a, phi=np.zeros(2))
    t1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    t2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="commute"):
        OperatorTriple(T1=t1, T2=t2, phi=np.zeros(2))


def test_iterate_matches_direct_powers():
    _, _, _, triple = monomial_triple(1, 1, order=(4, 4))
    sys = iterate(triple, (3, 3))
    for i in range(4):
        for j in range(4):
            direct = (
                np.linalg.matrix_power(triple.T1, i)
                @ np.linalg.matrix_power(triple.T2, j)
                @ triple.phi
            )
            np.testing.assert_allclose(sys.vector(i, j), direct, atol=1e-12)
            col = sys.synthesis[:, sys.col_index(i, j)]
            np.testing.assert_allclose(col, direct, atol=0)


def test_iterate_column_order_is_row_major():
    _, _, _, triple = monomial_triple(1, 1, order=(3, 3))
    sys = iterate(triple, (2, 2))
    assert sys.ncols == 9
    assert sys.col_index(0, 0) == 0
    assert sys.col_index(0, 2) == 2
    assert sys.col_index(1, 0) == 3
    with pytest.raises(ValueError):
        sys.col_index(3, 0)


@pytest.mark.parametrize("a,b", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
def test_parseval_exactness_monomial_catalog(a, b):
    space, sub, quot, triple = monomial_triple(a, b, order=(6, 6))
    sys = iterate(triple, (6, 6))
    s = sys.synthesis @ sys.synthesis.conj().T
    assert np.linalg.norm(s - np.eye(quot.dim), 2) <= 1e-12
    rep = frame_bounds(sys)
    assert rep.classification == "parseval"
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.kernel_dim == sub.rank


def test_riesz_system_is_minimal_frame():
    space, triple = shifts_triple((5, 5))
    rep = frame_bounds(iterate(triple, (5, 5)))
    assert rep.classification == "minimal_frame"
    assert rep.kernel_dim == 0
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)


def test_minimal_frame_checked_before_parseval():
    # a Parseval system with trivial kernel must be called minimal_frame
    space, triple = shifts_triple((3, 3))
    rep = frame_bounds(iterate(triple, (3, 3)))
    s = np.eye(space.dim)
    assert rep.kernel_dim == 0
    assert rep.classification == "minimal_frame"


def test_not_frame_when_horizon_too_small():
    _, _, quot, triple = monomial_triple(1, 1, order=(5, 5))
    # horizon (1, 1) gives 4 vectors for a 11-dim quotient
    rep = frame_bounds(iterate(triple, (1, 1)))
    assert rep.classification == "not_frame"
    assert rep.lower <= rep.rtol * rep.upper
    assert not rep.is_frame


def test_scaled_seed_stays_frame_with_scaled_bounds():
    _, _, _, triple = monomial_triple(1, 1, order=(5, 5))
    doubled = OperatorTriple(T1=triple.T1, T2=triple.T2, phi=2.0 * triple.phi)
    rep = frame_bounds(iterate(doubled, (5, 5)))
    assert rep.classification == "frame"
    assert rep.lower == pytest.approx(4.0, abs=1e-10)
    assert rep.upper == pytest.approx(4.0, abs=1e-10)


def test_bound_trace_is_monotone_and_converges():
    _, _, _, triple = monomial_triple(1, 1, order=(5, 5))
    rep = frame_bounds(iterate(triple, (5, 5)))
    trace = rep.bound_trace
    lowers = [lo for _, lo, _ in trace]
    uppers = [hi for _, _, hi in trace]
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert lowers[-1] == pytest.approx(1.0, abs=1e-9)
    assert uppers[-1] == pytest.approx(1.0, abs=1e-9)


def test_synthesis_kernel_dimension_and_orthogonality():
    _, sub, quot, triple = monomial_triple(1, 1, order=(5, 5))
    sys = iterate(triple, (5, 5))
    kernel = synthesis_kernel(sys)
    assert kernel.shape == (36, sub.rank)
    assert np.linalg.norm(sys.synthesis @ kernel, 2) <= 1e-12
    gram = kernel.conj().T @ kernel
    np.testing.assert_allclose(gram, np.eye(kernel.shape[1]), atol=1e-12)


def test_kernel_invariance_for_overcomplete_frames():
    for a, b in [(1, 0), (1, 1), (2, 1)]:
        _, _, _, triple = monomial_triple(a, b, order=(5, 5))
        rep = kernel_shift_invariance(iterate(triple, (5, 5)))
        assert not rep.vacuous
        assert not rep.inconclusive
        assert rep.n_checked > 0
        assert rep.residual <= 1e-10


def test_kernel_invariance_trivial_kernel_is_vacuous():
    _, triple = shifts_triple((3, 3))
    rep = kernel_shift_invariance(iterate(triple, (3, 3)))
    assert rep.vacuous
    assert rep.residual == 0.0


def test_kernel_doubly_commutes_on_beurling_frames():
    for a, b in [(1, 0), (1, 1)]:
        _, _, _, triple = monomial_triple(a, b, order=(5, 5))
        rep = kernel_doubly_commutes(iterate(triple, (5, 5)))
        assert not rep.vacuous
        assert rep.verdict
        assert rep.residual <= 1e-10


def test_kernel_commute_report_trivial():
    _, triple = shifts_triple((3, 3))
    rep = kernel_doubly_commutes(iterate(triple, (3, 3)))
    assert rep.vacuous
    assert rep.verdict


def test_dimension_guard(monkeypatch):
    monkeypatch.setenv("BDF_MAX_DIM", "10")
    _, triple = shifts_triple((3, 3))
    with pytest.raises(GuardError, match="BDF_MAX_DIM"):
        iterate(triple, (3, 3))
    monkeypatch.setenv("BDF_MAX_DIM", "100")
    assert iterate(triple, (3, 3)).ncols == 16


def test_column_guard():
    _, triple = shifts_triple((2, 2))
    with pytest.raises(GuardError, match="columns"):
        iterate(triple, (400, 400))


def test_report_serialization():
    _, _, _, triple = monomial_triple(1, 1, order=(4, 4))
    rep = frame_bounds(iterate(triple, (4, 4)))
    d = rep.to_dict()
    assert d["classification"] == "parseval"
    assert isinstance(d["bound_trace"], list)
    assert len(d["bound_trace"]) == len(rep.bound_trace) == 5
    assert d["rtol"] == rep.rtol == CLASS_RTOL


@pytest.mark.parametrize("name,kind", [
    ("inner-zw", "frame"), ("inner-z2w", "frame"), ("riesz-model", "minimal_frame"),
])
def test_frame_class_at_any_seed_scale(name, kind):
    """A seed scaled by c scales the frame bounds by |c|^2, so the class of
    a frame does not depend on c (a Parseval frame becomes a frame).  The
    squared bounds saturate to inf or 0.0 outside the float range, and
    neither frame_bounds nor moved_frame_report raises."""
    space = make_space((6, 6))
    triple = triple_from_quotient(quotient(get_fixture(name).make_submodule(space)))
    base = iterate(triple, (6, 6))
    for c in (1e160, 1e170, 1e-160, 1e-170):
        scaled = iterate(triple.with_seed(c * triple.phi), (6, 6))
        rep = frame_bounds(scaled)
        gap, moved = moved_frame_report(base, scaled)
        # the synthesis entries are c times +-1, so the bounds are c * c
        assert rep.lower == rep.upper == moved.lower == moved.upper == c * c
        assert rep.classification == moved.classification == kind and gap == 0.0
