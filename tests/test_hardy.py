"""Coefficient grids, monomial basis, and truncated shift matrices."""

import numpy as np
import pytest

from bidiscframes.hardy import (
    BidiscPoly,
    DegreePair,
    adjoint_shift,
    inner_product,
    make_space,
    mult_operator,
    shift_matrix,
    shift_w,
    shift_z,
)

RNG = np.random.default_rng(20240811)


def random_poly(rng, maxdeg=(3, 3)):
    coeffs = {}
    for i in range(maxdeg[0] + 1):
        for j in range(maxdeg[1] + 1):
            if rng.random() < 0.6:
                coeffs[(i, j)] = complex(rng.standard_normal(), rng.standard_normal())
    return BidiscPoly(coeffs)


def test_degree_pair_covers():
    assert DegreePair(4, 3).covers(DegreePair(4, 3))
    assert DegreePair(4, 3).covers(DegreePair(0, 0))
    assert not DegreePair(4, 3).covers(DegreePair(5, 0))
    assert not DegreePair(4, 3).covers(DegreePair(0, 4))


def test_space_dimension_and_row_major_index():
    space = make_space((3, 2))
    assert space.dim == 12
    # row-major with the second degree fastest
    assert space.index(0, 0) == 0
    assert space.index(0, 2) == 2
    assert space.index(1, 0) == 3
    assert space.index(3, 2) == 11
    for k, (i, j) in enumerate(space.pairs()):
        assert space.index(i, j) == k


def test_index_bounds_checked():
    space = make_space((2, 2))
    with pytest.raises(ValueError):
        space.index(3, 0)
    with pytest.raises(ValueError):
        space.index(0, -1)


def test_monomial_basis_is_orthonormal():
    space = make_space((4, 4))
    vecs = np.column_stack(
        [space.basis_vector(i, j) for i, j in space.pairs()]
    )
    gram = vecs.conj().T @ vecs
    assert np.array_equal(gram, np.eye(space.dim))


def test_to_vec_rejects_overflow_without_clip():
    space = make_space((2, 2))
    f = BidiscPoly.monomial(3, 0)
    with pytest.raises(ValueError, match="exceeds box"):
        space.to_vec(f)
    assert np.allclose(space.to_vec(f, clip=True), np.zeros(space.dim))


def test_vec_poly_round_trip():
    space = make_space((3, 3))
    f = random_poly(RNG)
    v = space.to_vec(f)
    g = space.from_vec(v)
    assert f.coeffs == pytest.approx(g.coeffs)


def test_inner_product_matches_coefficient_sum():
    f = BidiscPoly({(0, 0): 1 + 2j, (1, 1): 3.0})
    g = BidiscPoly({(0, 0): 2.0, (1, 1): 1j, (2, 0): 5.0})
    # linear in the first argument, conjugate-linear in the second
    assert inner_product(f, g) == pytest.approx((1 + 2j) * 2 + 3 * (-1j))
    assert inner_product(f, f) == pytest.approx(abs(1 + 2j) ** 2 + 9)


def test_inner_product_sesquilinearity():
    for _ in range(20):
        f, g, h = (random_poly(RNG) for _ in range(3))
        a = complex(RNG.standard_normal(), RNG.standard_normal())
        lhs = inner_product((f * a) + g, h)
        rhs = a * inner_product(f, h) + inner_product(g, h)
        assert lhs == pytest.approx(rhs)
        assert inner_product(h, f) == pytest.approx(np.conj(inner_product(f, h)))


def test_poly_arithmetic_and_evaluation():
    f = BidiscPoly({(1, 0): 1.0, (0, 1): 2.0})
    g = f * f
    assert g.coeffs == {(2, 0): 1.0, (1, 1): 4.0, (0, 2): 4.0}
    z, w = 0.3 + 0.1j, -0.2 + 0.5j
    assert g.evaluate(z, w) == pytest.approx((z + 2 * w) ** 2)
    diff = g - g
    assert diff.coeffs == {}
    assert diff.evaluate(z, w) == 0


def test_poly_norm_is_l2_of_coefficients():
    f = BidiscPoly({(0, 0): 3.0, (2, 1): 4.0})
    assert f.norm() == pytest.approx(5.0)


def test_shift_helpers_raise_degrees():
    f = random_poly(RNG)
    assert tuple(shift_z(f).maxdeg) == (f.maxdeg.d1 + 1, f.maxdeg.d2)
    assert tuple(shift_w(f).maxdeg) == (f.maxdeg.d1, f.maxdeg.d2 + 1)


def test_shift_matrix_action_and_truncation():
    space = make_space((2, 2))
    sz = shift_matrix(space, "z")
    sw = shift_matrix(space, "w")
    for i, j in space.pairs():
        e = space.basis_vector(i, j)
        target_z = space.basis_vector(i + 1, j) if i < 2 else np.zeros(space.dim)
        target_w = space.basis_vector(i, j + 1) if j < 2 else np.zeros(space.dim)
        assert np.array_equal(sz @ e, target_z)
        assert np.array_equal(sw @ e, target_w)
    assert np.array_equal(sz @ sw, sw @ sz)


def test_shifts_are_nilpotent():
    space = make_space((3, 2))
    sz = shift_matrix(space, "z")
    sw = shift_matrix(space, "w")
    assert np.any(np.linalg.matrix_power(sz, 3))
    assert not np.any(np.linalg.matrix_power(sz, 4))
    assert not np.any(np.linalg.matrix_power(sw, 3))


def test_adjoint_shift_is_conjugate_transpose():
    space = make_space((3, 3))
    for axis in ("z", "w"):
        s = shift_matrix(space, axis)
        assert np.array_equal(adjoint_shift(space, axis), s.conj().T)


def test_shift_isometric_on_interior():
    space = make_space((5, 5))
    sz = shift_matrix(space, "z")
    for _ in range(10):
        f = random_poly(RNG, maxdeg=(4, 5))
        v = space.to_vec(f)
        assert np.linalg.norm(sz @ v) == pytest.approx(np.linalg.norm(v))


def test_mult_operator_matches_poly_product_with_clipping():
    space = make_space((3, 3))
    phi = BidiscPoly({(1, 1): 1.0, (0, 0): 0.5})
    m = mult_operator(phi, space)
    for _ in range(10):
        f = random_poly(RNG, maxdeg=(3, 3))
        v = space.to_vec(f)
        prod = space.to_vec(phi * f, clip=True)
        np.testing.assert_allclose(m @ v, prod, atol=1e-14)


def test_mult_operator_rejects_oversized_symbol():
    space = make_space((2, 2))
    with pytest.raises(ValueError):
        mult_operator(BidiscPoly.monomial(3, 0), space)


def test_poly_json_round_trip():
    f = random_poly(RNG)
    g = BidiscPoly.from_json(f.to_json())
    assert f.coeffs == g.coeffs


def test_unknown_axis_rejected():
    space = make_space((2, 2))
    with pytest.raises(ValueError):
        shift_matrix(space, "q")
