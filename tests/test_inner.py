"""Inner-function catalog: monomials, Blaschke factors, products."""

import numpy as np
import pytest

from bidiscframes.hardy import DegreePair
from bidiscframes.inner import (
    InnerSpec,
    build_inner,
    verify_unimodular,
)

RNG = np.random.default_rng(20240812)


def blaschke_value(alpha, t):
    return (np.conj(alpha) / abs(alpha)) * (alpha - t) / (1 - np.conj(alpha) * t)


def test_monomial_inner_is_exact():
    ip = build_inner(InnerSpec.monomial(2, 1), (4, 4))
    assert ip.trunc_error == 0.0
    assert ip.poly.coeffs == {(2, 1): 1.0}


def test_monomial_must_fit_box():
    with pytest.raises(ValueError):
        build_inner(InnerSpec.monomial(5, 0), (4, 4))


def test_blaschke_series_coefficients_alpha_half():
    # frozen from the closed form: c_0 = |a|, c_k = conj(a)^(k-1) (|a|^2 - 1)/|a| * conj(a)
    ip = build_inner(InnerSpec.blaschke_z([0.5]), (6, 0))
    seq = ip.poly.coeffs
    assert seq[(0, 0)] == pytest.approx(0.5)
    assert seq[(1, 0)] == pytest.approx(-0.75)
    assert seq[(2, 0)] == pytest.approx(-0.375)
    assert seq[(3, 0)] == pytest.approx(-0.1875)
    # geometric recurrence c_{k+1} = conj(a) c_k for k >= 1
    for k in range(1, 6):
        assert seq[(k + 1, 0)] == pytest.approx(0.5 * seq[(k, 0)])


def test_blaschke_truncation_tail_is_exact_l2_remainder():
    order = 8
    ip = build_inner(InnerSpec.blaschke_z([0.5]), (order, 0))
    r = 0.5
    expected = r**order * np.sqrt(1 - r**2)
    assert ip.trunc_error == pytest.approx(expected, rel=1e-12)


def test_blaschke_matches_rational_form_on_grid():
    ip = build_inner(InnerSpec.blaschke_z([0.5]), (20, 0))
    for t in np.exp(2j * np.pi * RNG.random(16)):
        truncated = ip.poly.evaluate(t, 0.0)
        exact = blaschke_value(0.5, t)
        assert abs(truncated - exact) <= ip.trunc_error * 3


def test_blaschke_w_axis():
    ip = build_inner(InnerSpec.blaschke_w([0.3 + 0.2j]), (0, 10))
    assert ip.poly.maxdeg == DegreePair(0, 10)
    for t in np.exp(2j * np.pi * RNG.random(8)):
        val = ip.poly.evaluate(0.0, t)
        assert abs(val - blaschke_value(0.3 + 0.2j, t)) <= 0.05


def test_blaschke_rejects_bad_zeros():
    with pytest.raises(ValueError, match="monomial"):
        InnerSpec.blaschke_z([0.0])
    with pytest.raises(ValueError):
        InnerSpec.blaschke_z([1.0])
    with pytest.raises(ValueError):
        InnerSpec.blaschke_w([1.2j])


def test_unimodularity_monomial_exact():
    ip = build_inner(InnerSpec.monomial(1, 1), (3, 3))
    rep = verify_unimodular(ip, grid=16)
    assert rep.max_dev <= 1e-14


def test_unimodularity_blaschke_within_tail():
    ip = build_inner(InnerSpec.blaschke_z([0.5]), (12, 0))
    rep = verify_unimodular(ip, grid=32)
    # |phi| deviates from 1 by at most the l1 tail of the dropped series
    assert rep.max_dev <= 10 * ip.trunc_error
    assert rep.max_dev > 0.0


def test_product_of_monomials_is_monomial():
    spec = InnerSpec.product([InnerSpec.monomial(1, 0), InnerSpec.monomial(0, 1)])
    ip = build_inner(spec, (2, 2))
    assert ip.trunc_error == 0.0
    assert ip.poly.coeffs == {(1, 1): 1.0}


def test_product_error_bound_holds():
    spec = InnerSpec.product(
        [InnerSpec.blaschke_z([0.5]), InnerSpec.blaschke_z([-0.6])]
    )
    ip = build_inner(spec, (14, 0))
    # compare against the pointwise product of the rational factors
    worst = 0.0
    for t in np.exp(2j * np.pi * np.linspace(0, 1, 64, endpoint=False)):
        exact = blaschke_value(0.5, t) * blaschke_value(-0.6, t)
        worst = max(worst, abs(ip.poly.evaluate(t, 0.0) - exact))
    # the recorded bound controls the l2 error, hence evaluation error
    # only up to the l1/l2 gap; allow that slack
    assert worst <= 20 * ip.trunc_error
    assert ip.trunc_error < 0.05


def test_product_degree_adds():
    spec = InnerSpec.product([InnerSpec.monomial(2, 0), InnerSpec.monomial(1, 1)])
    assert spec.degree == DegreePair(3, 1)


def test_spec_json_round_trip():
    specs = [
        InnerSpec.monomial(2, 3),
        InnerSpec.blaschke_z([0.5, -0.25 + 0.1j]),
        InnerSpec.product(
            [InnerSpec.blaschke_w([0.4]), InnerSpec.monomial(1, 0)]
        ),
    ]
    for spec in specs:
        clone = InnerSpec.from_json(spec.to_json())
        assert clone == spec


def test_multi_zero_blaschke_degree():
    spec = InnerSpec.blaschke_z([0.5, -0.3])
    assert spec.degree == DegreePair(2, 0)
    ip = build_inner(spec, (16, 0))
    for t in np.exp(2j * np.pi * RNG.random(8)):
        exact = blaschke_value(0.5, t) * blaschke_value(-0.3, t)
        assert abs(ip.poly.evaluate(t, 0.0) - exact) <= 1e-3
