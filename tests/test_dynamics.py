"""Adjoint orbit decay, the forward-orbit probe, and frame-vector
equivalence."""

import numpy as np
import pytest

from bidiscframes.dynamics import (
    adjoint_decay,
    conjecture_probe,
    equivalent_frame_vector,
    partial_energy,
)
from bidiscframes.frames import (
    InvariantViolation,
    OperatorTriple,
    frame_bounds,
    iterate,
)
from bidiscframes.hardy import make_space, shift_matrix
from bidiscframes.inner import InnerSpec, build_inner
from bidiscframes.models import triple_from_quotient
from bidiscframes.submodule import beurling_submodule, quotient

RNG = np.random.default_rng(20240816)


def zw_triple(order=(5, 5)):
    space = make_space(order)
    sub = beurling_submodule(build_inner(InnerSpec.monomial(1, 1), order), space)
    return triple_from_quotient(quotient(sub))


def random_state(dim, rng):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_adjoint_decay_exact_past_nilpotency():
    triple = zw_triple((5, 5))
    f = random_state(triple.dim, RNG)
    trace = adjoint_decay(triple, f, (6, 6))
    assert trace.direction == "adjoint"
    assert trace.norms.shape == (7, 7)
    assert trace.norms[0, 0] == pytest.approx(np.linalg.norm(f))
    # compressed truncated shifts are nilpotent with index order + 1
    assert trace.tail_max == 0.0
    assert trace.corner == 0.0
    assert trace.decayed


def test_adjoint_decay_norms_match_direct_computation():
    triple = zw_triple((4, 4))
    f = random_state(triple.dim, RNG)
    trace = adjoint_decay(triple, f, (3, 3))
    a1 = triple.T1.conj().T
    a2 = triple.T2.conj().T
    for i in range(4):
        for j in range(4):
            direct = np.linalg.norm(
                np.linalg.matrix_power(a1, i) @ np.linalg.matrix_power(a2, j) @ f
            )
            assert trace.norms[i, j] == pytest.approx(direct, abs=1e-12)


def test_adjoint_decay_checks_vector_length():
    triple = zw_triple((4, 4))
    with pytest.raises(ValueError, match="length"):
        adjoint_decay(triple, np.zeros(3), (2, 2))


def test_probe_warns_without_kernel_verdict():
    triple = zw_triple((4, 4))
    f = random_state(triple.dim, RNG)
    with pytest.warns(UserWarning, match="not verified"):
        trace = conjecture_probe(triple, f, (5, 5))
    assert trace.direction == "forward"
    assert "evidence only" in trace.note
    # forward orbits of nilpotent compressions vanish too; evidence, no claim
    assert trace.tail_max == 0.0


def test_probe_silent_with_positive_verdict():
    import warnings

    triple = zw_triple((4, 4))
    f = random_state(triple.dim, RNG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = conjecture_probe(triple, f, (5, 5), kernel_verdict=True)
    assert "evidence only" in trace.note


def test_summability_bounded_by_upper_frame_bound():
    triple = zw_triple((5, 5))
    sys = iterate(triple, (6, 6))
    rep = frame_bounds(sys)
    for _ in range(20):
        f = random_state(triple.dim, RNG)
        total = partial_energy(sys, f)
        assert total <= rep.upper * np.linalg.norm(f) ** 2 + 1e-8


def test_lower_bound_chain():
    # frame bound applied to the orbit state, reindexed into a tail sum
    triple = zw_triple((5, 5))
    sys = iterate(triple, (6, 6))
    rep = frame_bounds(sys)
    a1 = triple.T1.conj().T
    a2 = triple.T2.conj().T
    for _ in range(20):
        f = random_state(triple.dim, RNG)
        for m1, m2 in [(0, 0), (1, 0), (0, 1), (2, 2), (3, 1)]:
            g = (
                np.linalg.matrix_power(a2, m2)
                @ np.linalg.matrix_power(a1, m1)
                @ f
            )
            tail = partial_energy(sys, f, start=(m1, m2))
            assert rep.lower * np.linalg.norm(g) ** 2 <= tail + 1e-8


def test_partial_energy_start_outside_horizon_is_zero():
    triple = zw_triple((3, 3))
    sys = iterate(triple, (3, 3))
    assert partial_energy(sys, random_state(triple.dim, RNG), start=(4, 4)) == 0.0


def test_equivalent_vector_polynomial_map_preserves_class():
    triple = zw_triple((5, 5))
    base = frame_bounds(iterate(triple, (5, 5)))
    v = np.eye(triple.dim, dtype=np.complex128) + 0.5 * (triple.T1 @ triple.T2)
    moved = equivalent_frame_vector(triple, v, (5, 5))
    assert moved.classification == base.classification
    assert moved.is_frame


def test_equivalent_vector_rejects_noncommuting_map():
    triple = zw_triple((4, 4))
    v = np.eye(triple.dim, dtype=np.complex128)
    v[0, 1] += 0.3
    v[2, 0] -= 0.2
    with pytest.raises(ValueError, match="commute with T[12]: residual"):
        equivalent_frame_vector(triple, v, (4, 4))


def test_equivalent_vector_rejects_singular_map():
    triple = zw_triple((4, 4))
    v = np.zeros((triple.dim, triple.dim))
    with pytest.raises(ValueError, match="singular"):
        equivalent_frame_vector(triple, v, (4, 4))


def test_equivalent_vector_rejects_wrong_shape():
    triple = zw_triple((4, 4))
    with pytest.raises(ValueError, match="shape"):
        equivalent_frame_vector(triple, np.eye(3), (4, 4))


def test_equivalence_symmetry_via_inverse():
    triple = zw_triple((5, 5))
    v = np.eye(triple.dim, dtype=np.complex128) + 0.5 * (triple.T1 @ triple.T2)
    base = frame_bounds(iterate(triple, (5, 5)))
    forward = equivalent_frame_vector(triple, v, (5, 5))
    moved_triple = OperatorTriple(T1=triple.T1, T2=triple.T2, phi=v @ triple.phi)
    back = equivalent_frame_vector(moved_triple, np.linalg.inv(v), (5, 5))
    assert back.classification == base.classification
    assert back.lower == pytest.approx(base.lower, abs=1e-9)
    assert back.upper == pytest.approx(base.upper, abs=1e-9)


def test_riesz_system_equivalence():
    space = make_space((4, 4))
    triple = OperatorTriple(
        T1=shift_matrix(space, "z"),
        T2=shift_matrix(space, "w"),
        phi=space.basis_vector(0, 0),
    )
    v = np.eye(space.dim, dtype=np.complex128) + 0.5 * (triple.T1 @ triple.T2)
    moved = equivalent_frame_vector(triple, v, (4, 4))
    assert moved.classification == "minimal_frame"
