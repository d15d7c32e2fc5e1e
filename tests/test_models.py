"""Similarity transport, witnesses, and model recovery."""

import numpy as np
import pytest

from bidiscframes.frames import GuardError, OperatorTriple, frame_bounds, iterate
from bidiscframes.hardy import make_space, shift_matrix
from bidiscframes.inner import InnerSpec, build_inner
from bidiscframes.models import (
    certify_similarity,
    estimate_similarity,
    random_similarity,
    recover_model,
    transport,
    triple_from_quotient,
    uniqueness_of_L,
)
from bidiscframes.submodule import beurling_submodule, quotient
from bidiscframes._linalg import subspace_distance

RNG = np.random.default_rng(20240815)


def zw_chain(order=(5, 5)):
    space = make_space(order)
    sub = beurling_submodule(build_inner(InnerSpec.monomial(1, 1), order), space)
    quot = quotient(sub)
    triple = triple_from_quotient(quot)
    return space, sub, quot, triple, iterate(triple, order)


def test_triple_from_trivial_quotient_rejected():
    space = make_space((2, 2))
    full = beurling_submodule(build_inner(InnerSpec.monomial(0, 0), (2, 2)), space)
    with pytest.warns(UserWarning, match="trivial"):
        quot = quotient(full)
    assert quot.trivial
    with pytest.raises(ValueError, match="trivial"):
        triple_from_quotient(quot)


def test_transport_round_trip_certifies():
    _, _, _, triple, _ = zw_chain()
    l = random_similarity(triple.dim, RNG)
    moved, witness = transport(triple, l)
    assert witness.certified
    assert witness.residual_T1 <= 1e-10
    assert witness.residual_T2 <= 1e-10
    assert witness.residual_phi <= 1e-12
    # conjugating back recovers the original
    back, _ = transport(moved, np.linalg.inv(l))
    assert np.linalg.norm(back.T1 - triple.T1, 2) <= 1e-8
    assert np.linalg.norm(back.phi - triple.phi) <= 1e-8


def test_transport_rejects_singular_map():
    _, _, _, triple, _ = zw_chain((4, 4))
    l = np.zeros((triple.dim, triple.dim))
    with pytest.raises(ValueError, match="singular"):
        transport(triple, l)


def test_transport_condition_guard():
    _, _, _, triple, _ = zw_chain((4, 4))
    l = np.diag(np.geomspace(1.0, 1e-8, triple.dim)).astype(np.complex128)
    with pytest.raises(GuardError, match="condition"):
        transport(triple, l, condition_cap=1e6)


def test_transport_scales_parseval_bounds():
    _, _, _, triple, sys = zw_chain()
    moved, _ = transport(triple, 2.0 * np.eye(triple.dim))
    rep = frame_bounds(iterate(moved, sys.horizon))
    assert rep.lower == pytest.approx(4.0, abs=1e-9)
    assert rep.upper == pytest.approx(4.0, abs=1e-9)


def test_transport_brackets_bounds_by_singular_values():
    _, _, _, triple, sys = zw_chain()
    base = frame_bounds(sys)
    for _ in range(5):
        l = random_similarity(triple.dim, RNG)
        moved, witness = transport(triple, l)
        rep = frame_bounds(iterate(moved, sys.horizon))
        assert rep.is_frame
        assert rep.lower >= witness.sigma_min**2 * base.lower - 1e-9
        assert rep.upper <= witness.sigma_max**2 * base.upper + 1e-9


def test_transport_preserves_synthesis_kernel():
    from bidiscframes.frames import synthesis_kernel

    _, _, _, triple, sys = zw_chain()
    l = random_similarity(triple.dim, RNG)
    moved, _ = transport(triple, l)
    moved_sys = iterate(moved, sys.horizon)
    gap = subspace_distance(synthesis_kernel(sys), synthesis_kernel(moved_sys))
    assert gap <= 1e-10


def test_random_similarity_is_well_conditioned():
    for _ in range(10):
        l = random_similarity(13, RNG)
        s = np.linalg.svd(l, compute_uv=False)
        assert s[0] / s[-1] <= 20.0


def test_certify_rejects_wrong_map():
    _, _, _, triple, _ = zw_chain((4, 4))
    wrong = np.eye(triple.dim) + 0.5 * RNG.standard_normal((triple.dim, triple.dim))
    target, _ = transport(triple, random_similarity(triple.dim, RNG))
    witness = certify_similarity(wrong, triple, target)
    assert not witness.certified


def test_certify_rejects_a_witness_moved_by_1e_6_in_one_entry(monkeypatch):
    """The witness is checked against the triple it claims to produce, by
    L T = T' L with no solve, not by recomputing that triple: one entry
    off by 1e-6 fails.  transport takes one SVD of L and hands its
    singular values to the certificate."""
    _, _, _, triple, _ = zw_chain((4, 4))
    l = random_similarity(triple.dim, RNG)
    svd_calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **kw: svd_calls.append(1) or real_svd(*a, **kw))
    target, witness = transport(triple, l)
    assert witness.certified and len(svd_calls) == 1
    assert (witness.sigma_min, witness.sigma_max) == tuple(real_svd(l, compute_uv=False)[[-1, 0]])

    def refuse(*args, **kwargs):
        raise AssertionError("solve in a certificate")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    moved = l.copy()
    moved[2, 3] += 1e-6
    bad = certify_similarity(moved, triple, target)
    assert not bad.certified
    assert min(bad.residual_T1, bad.residual_T2) > 1e-8


def test_estimate_similarity_recovers_map_on_frames():
    _, _, _, triple, sys = zw_chain()
    l = random_similarity(triple.dim, RNG)
    moved, _ = transport(triple, l)
    est = estimate_similarity(sys, iterate(moved, sys.horizon))
    assert np.linalg.norm(est - l, 2) <= 1e-9


def test_estimate_requires_matching_horizons():
    _, _, _, triple, sys = zw_chain()
    with pytest.raises(ValueError, match="horizon"):
        estimate_similarity(sys, iterate(triple, (3, 3)))


def test_uniqueness_of_witnesses():
    _, _, _, triple, sys = zw_chain()
    l = random_similarity(triple.dim, RNG)
    est = estimate_similarity(sys, iterate(transport(triple, l)[0], sys.horizon))
    rep = uniqueness_of_L(sys, l, est)
    assert rep.certified
    assert rep.distance <= 1e-9


def test_uniqueness_rejects_uncertified_witness():
    _, _, _, triple, sys = zw_chain()
    l = random_similarity(triple.dim, RNG)
    bogus = l + 0.1 * RNG.standard_normal(l.shape)
    with pytest.raises(ValueError, match="not certified"):
        uniqueness_of_L(sys, l, bogus)


def test_recover_model_round_trip():
    _, sub, quot, triple, sys = zw_chain()
    rec = recover_model(sys)
    assert rec.k_dim == quot.dim
    assert rec.intertwine_residual_z <= 1e-10
    assert rec.intertwine_residual_w <= 1e-10
    assert rec.residual_phi <= 1e-10
    assert rec.cond_W < 1e3
    # with horizon == order the horizon coordinates are the ambient ones,
    # so the recovered quotient must coincide with the constructed one
    gap = subspace_distance(
        rec.k_onb @ rec.k_onb.conj().T,
        quot.onb_k @ quot.onb_k.conj().T,
    )
    assert gap <= 1e-10
    assert rec.kernel_onb.shape[1] == sub.rank


def test_recover_model_on_transported_system():
    _, _, quot, triple, sys = zw_chain()
    l = random_similarity(triple.dim, RNG)
    moved, _ = transport(triple, l)
    rec = recover_model(iterate(moved, sys.horizon))
    assert rec.k_dim == quot.dim
    assert rec.intertwine_residual_z <= 1e-8
    assert rec.intertwine_residual_w <= 1e-8
    # the recovered row space is similarity-invariant
    gap = subspace_distance(
        rec.k_onb @ rec.k_onb.conj().T,
        quot.onb_k @ quot.onb_k.conj().T,
    )
    assert gap <= 1e-9


def test_recover_requires_frame():
    _, _, _, triple, _ = zw_chain()
    with pytest.raises(ValueError, match="^recovery needs a frame system$"):
        recover_model(iterate(triple, (1, 1)))


def test_recover_minimal_frame_kernel_is_empty():
    space = make_space((4, 4))
    triple = OperatorTriple(
        T1=shift_matrix(space, "z"),
        T2=shift_matrix(space, "w"),
        phi=space.basis_vector(0, 0),
    )
    rec = recover_model(iterate(triple, (4, 4)))
    assert rec.kernel_onb.shape[1] == 0
    assert rec.k_dim == space.dim
