"""Work a ten-check run leaves out: spectral norms that only a guard reads,
and grids of iterates that only one reader walks.

A guard ||A|| <= tol is decided by the one rule _linalg.guard_norm: the
Frobenius norm, an upper bound, clears it with no Gram and no eigvalsh,
and the spectral norm is taken only when that bound does not clear, so
every decision and refusal message stays the spectral one.  The
commutator check of OperatorTriple, the witness residuals of
certify_similarity and the commutation guard of equivalent_frame_report
take it; comm_residual and residual_T1 / residual_T2 keep reading the
spectral norm, taken on first read.  The readers of the iterate
recurrence (iterate, adjoint_decay, conjecture_probe) take its column
blocks one at a time, and tracemalloc bounds what they hold.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from bidiscframes import runner
from bidiscframes._linalg import guard_norm, opnorm
from bidiscframes.dynamics import (
    COMMUTE_REQ,
    adjoint_decay,
    conjecture_probe,
    equivalent_frame_report,
)
from bidiscframes.frames import (
    COMM_TOL,
    InvariantViolation,
    OperatorTriple,
    PreconditionError,
    iterate,
)
from bidiscframes.hardy import make_space
from bidiscframes.inner import InnerSpec, build_inner
from bidiscframes.models import WITNESS_TOL, certify_similarity, triple_from_quotient
from bidiscframes.submodule import beurling_submodule, quotient

TEN_CHECKS = ("build-module", "mandrekar", "jordan", "frame-bounds", "kernel-invariance",
              "kernel-doubly-commutes", "similarity", "recover", "decay", "equiv-vector")


def spy_opnorm(monkeypatch):
    """Replace opnorm wherever the package holds it; returns the list of
    the matrices it was called on."""
    calls, real = [], opnorm

    def spy(a):
        calls.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("bidiscframes") and vars(module).get("opnorm") is real:
            monkeypatch.setattr(module, "opnorm", spy)
    return calls


def zw_triple(order):
    """The compressed shifts of the z w module: index maps, so products of
    the pair and of maps built from it are exact."""
    space = make_space(order)
    return triple_from_quotient(quotient(beurling_submodule(
        build_inner(InnerSpec.monomial(1, 1), order), space)))


def scaled(unit, norm_of, target):
    """unit scaled so that norm_of(scaled) is target: the differences
    below are linear in the perturbation, up to rounding."""
    return (target / norm_of(unit)) * unit


def test_guard_norm_takes_a_spectral_norm_only_above_the_bound(monkeypatch):
    """Cleared on the Frobenius bound: None and no opnorm call.  A Frobenius
    norm at or above tol gives the spectral norm, below tol for 0.6 I
    (Frobenius 1.04 tol) and for the single entry tol.  NaN raises."""
    calls = spy_opnorm(monkeypatch)
    tol = 1e-9
    assert guard_norm(0.5 * tol * np.eye(2), tol) is None
    assert guard_norm(np.zeros((0, 3)), tol) is None and calls == []
    assert np.linalg.norm(0.6 * tol * np.eye(3)) > tol
    assert guard_norm(0.6 * tol * np.eye(3), tol) == opnorm(0.6 * tol * np.eye(3)) <= tol
    assert guard_norm(np.array([[tol]]), tol) == tol
    assert guard_norm(2.0 * tol * np.eye(3), tol) > tol and len(calls) == 3
    with pytest.raises(np.linalg.LinAlgError):
        guard_norm(np.full((3, 3), np.nan), tol)


CASES = {"cleared": 0.1, "spectral only": 0.9, "refused": 2.0}


def frobenius_above(tol, *diffs):
    """How many of diffs the Frobenius bound of guard_norm does not clear."""
    return sum(np.linalg.norm(d) > tol * (1.0 - 1e-12) for d in diffs)


@pytest.mark.parametrize("case", CASES)
def test_triple_commutator_guard(monkeypatch, case):
    """The constructor refuses a commutator above COMM_TOL with its
    spectral norm in the message, passes one whose Frobenius norm alone is
    above, and takes no spectral norm for one the bound clears;
    comm_residual then reads opnorm of the commutator, bit for bit, once,
    and a moved seed shares it."""
    t = zw_triple((4, 4))
    e = np.random.default_rng(7).standard_normal(t.T2.shape)
    t2 = t.T2 + scaled(e, lambda x: opnorm(t.T1 @ x - x @ t.T1), CASES[case] * COMM_TOL)
    diff = t.T1 @ t2 - t2 @ t.T1
    above = frobenius_above(COMM_TOL, diff)
    assert above == (case != "cleared")
    calls = spy_opnorm(monkeypatch)
    if case == "refused":
        with pytest.raises(PreconditionError) as info:
            OperatorTriple(t.T1, t2, t.phi)
        assert str(info.value) == f"operators do not commute: residual {opnorm(diff):.3e}"
        return
    triple = OperatorTriple(t.T1, t2, t.phi)
    assert len(calls) == above
    assert triple.comm_residual == opnorm(diff) <= COMM_TOL
    moved = triple.with_seed(1j * triple.phi)
    assert moved.comm_residual == triple.comm_residual and len(calls) == 1


@pytest.mark.parametrize("case", CASES)
def test_witness_residual_guard(monkeypatch, case):
    """certify_similarity certifies a witness whose residuals lie below
    WITNESS_TOL in spectral norm, also when a Frobenius norm is above,
    takes no spectral norm for residuals the bound clears, and refuses
    one above; residual_T1 and residual_T2 read opnorm of the witness
    differences, bit for bit."""
    t = zw_triple((4, 4))
    rng = np.random.default_rng(8)
    phi = t.phi / np.linalg.norm(t.phi)
    e = rng.standard_normal(t.T1.shape) + 1j * rng.standard_normal(t.T1.shape)
    e -= np.outer(e @ phi, phi)  # e phi = 0: the seed residual stays 0
    worst = lambda x: max(opnorm(x @ t.T1 - t.T1 @ x), opnorm(x @ t.T2 - t.T2 @ x))
    l = np.eye(t.dim) + scaled(e, worst, CASES[case] * WITNESS_TOL)
    d1, d2 = l @ t.T1 - t.T1 @ l, l @ t.T2 - t.T2 @ l
    above = frobenius_above(WITNESS_TOL, d1, d2)
    assert (above > 0) == (case != "cleared")
    calls = spy_opnorm(monkeypatch)
    witness = certify_similarity(l, t, t)
    assert witness.certified == (case != "refused") and len(calls) == above
    assert (witness.residual_T1, witness.residual_T2) == (opnorm(d1), opnorm(d2))
    assert len(calls) == 2


@pytest.mark.parametrize("case", CASES)
def test_equivalent_frame_commutation_guard(monkeypatch, case):
    """equivalent_frame_report refuses a map V whose commutator with T1 or
    T2 is above COMMUTE_REQ, naming its spectral norm as before, passes
    its guard when the spectral norm is below, and takes none of a
    commutator the Frobenius bound clears."""
    t = zw_triple((4, 4))
    base = iterate(t, (4, 4))
    e = np.random.default_rng(9).standard_normal(t.T1.shape)
    worst = lambda x: max(opnorm(x @ t.T1 - t.T1 @ x), opnorm(x @ t.T2 - t.T2 @ x))
    v = np.eye(t.dim) + 0.5 * (t.T1 @ t.T2) + scaled(e, worst, CASES[case] * COMMUTE_REQ)
    comms = [v @ a - a @ v for a in (t.T1, t.T2)]
    assert (frobenius_above(COMMUTE_REQ, *comms) > 0) == (case != "cleared")
    calls = spy_opnorm(monkeypatch)
    if case == "refused":
        name, residual = next((n, opnorm(c)) for n, c in zip(("T1", "T2"), comms)
                              if opnorm(c) > COMMUTE_REQ)
        with pytest.raises(ValueError) as info:
            equivalent_frame_report(base, v)
        assert str(info.value) == (f"map does not commute with {name}: "
                                   f"residual {residual:.3e} > {COMMUTE_REQ:.1e}")
        return
    try:
        equivalent_frame_report(base, v)
    except InvariantViolation:
        pass  # past the guard: a map that commutes only to 1e-9 may move the kernel
    guarded = [c for c in comms if any(a.shape == c.shape and np.array_equal(a, c) for a in calls)]
    assert len(guarded) == frobenius_above(COMMUTE_REQ, *comms)


def test_ten_check_run_takes_five_spectral_norms(monkeypatch):
    """A ten-check run of inner-zw at (12, 12) takes five spectral norms,
    each one a report reads: the quotient's commutator residual, the
    random map's scale, the witness distance and recover's two
    intertwining residuals.  The commutator of the transported triple, the
    two witness residuals and the two commutation guards of equiv-vector
    are cleared on the Frobenius bound; before that rule the run took 10."""
    calls = spy_opnorm(monkeypatch)
    config = {"fixture": "inner-zw", "order": [12, 12], "checks": list(TEN_CHECKS)}
    outcome = runner.run(runner.ExperimentConfig.from_json(config))
    assert [r.name for r in outcome.results] == list(TEN_CHECKS) and outcome.exit_code == 0
    assert len(calls) == 5


def traced_peak(fn, *args, **kwargs):
    """(result, bytes): fn's result and the peak of what tracemalloc saw
    allocated during the call, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def test_streamed_readers_store_no_grid():
    """On inner-zw at (28, 28) (dim 57): the orbit norms of adjoint_decay
    and conjecture_probe over the decay horizon (29, 29) peak below one
    grid of their orbit vectors, and iterate peaks at no more than 1.2
    times its synthesis matrix, which it allocates once."""
    t = zw_triple((28, 28))
    f = np.random.default_rng(10).standard_normal(t.dim) * (1 + 1j)
    horizon = (29, 29)
    grid = (horizon[0] + 1) * (horizon[1] + 1) * t.dim * np.dtype(np.complex128).itemsize
    _, peak = traced_peak(adjoint_decay, t, f, horizon)
    assert peak < grid
    _, peak = traced_peak(conjecture_probe, t, f, horizon, kernel_verdict=True)
    assert peak < grid
    system, peak = traced_peak(iterate, t, (28, 28))
    assert system.synthesis.shape == (t.dim, 29 * 29)
    assert peak <= 1.2 * system.synthesis.nbytes
