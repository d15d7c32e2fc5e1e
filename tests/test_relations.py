"""Metamorphic relations between runs: the z <-> w swap, a rotation of
Blaschke zeros, a unitary change of basis on the quotient, and a scaling
of the seed.

Exchanging the two variables maps the Hardy space of the bidisc onto
itself and carries each module, its quotient and its compressed shift
pair to their mirror images.  So a config and its swap (inner z2w <->
zw2, blaschke_z <-> blaschke_w, generators with z and w exchanged, order
and horizon transposed) must reach the same verdicts with the same
numbers: data fields named `_z` and `_w` trade places, the Jordan
`degree_box` and the orbit-norm grid are transposed, and every float
agrees to 1e-9 in the deviation of tools/compare_reports.py.  The one
exception is the value of the orbit-norm grid of decay and
probe-conjecture: they draw their random vector in the quotient's basis,
which the swap permutes.

Rotating every zero of a Blaschke product in z by e^(i alpha) carries
its module to the image of the old one under the unitary
f(z, w) -> f(e^(-i alpha) z, w), which is diagonal on the monomials: the
compressed z-shift picks up a phase, and each iterate T1^i T2^j phi a
phase e^(-i alpha i).  So a run and its rotation must reach the same
verdicts with the same numbers, to 1e-9, except the orbit-norm grids of
decay and probe-conjecture and their tail_max, whose random vector is
drawn in the quotient's basis.

A unitary W on the quotient carries a triple (T1, T2, phi) to
(W T1 W*, W T2 W*, W phi), whose synthesis matrix is W times the old one:
the singular values, the synthesis kernel and so every frame and kernel
verdict are unchanged.  A Haar-random W makes every coordinate system
dense, so this relation also checks the coordinate fast paths against
the dense one.

Scaling the seed, phi -> c phi, multiplies every iterate by c: the
synthesis kernel is unchanged, and the frame bounds scale by |c|^2.
"""

import cmath
import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bidiscframes.fixtures import CATALOG, build_chain
from bidiscframes.frames import (
    OperatorTriple,
    frame_bounds,
    iterate,
    kernel_doubly_commutes,
    kernel_shift_invariance,
    rowspace_gap,
)
from bidiscframes.runner import _PASS, CHECK_NAMES, ExperimentConfig, run

_spec = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

# codimension sweeps the box orders, so it has no mirror of the same run
CHECKS = [c for c in CHECK_NAMES if c != "codimension"]
FLOAT_TOL = 1e-9
RANDOM_GRIDS = {"decay.norms[][]", "probe-conjecture.norms[][]"}


def _blaschke(kind, zeros):
    return {"kind": kind, "zeros": [[z.real, z.imag] for z in map(complex, zeros)]}


SWAP_PAIRS = {
    "z2w-zw2": ({"inner": "z2w", "order": [6, 9]}, {"inner": "zw2", "order": [9, 6]}),
    "z-w": ({"inner": "z", "order": [7, 4]}, {"inner": "w", "order": [4, 7]}),
    "two-zeros": ({"inner": _blaschke("blaschke_z", [0.5, -0.3]), "order": [8, 5]},
                  {"inner": _blaschke("blaschke_w", [0.5, -0.3]), "order": [5, 8]}),
    "zw-horizon": ({"inner": "zw", "order": [8, 3], "horizon": [10, 2]},
                   {"inner": "zw", "order": [3, 8], "horizon": [2, 10]}),
    "generators": ({"generators": ["z", "w2"], "order": [6, 5]},
                   {"generators": ["w", "z2"], "order": [5, 6]}),
    "complex-zero": ({"inner": _blaschke("blaschke_z", [0.3 + 0.4j]), "order": [8, 8]},
                     {"inner": _blaschke("blaschke_w", [0.3 + 0.4j]), "order": [8, 8]}),
}


def _run(config, checks=CHECKS):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = run(ExperimentConfig.from_json({**config, "checks": checks, "seed": 3}))
    return out.exit_code, [r.to_json() for r in out.results]


def _mirror(data):
    """Report data as the swapped run writes it."""
    if isinstance(data, list):
        return [_mirror(x) for x in data]
    if not isinstance(data, dict):
        return data
    out = {}
    for key, value in data.items():
        if key == "degree_box":
            value = value[::-1]
        elif key == "norms":
            value = [list(col) for col in zip(*value)]
        out[re.sub(r"_([zw])$", lambda m: "_w" if m[1] == "z" else "_z", key)] = _mirror(value)
    return out


@pytest.mark.parametrize("name", SWAP_PAIRS)
def test_swapping_z_and_w_mirrors_every_report(name):
    config, swapped = SWAP_PAIRS[name]
    code, results = _run(config)
    swapped_code, swapped_results = _run(swapped)
    assert code == swapped_code
    assert [r["check"] for r in results] == [r["check"] for r in swapped_results] == CHECKS
    floats, exact = {}, []
    for r, s in zip(results, swapped_results):
        assert (r["passed"], r["note"]) == (s["passed"], s["note"]), r["check"]
        compare_reports.walk(_mirror(r["data"]), s["data"], r["check"], floats, exact)
    assert exact == []
    moved = {field: dev for field, (dev, _) in floats.items()
             if dev > FLOAT_TOL and field not in RANDOM_GRIDS}
    assert moved == {}


ROTATED_BASES = {
    "one-zero": {"inner": [0.5], "order": [10, 4]},
    "two-zeros": {"inner": [0.5, -0.3], "order": [8, 5]},
    "square": {"inner": [0.6], "order": [12, 12]},
    "horizon": {"inner": [0.5], "order": [10, 4], "horizon": [12, 6]},
}
ANGLES = {"quarter": cmath.pi / 2, "one": 1.0, "half": cmath.pi}
RANDOM_NORMS = RANDOM_GRIDS | {"decay.tail_max", "probe-conjecture.tail_max"}
# the base is not a frame, with s_min / s_max = 2.4e-7, so rounding of
# order eps / 2.4e-7 decides the synthesis-kernel match of equiv-vector:
# it passes for real zeros and finds gaps of 2.1e-10 to 2.9e-10 for zeros
# off the real axis, against KERNEL_MATCH_TOL = 1e-10
ILL_CONDITIONED = pytest.mark.xfail(
    strict=True, reason="FOUND in CHANGES.md: equiv-vector on a complex zero of the "
                        "ill-conditioned horizon base, synthesis kernels differ by 2e-10")


def _rotated(config, alpha):
    turn = cmath.exp(1j * alpha)
    return {**config, "inner": _blaschke("blaschke_z", [turn * z for z in config["inner"]])}


@pytest.mark.parametrize("base,angle", [
    pytest.param(base, angle, marks=ILL_CONDITIONED if base == "horizon" else ())
    for base in ROTATED_BASES for angle in ANGLES])
def test_rotating_blaschke_zeros_keeps_every_report(base, angle):
    config = ROTATED_BASES[base]
    real = {**config, "inner": _blaschke("blaschke_z", config["inner"])}
    code, results = _run(real, CHECK_NAMES)
    rotated_code, rotated_results = _run(_rotated(config, ANGLES[angle]), CHECK_NAMES)
    assert code == rotated_code
    floats, exact = {}, []
    for r, s in zip(results, rotated_results, strict=True):
        assert (r["check"], r["passed"], r["note"]) == (s["check"], s["passed"], s["note"])
        compare_reports.walk(r["data"], s["data"], r["check"], floats, exact)
    assert exact == []
    moved = {field: dev for field, (dev, _) in floats.items()
             if dev > FLOAT_TOL and field not in RANDOM_NORMS}
    assert moved == {}


def _haar_unitary(rng, n):
    """A Haar-distributed n x n unitary: the Q of a complex Gaussian matrix,
    its columns rotated by the phases of R's diagonal (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _catalog_systems():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chains = [build_chain(fixture, order)
                  for order in [(6, 6), (9, 5), (10, 4)] for fixture in CATALOG]
        return [(f"{c.fixture.name}-{c.space.order.d1}-{c.space.order.d2}", c.system)
                for c in chains if not c.note]


CATALOG_SYSTEMS = _catalog_systems()
BOUND_RTOL = 1e-12  # relative to the base system's upper frame bound
KERNEL_RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-9


@pytest.mark.parametrize("index", range(len(CATALOG_SYSTEMS)),
                         ids=[name for name, _ in CATALOG_SYSTEMS])
def test_unitary_change_of_basis_keeps_every_frame_and_kernel_verdict(index):
    base = CATALOG_SYSTEMS[index][1]
    t = base.triple
    w = _haar_unitary(np.random.default_rng(index), t.dim)
    moved = iterate(OperatorTriple(T1=w @ t.T1 @ w.conj().T, T2=w @ t.T2 @ w.conj().T,
                                   phi=w @ t.phi), base.horizon)
    assert moved._coordinate_entries is None or t.dim == 1  # the dense path

    a, b = frame_bounds(base), frame_bounds(moved)
    assert (a.classification, a.kernel_dim) == (b.classification, b.kernel_dim)
    scale = BOUND_RTOL * a.upper
    assert abs(a.lower - b.lower) <= scale and abs(a.upper - b.upper) <= scale
    assert len(a.bound_trace) == len(b.bound_trace)
    for (h, lo, hi), (h2, lo2, hi2) in zip(a.bound_trace, b.bound_trace):
        assert h == h2 and abs(lo - lo2) <= scale and abs(hi - hi2) <= scale

    for test, fields in [(kernel_shift_invariance, ("residual",)),
                         (kernel_doubly_commutes, ("residual", "residual_z", "residual_w"))]:
        r, s = test(base), test(moved)
        for flag in ("vacuous", "inconclusive", "n_checked", "verdict"):
            assert getattr(r, flag, None) == getattr(s, flag, None), (test.__name__, flag)
        for field in fields if not r.inconclusive else ():  # inconclusive: nan
            assert abs(getattr(r, field) - getattr(s, field)) <= KERNEL_RESIDUAL_TOL

    assert rowspace_gap(base, moved) <= GAP_TOL


SCALES = {"1e-150": 1e-150, "1e-8": 1e-8, "1e8": 1e8, "1e150": 1e150}
# kernel-invariance judges an absolute residual, 1e-8, which the seed's
# scale moves: blaschke-half's residual at c = 1e8 is 9.8e-8 at (9, 5)
# and 8.5e-8 at (10, 4)
SCALE_DEPENDENT = pytest.mark.xfail(
    strict=True, reason="FOUND in CHANGES.md: blaschke-half kernel-invariance judges an "
                        "absolute residual, which grows with the seed's scale")


def _kernel_verdicts(sys):
    """The flags of the two kernel reports, and their verdicts by the
    runner's rules."""
    inv, dc = kernel_shift_invariance(sys), kernel_doubly_commutes(sys)
    return ((inv.vacuous, inv.inconclusive, inv.n_checked),
            (dc.vacuous, dc.inconclusive, dc.n_checked, dc.verdict),
            _PASS["kernel-invariance"](vars(inv)), _PASS["kernel-doubly-commutes"](vars(dc)))


@pytest.mark.parametrize("index,scale", [
    pytest.param(index, scale, id=f"{name}-{scale}", marks=SCALE_DEPENDENT if (
        name in ("blaschke-half-9-5", "blaschke-half-10-4") and SCALES[scale] > 1) else ())
    for index, (name, _) in enumerate(CATALOG_SYSTEMS) for scale in SCALES])
def test_scaling_the_seed_scales_the_bounds_and_keeps_every_kernel_verdict(index, scale):
    """phi -> c phi multiplies every iterate by c: the frame bounds by |c|^2,
    a parseval system becomes a tight frame, and the synthesis kernel,
    so kernel_dim and every kernel verdict, stays the same."""
    base = CATALOG_SYSTEMS[index][1]
    c = SCALES[scale]
    scaled = iterate(base.triple.with_seed(c * base.triple.phi), base.horizon)

    a, b = frame_bounds(base), frame_bounds(scaled)
    moved_class = "frame" if a.classification == "parseval" else a.classification
    assert (b.classification, b.kernel_dim) == (moved_class, a.kernel_dim)
    tol = BOUND_RTOL * a.upper * c * c
    assert abs(b.lower - c * c * a.lower) <= tol and abs(b.upper - c * c * a.upper) <= tol
    assert _kernel_verdicts(scaled) == _kernel_verdicts(base)
