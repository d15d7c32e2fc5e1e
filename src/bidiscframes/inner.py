"""Inner functions on the bidisc and their degree-box truncations.

Supported building blocks: monomials ``z^a w^b``, finite products of
one-variable disc automorphism factors in ``z`` or in ``w`` (normalized
so the value at the origin is positive), and products of such specs.
Non-monomial factors have infinite Taylor expansions, so building them
on a degree box truncates; the truncation is certified by an l2 tail
bound carried on the result.

Every such function is separable, theta(z, w) = theta1(z) theta2(w), and
its truncation is the product of the two one-variable truncations.  So
the one-variable factors are the one computation: build_inner makes one
pass over the spec, multiplying coefficient arrays and carrying the tail
bound, and reads the polynomial off the two factors it returns
(InnerPoly.axis_factors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .hardy import BidiscPoly, DegreePair, _as_degree, _degree_pair

__all__ = [
    "InnerSpec",
    "InnerPoly",
    "UnimodularReport",
    "build_inner",
    "monomial_degree",
    "verify_unimodular",
    "DEFAULT_GRID",
]

DEFAULT_GRID = 64

@dataclass(frozen=True)
class InnerSpec:
    """Symbolic description of an inner function.

    Use the factory methods; the constructor does not validate cross-field
    consistency.  ``degree`` is the bidegree of the (numerator of the)
    function: (a, b) for a monomial, (#zeros, 0) for a z-factor product,
    (0, #zeros) for a w-factor product, and the componentwise sum for
    products.
    """

    kind: str
    degree: DegreePair
    zeros: tuple[complex, ...] = ()
    factors: tuple["InnerSpec", ...] = ()

    @staticmethod
    def monomial(a: int, b: int) -> "InnerSpec":
        deg = _as_degree((a, b))
        return InnerSpec(kind="monomial", degree=deg)

    @staticmethod
    def _checked_zeros(zeros: Iterable[complex]) -> tuple[complex, ...]:
        out = []
        for zero in zeros:
            zc = complex(zero)
            if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
                raise ValueError(f"zero {zc} is not finite")
            if zc == 0:
                raise ValueError(
                    "zero at the origin: use a monomial factor instead"
                )
            if abs(zc) >= 1:
                raise ValueError(f"zero {zc} not inside the open unit disc")
            out.append(zc)
        return tuple(out)

    @staticmethod
    def blaschke_z(zeros: Iterable[complex]) -> "InnerSpec":
        zs = InnerSpec._checked_zeros(zeros)
        return InnerSpec(kind="blaschke_z", degree=DegreePair(len(zs), 0), zeros=zs)

    @staticmethod
    def blaschke_w(zeros: Iterable[complex]) -> "InnerSpec":
        zs = InnerSpec._checked_zeros(zeros)
        return InnerSpec(kind="blaschke_w", degree=DegreePair(0, len(zs)), zeros=zs)

    @staticmethod
    def product(factors: Iterable["InnerSpec"]) -> "InnerSpec":
        fs = tuple(factors)
        if not fs:
            raise ValueError("empty product; use monomial(0, 0) for the constant")
        d1 = sum(f.degree.d1 for f in fs)
        d2 = sum(f.degree.d2 for f in fs)
        return InnerSpec(kind="product", degree=DegreePair(d1, d2), factors=fs)

    def to_json(self) -> dict:
        if self.kind == "monomial":
            return {"kind": "monomial", "degree": [self.degree.d1, self.degree.d2]}
        if self.kind in ("blaschke_z", "blaschke_w"):
            return {
                "kind": self.kind,
                "zeros": [[z.real, z.imag] for z in self.zeros],
            }
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: Mapping) -> "InnerSpec":
        """Inverse of to_json; a malformed spec raises ValueError naming
        the offending key."""
        kind = _key(data, "kind")
        if kind == "monomial":
            return cls.monomial(*_degree_pair(_key(data, "degree"), "inner degree"))
        if kind in ("blaschke_z", "blaschke_w"):
            zeros = _key(data, "zeros")
            if not isinstance(zeros, (list, tuple)) or not all(map(_is_real_pair, zeros)):
                raise ValueError(f"inner zeros must be a list of [re, im] pairs, got {zeros!r}")
            zs = [complex(re, im) for re, im in zeros]
            return cls.blaschke_z(zs) if kind == "blaschke_z" else cls.blaschke_w(zs)
        if kind == "product":
            factors = _key(data, "factors")
            if not isinstance(factors, (list, tuple)):
                raise ValueError(f"inner factors must be a list of specs, got {factors!r}")
            return cls.product(cls.from_json(f) for f in factors)
        raise ValueError(f"unknown inner kind {kind!r}")


def _key(data, key: str):
    if not isinstance(data, Mapping):
        raise ValueError(f"inner spec must be an object, got {data!r}")
    if key not in data:
        raise ValueError(f"inner spec {dict(data)!r} lacks the key {key!r}")
    return data[key]


def _is_real_pair(z) -> bool:
    return isinstance(z, (list, tuple)) and len(z) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in z
    )


@dataclass(frozen=True)
class InnerPoly:
    """A truncated inner function: the defining spec, the polynomial that
    represents it on a degree box, and an l2 bound on the dropped tail
    (0 for purely monomial specs).

    axis_factors holds the coefficient arrays of theta1(z) and theta2(w),
    truncated to the box; build_inner always sets it, and poly is read
    off it, poly[i, j] = theta1[i] theta2[j].  A caller may set it to
    None to hand on the polynomial alone.
    """

    spec: InnerSpec
    poly: BidiscPoly
    trunc_error: float
    axis_factors: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class UnimodularReport:
    max_dev: float
    grid: int


def _factor_series(alpha: complex, order: int):
    """Taylor coefficients (length order+1) of one disc-automorphism factor
    with zero at alpha, plus the exact l2 norm of the dropped tail.

    The factor is (conj(alpha)/|alpha|) (alpha - t)/(1 - conj(alpha) t);
    its value at t=0 is |alpha| > 0.  Coefficients follow the geometric
    recurrence c_{k+1} = conj(alpha) c_k for k >= 1.
    """
    a = complex(alpha)
    r = abs(a)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = r
    if order >= 1:
        c[1] = np.conj(a) * (r * r - 1.0) / r
        for k in range(2, order + 1):
            c[k] = np.conj(a) * c[k - 1]
    # sum_{k>order} |c_k|^2 = (1 - r^2) r^(2 order), summed in closed form
    tail = r**order * math.sqrt(1.0 - r * r)
    return c, tail


def _unit(a: int) -> np.ndarray:
    """Coefficients of t^a."""
    c = np.zeros(a + 1, dtype=np.complex128)
    c[a] = 1.0
    return c


def _l2(c: np.ndarray) -> float:
    # |x|^2 summed in index order: np.linalg.norm rounds complex entries
    # differently, which would move the tails of complex zeros
    return math.sqrt(sum(abs(x) ** 2 for x in c))


def _times(theta, err: float, factor, tail: float, order: DegreePair):
    """Multiply a certified separable truncation by one more inner factor.

    theta and factor are pairs of one-variable coefficient arrays.  If P
    is inner with ||P - theta1 theta2|| <= err and F is inner with
    ||F - factor1 factor2|| <= tail, then, because multiplication by an
    inner function is isometric and the truncated factor's multiplier
    norm is at most its coefficient l1 norm,

        ||P F - clip(theta1 factor1 theta2 factor2)||
            <= err + l1(theta1) l1(theta2) tail + dropped.

    Each axis product f splits into the part k the box keeps and the part
    d it cuts; the box cuts the orthogonal pieces d1 (x) f2 and k1 (x) d2,
    so dropped = hypot(|d1| |f2|, |k1| |d2|).
    """
    full = [np.convolve(t, f) for t, f in zip(theta, factor)]
    kept = tuple(f[: d + 1] for f, d in zip(full, order))
    cut = [_l2(f[d + 1:]) for f, d in zip(full, order)]
    l1 = float(np.abs(theta[0]).sum() * np.abs(theta[1]).sum())
    dropped = math.hypot(cut[0] * _l2(full[1]), _l2(kept[0]) * cut[1])
    return kept, err + l1 * tail + dropped


def _truncate(spec: InnerSpec, order: DegreePair):
    """One pass over the spec: the axis factors (theta1, theta2) truncated
    to the box, and a certified l2 bound on what the box dropped."""
    if spec.kind == "monomial":
        return (_unit(spec.degree.d1), _unit(spec.degree.d2)), 0.0
    theta, err = (_unit(0), _unit(0)), 0.0
    if spec.kind in ("blaschke_z", "blaschke_w"):
        axis = 0 if spec.kind == "blaschke_z" else 1
        for zero in spec.zeros:
            series, tail = _factor_series(zero, order[axis])
            factor = (series, _unit(0)) if axis == 0 else (_unit(0), series)
            theta, err = _times(theta, err, factor, tail, order)
        return theta, err
    if spec.kind == "product":
        for f in spec.factors:
            factor, tail = _truncate(f, order)
            theta, err = _times(theta, err, factor, tail, order)
        return theta, err
    raise ValueError(f"unknown inner kind {spec.kind!r}")


def monomial_degree(spec: InnerSpec) -> DegreePair:
    """The bidegree of the monomial part of spec: the sum of the degrees
    of its monomial factors, (0, 0) when it has none."""
    if spec.kind == "monomial":
        return spec.degree
    return DegreePair(*map(sum, zip((0, 0), *map(monomial_degree, spec.factors))))


def build_inner(spec: InnerSpec, order) -> InnerPoly:
    """Truncate an inner function to a degree box.

    The monomial part (monomial_degree) must fit inside the box; a purely
    monomial spec comes back exact.  Factor products are expanded to the
    box order in their variable; the returned trunc_error is a certified
    l2 bound for everything dropped.  The polynomial is read off the axis
    factors, theta1(z) theta2(w).
    """
    order = _as_degree(order)
    degree = monomial_degree(spec)
    if not order.covers(degree):
        raise ValueError(f"monomial degree {tuple(degree)} exceeds box {tuple(order)}")
    (theta1, theta2), err = _truncate(spec, order)
    poly = BidiscPoly({(i, j): theta1[i] * theta2[j]
                       for i in np.flatnonzero(theta1) for j in np.flatnonzero(theta2)})
    return InnerPoly(spec=spec, poly=poly, trunc_error=err, axis_factors=(theta1, theta2))


def verify_unimodular(ip: InnerPoly, grid: int = DEFAULT_GRID) -> UnimodularReport:
    """Largest deviation of |phi| from 1 over a grid x grid torus sample.

    For exact (monomial) truncations the deviation is roundoff; for
    truncated expansions it is controlled by the recorded tail bound.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    angles = np.exp(2j * np.pi * np.arange(grid) / grid)
    zz, ww = np.meshgrid(angles, angles, indexing="ij")
    values = ip.poly.evaluate(zz, ww)
    max_dev = float(np.max(np.abs(np.abs(values) - 1.0)))
    return UnimodularReport(max_dev=max_dev, grid=grid)
