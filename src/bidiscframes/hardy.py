"""Truncated Hardy space of the bidisc, modeled by finite coefficient grids.

Vectors are polynomials ``sum_{i,j} c[i,j] z^i w^j`` in two commuting
variables with nonnegative bidegrees.  Because the monomials form an
orthonormal set, inner products, norms, and adjoints reduce to plain
coefficient arithmetic, and the identification of a polynomial with its
coefficient grid is unitary.

A :class:`TruncatedSpace` fixes a rectangular degree box
``{0..N1} x {0..N2}`` together with the row-major enumeration of its
monomial basis (the ``z`` index is the outer loop).  Every operator in
this package is a dense matrix with respect to that enumeration.  The
coordinate shifts act by multiplication by ``z`` and ``w``; on the box
they are truncated, so a monomial on the top edge maps to zero while the
interior behaves exactly like the untruncated shift.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "DegreePair",
    "BidiscPoly",
    "TruncatedSpace",
    "make_space",
    "inner_product",
    "shift_z",
    "shift_w",
    "shift_matrix",
    "shift_rows",
    "adjoint_shift",
    "mult_operator",
]

_AXES = ("z", "w")


class DegreePair(NamedTuple):
    """Bidegree: degree in ``z`` and degree in ``w``."""

    d1: int
    d2: int

    def covers(self, other) -> bool:
        """Componentwise comparison (the order that matters for degree boxes).

        Tuple comparison is lexicographic, which is the wrong order here.
        """
        o = DegreePair(*other)
        return self.d1 >= o.d1 and self.d2 >= o.d2


def _as_degree(value) -> DegreePair:
    d = DegreePair(int(value[0]), int(value[1]))
    if d.d1 < 0 or d.d2 < 0:
        raise ValueError(f"degrees must be nonnegative, got {tuple(d)}")
    return d


def _integer(value, key: str) -> int:
    """An integer; booleans, floats and strings are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _degree_pair(value, key: str) -> DegreePair:
    """Two non-negative integers, as a JSON list."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{key} must be a list of two non-negative integers, got {value!r}")
    pair = DegreePair(*(_integer(v, key) for v in value))
    if min(pair) < 0:
        raise ValueError(f"{key} must be nonnegative, got {tuple(pair)}")
    return pair


class BidiscPoly:
    """Polynomial in two variables, stored as a sparse coefficient grid.

    ``coeffs`` maps ``(i, j)`` to the coefficient of ``z^i w^j``; absent
    keys mean zero, and exact zeros are dropped on construction, so two
    polynomials are equal iff their coefficient dicts are.  Instances are
    treated as immutable values.
    """

    __slots__ = ("coeffs", "maxdeg")

    def __init__(self, coeffs: Mapping[tuple[int, int], complex] | None = None):
        clean: dict[tuple[int, int], complex] = {}
        for key, val in (coeffs or {}).items():
            i, j = int(key[0]), int(key[1])
            if i < 0 or j < 0:
                raise ValueError(f"negative degree {key!r}")
            c = complex(val)
            if c != 0:
                clean[(i, j)] = c
        self.coeffs = clean
        if clean:
            self.maxdeg = DegreePair(
                max(i for i, _ in clean), max(j for _, j in clean)
            )
        else:
            self.maxdeg = DegreePair(0, 0)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BidiscPoly":
        return cls()

    @classmethod
    def one(cls) -> "BidiscPoly":
        return cls({(0, 0): 1.0})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: complex = 1.0) -> "BidiscPoly":
        return cls({(i, j): coeff})

    # -- ring/vector operations ---------------------------------------

    def __add__(self, other: "BidiscPoly") -> "BidiscPoly":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return BidiscPoly(out)

    def __sub__(self, other: "BidiscPoly") -> "BidiscPoly":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) - c
        return BidiscPoly(out)

    def __mul__(self, other):
        if isinstance(other, BidiscPoly):
            out: dict[tuple[int, int], complex] = {}
            for (a, b), c in self.coeffs.items():
                for (i, j), d in other.coeffs.items():
                    key = (a + i, b + j)
                    out[key] = out.get(key, 0.0) + c * d
            return BidiscPoly(out)
        return BidiscPoly({k: other * c for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "BidiscPoly":
        return BidiscPoly({k: -c for k, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BidiscPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = sorted(self.coeffs)
        return f"BidiscPoly({len(terms)} terms, maxdeg={tuple(self.maxdeg)})"

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def evaluate(self, z, w):
        """Evaluate at points; broadcasts over numpy arrays."""
        z = np.asarray(z, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        acc = np.zeros(np.broadcast(z, w).shape, dtype=np.complex128)
        for (i, j), c in self.coeffs.items():
            acc = acc + c * z**i * w**j
        return acc

    # -- wire format ----------------------------------------------------

    def to_json(self) -> dict:
        rows = [
            [i, j, float(c.real), float(c.imag)]
            for (i, j), c in sorted(self.coeffs.items())
        ]
        return {"maxdeg": [self.maxdeg.d1, self.maxdeg.d2], "coeffs": rows}

    @classmethod
    def from_json(cls, data: Mapping) -> "BidiscPoly":
        coeffs = {
            (int(i), int(j)): complex(re, im) for i, j, re, im in data["coeffs"]
        }
        return cls(coeffs)


class TruncatedSpace:
    """Degree box ``{0..N1} x {0..N2}`` with its basis enumeration.

    ``dim = (N1+1)(N2+1)``; basis vector number ``i*(N2+1) + j`` is the
    monomial ``z^i w^j``.
    """

    __slots__ = ("order", "dim")

    def __init__(self, order):
        self.order = _as_degree(order)
        self.dim = (self.order.d1 + 1) * (self.order.d2 + 1)

    def index(self, i: int, j: int) -> int:
        if not (0 <= i <= self.order.d1 and 0 <= j <= self.order.d2):
            raise ValueError(f"({i}, {j}) outside degree box {tuple(self.order)}")
        return i * (self.order.d2 + 1) + j

    def degrees(self, k: int) -> DegreePair:
        if not 0 <= k < self.dim:
            raise ValueError(f"basis index {k} out of range")
        return DegreePair(*divmod(k, self.order.d2 + 1))

    def pairs(self) -> Iterator[DegreePair]:
        for i in range(self.order.d1 + 1):
            for j in range(self.order.d2 + 1):
                yield DegreePair(i, j)

    def degree_grid(self):
        """(i_array, j_array) of length dim, aligned with the enumeration."""
        idx = np.arange(self.dim)
        return idx // (self.order.d2 + 1), idx % (self.order.d2 + 1)

    def basis_vector(self, i: int, j: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.complex128)
        v[self.index(i, j)] = 1.0
        return v

    def to_vec(self, f: BidiscPoly, clip: bool = False) -> np.ndarray:
        """Coefficient vector of f in the box enumeration.

        Out-of-box coefficients raise unless clip=True, in which case they
        are discarded (this is the truncation used by mult_operator).
        """
        v = np.zeros(self.dim, dtype=np.complex128)
        for (i, j), c in f.coeffs.items():
            if i <= self.order.d1 and j <= self.order.d2:
                v[self.index(i, j)] = c
            elif not clip:
                raise ValueError(
                    f"coefficient at degree ({i}, {j}) exceeds box {tuple(self.order)}"
                )
        return v

    def from_vec(self, v) -> BidiscPoly:
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}")
        return BidiscPoly(
            {tuple(self.degrees(k)): v[k] for k in range(self.dim) if v[k] != 0}
        )

    def __repr__(self) -> str:
        return f"TruncatedSpace(order={tuple(self.order)}, dim={self.dim})"


def make_space(order) -> TruncatedSpace:
    """Truncated space for the given degree box."""
    return TruncatedSpace(order)


def inner_product(f: BidiscPoly, g: BidiscPoly) -> complex:
    """Coefficient inner product, linear in the first argument."""
    if len(f.coeffs) > len(g.coeffs):
        return complex(
            sum(f.coeffs[k] * np.conj(c) for k, c in g.coeffs.items() if k in f.coeffs)
        )
    return complex(
        sum(c * np.conj(g.coeffs[k]) for k, c in f.coeffs.items() if k in g.coeffs)
    )


def shift_z(f: BidiscPoly) -> BidiscPoly:
    """Exact multiplication by z (no truncation)."""
    return BidiscPoly({(i + 1, j): c for (i, j), c in f.coeffs.items()})


def shift_w(f: BidiscPoly) -> BidiscPoly:
    """Exact multiplication by w (no truncation)."""
    return BidiscPoly({(i, j + 1): c for (i, j), c in f.coeffs.items()})


def _check_axis(axis: str) -> str:
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    return axis


def shift_matrix(space: TruncatedSpace, axis: str) -> np.ndarray:
    """Matrix of the truncated coordinate shift on the box.

    Monomials on the top edge of the chosen axis map to zero; everywhere
    else the matrix agrees with exact multiplication by the variable.
    """
    _check_axis(axis)
    n1, n2 = space.order
    a = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for k, (i, j) in enumerate(space.pairs()):
        if axis == "z":
            if i + 1 <= n1:
                a[space.index(i + 1, j), k] = 1.0
        else:
            if j + 1 <= n2:
                a[space.index(i, j + 1), k] = 1.0
    return a


def shift_rows(x, order, axis: str, adjoint: bool = False) -> np.ndarray:
    """Truncated coordinate shift, or its adjoint, applied to the rows of x.

    Equals ``shift_matrix(space, axis) @ x`` (``adjoint_shift`` for the
    adjoint) on a space of the given order, computed as an index move on
    the ``(N1+1, N2+1, ...)`` coefficient grid instead of a matrix product.
    """
    _check_axis(axis)
    n1, n2 = _as_degree(order)
    x = np.asarray(x)
    grid = x.reshape(n1 + 1, n2 + 1, -1)
    out = np.zeros_like(grid)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    ax = _AXES.index(axis)
    src[ax], dst[ax] = slice(None, -1), slice(1, None)
    if adjoint:
        src, dst = dst, src
    out[tuple(dst)] = grid[tuple(src)]
    return out.reshape(x.shape)


def adjoint_shift(space: TruncatedSpace, axis: str) -> np.ndarray:
    """Conjugate transpose of the truncated shift (the backward shift)."""
    return shift_matrix(space, axis).conj().T


def mult_operator(phi: BidiscPoly, space: TruncatedSpace) -> np.ndarray:
    """Matrix of f -> truncate(phi * f) on the box.

    On inputs of degree at most order - maxdeg(phi) this is exact
    multiplication; products that leave the box are clipped.
    """
    if not space.order.covers(phi.maxdeg):
        raise ValueError(
            f"symbol degree {tuple(phi.maxdeg)} exceeds box {tuple(space.order)}"
        )
    n1, n2 = space.order
    a = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for k, (i, j) in enumerate(space.pairs()):
        for (p, q), c in phi.coeffs.items():
            ii, jj = i + p, j + q
            if ii <= n1 and jj <= n2:
                a[space.index(ii, jj), k] += c
    return a
