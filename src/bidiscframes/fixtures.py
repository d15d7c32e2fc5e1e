"""Built-in example catalog and the standard construction chain.

Every fixture names a submodule recipe at a default truncation order.
The chain built from it is always the same: space, submodule, quotient,
then, when the quotient's compressed shifts commute, the operator pair
with its cyclic seed and the iterate system over a horizon.  The catalog
covers the monomial inners, a truncated Blaschke factor, a product
inner, a two-generator counterexample with no single inner generator,
and the plain shift pair whose iterates are the monomial Riesz basis.

Truncated one-variable factors are embedded with full cross-width, which
keeps the polynomial module exactly shift-invariant; product inners
mixing the two variables lose that structure, so their chains stop at
the quotient with a note instead of pretending to a commuting model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frames import (
    FrameReport,
    IterateSystem,
    OperatorTriple,
    PreconditionError,
    frame_bounds,
    iterate,
)
from .hardy import BidiscPoly, DegreePair, TruncatedSpace, make_space
from .inner import InnerSpec, build_inner
from .submodule import (
    QuotientModel,
    SubmoduleModel,
    beurling_submodule,
    generated_submodule,
    quotient,
    zero_submodule,
)
from .models import triple_from_quotient

__all__ = [
    "Fixture",
    "FixtureChain",
    "CATALOG",
    "catalog_inner_specs",
    "get_fixture",
    "list_fixtures",
    "build_chain",
]


@dataclass(frozen=True)
class Fixture:
    """Named submodule recipe with a one-line provenance summary.

    inner_order, when set, truncates the inner function to a smaller
    degree box than the ambient space, leaving room for shift multiples.
    """

    name: str
    summary: str
    kind: str  # "inner" | "generated" | "riesz"
    order: DegreePair
    spec: InnerSpec | None = None
    inner_order: DegreePair | None = None
    generators: tuple[BidiscPoly, ...] = ()

    def make_submodule(self, space: TruncatedSpace) -> SubmoduleModel:
        if self.kind == "inner":
            box = self.inner_order if self.inner_order is not None else space.order
            return beurling_submodule(build_inner(self.spec, box), space)
        if self.kind == "generated":
            return generated_submodule(self.generators, space)
        if self.kind == "riesz":
            return zero_submodule(space)
        raise ValueError(f"unknown fixture kind {self.kind!r}")


@dataclass(frozen=True)
class FixtureChain:
    """One fixture carried through the full construction chain.

    triple and system are None when the quotient has no operator triple;
    note says why.
    """

    fixture: Fixture
    space: TruncatedSpace
    submodule: SubmoduleModel
    quotient: QuotientModel
    triple: OperatorTriple | None
    system: IterateSystem | None
    note: str = ""

    def frame_report(self) -> FrameReport:
        if self.system is None:
            raise ValueError(f"no iterate system for {self.fixture.name}: {self.note}")
        return frame_bounds(self.system)


def catalog_inner_specs() -> dict[str, InnerSpec]:
    """The monomial inner functions exercised by the standard checks."""
    return {
        "z": InnerSpec.monomial(1, 0),
        "w": InnerSpec.monomial(0, 1),
        "zw": InnerSpec.monomial(1, 1),
        "z2w": InnerSpec.monomial(2, 1),
        "zw2": InnerSpec.monomial(1, 2),
    }


def _monomial_fixture(name: str, a: int, b: int, note: str) -> Fixture:
    return Fixture(
        name=name,
        summary=f"Beurling submodule of the monomial inner z^{a} w^{b}; {note}",
        kind="inner",
        order=DegreePair(6, 6),
        spec=InnerSpec.monomial(a, b),
    )


CATALOG: tuple[Fixture, ...] = (
    _monomial_fixture("inner-z", 1, 0, "one-variable model, linear codimension"),
    _monomial_fixture("inner-w", 0, 1, "mirror of inner-z along the other axis"),
    _monomial_fixture("inner-zw", 1, 1, "the standard overcomplete Parseval example"),
    _monomial_fixture("inner-z2w", 2, 1, "asymmetric degrees, wider quotient"),
    _monomial_fixture("inner-zw2", 1, 2, "mirror of inner-z2w"),
    Fixture(
        name="blaschke-half",
        summary=(
            "Beurling submodule of the one-variable Blaschke factor with "
            "zero 0.5, truncated to degree 6 inside a wider box"
        ),
        kind="inner",
        order=DegreePair(10, 4),
        spec=InnerSpec.blaschke_z([0.5]),
        inner_order=DegreePair(6, 0),
    ),
    Fixture(
        name="blaschke-product",
        summary=(
            "Beurling submodule of a product inner, Blaschke factor at 0.5 "
            "times the monomial w; chain stops at the quotient"
        ),
        kind="inner",
        order=DegreePair(10, 4),
        spec=InnerSpec.product(
            [InnerSpec.blaschke_z([0.5]), InnerSpec.monomial(0, 1)]
        ),
        inner_order=DegreePair(6, 1),
    ),
    Fixture(
        name="generated-zw",
        summary=(
            "submodule generated by {z, w}: no single inner generator, "
            "fails the double-commutation test"
        ),
        kind="generated",
        order=DegreePair(5, 5),
        generators=(BidiscPoly.monomial(1, 0), BidiscPoly.monomial(0, 1)),
    ),
    Fixture(
        name="riesz-model",
        summary=(
            "trivial submodule: the pair of truncated shifts with constant "
            "seed, whose iterates form the monomial Riesz basis"
        ),
        kind="riesz",
        order=DegreePair(5, 5),
    ),
)

_BY_NAME = {f.name: f for f in CATALOG}


def get_fixture(name: str) -> Fixture:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown fixture {name!r}; known: {known}") from None


def list_fixtures(filter_text: str | None = None) -> tuple[Fixture, ...]:
    """Catalog entries whose name or summary contains the filter text."""
    if not filter_text:
        return CATALOG
    needle = filter_text.lower()
    return tuple(
        f for f in CATALOG
        if needle in f.name.lower() or needle in f.summary.lower()
    )


def build_chain(fixture: Fixture, order=None, horizon=None) -> FixtureChain:
    """Run one fixture through space, submodule, quotient, operator pair,
    and iterate system.

    The horizon defaults to the truncation order, which is the exactness
    regime for the compressed-shift models.  A quotient with no operator
    triple stops the chain, with triple_from_quotient's reason as note.
    """
    space = make_space(order if order is not None else fixture.order)
    sub = fixture.make_submodule(space)
    quot = quotient(sub)
    triple = system = None
    note = ""
    try:
        triple = triple_from_quotient(quot)
    except PreconditionError as exc:
        note = str(exc)
    else:
        system = iterate(triple, horizon if horizon is not None else space.order)
    return FixtureChain(
        fixture=fixture,
        space=space,
        submodule=sub,
        quotient=quot,
        triple=triple,
        system=system,
        note=note,
    )
