"""The built-in catalog and the standard construction chain."""

import warnings

import numpy as np
import pytest

from bidiscframes.fixtures import (
    CATALOG,
    Fixture,
    build_chain,
    catalog_inner_specs,
    get_fixture,
    list_fixtures,
)
from bidiscframes.hardy import BidiscPoly, DegreePair


def test_catalog_has_expected_entries():
    names = [f.name for f in CATALOG]
    assert len(names) >= 6
    assert len(set(names)) == len(names)
    for expected in ("inner-zw", "blaschke-half", "generated-zw", "riesz-model"):
        assert expected in names


def test_catalog_inner_specs_are_the_five_monomials():
    specs = catalog_inner_specs()
    assert set(specs) == {"z", "w", "zw", "z2w", "zw2"}
    assert tuple(specs["z2w"].degree) == (2, 1)


def test_filter_beurling_keeps_only_inner_fixtures():
    hits = list_fixtures("beurling")
    assert hits
    assert all(f.kind == "inner" for f in hits)
    assert {f.name for f in hits}.isdisjoint({"generated-zw", "riesz-model"})


def test_filter_no_match_is_empty():
    assert list_fixtures("definitely-not-a-fixture") == ()


def test_get_fixture_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        get_fixture("nope")


def test_monomial_chains_are_parseval():
    for name in ("inner-z", "inner-zw", "inner-z2w"):
        chain = build_chain(get_fixture(name))
        assert chain.system is not None
        rep = chain.frame_report()
        assert rep.classification == "parseval"
        assert rep.kernel_dim == chain.submodule.rank


def test_riesz_chain_is_minimal_frame():
    chain = build_chain(get_fixture("riesz-model"))
    rep = chain.frame_report()
    assert rep.classification == "minimal_frame"
    assert chain.quotient.dim == chain.space.dim


def test_generated_chain_small_quotient():
    chain = build_chain(get_fixture("generated-zw"))
    assert chain.quotient.dim == 1
    assert chain.frame_report().is_frame


def test_blaschke_chain_builds_exact_module():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(get_fixture("blaschke-half"))
    assert chain.submodule.rank == 25
    assert chain.quotient.comm_residual <= 1e-12
    # the quotient carries truncation directions beyond the true model,
    # so the iterate system is honestly not a frame
    assert chain.frame_report().classification == "not_frame"


def test_product_chain_stops_at_quotient():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(get_fixture("blaschke-product"))
    assert chain.system is None
    assert "commute" in chain.note
    with pytest.raises(ValueError, match="no iterate system"):
        chain.frame_report()


def test_trivial_quotient_chain_stops_with_a_note():
    fixture = Fixture(name="one", summary="generated by the constant 1", kind="generated",
                      order=DegreePair(3, 3), generators=(BidiscPoly.one(),))
    with pytest.warns(UserWarning, match="trivial quotient"):
        chain = build_chain(fixture)
    assert chain.quotient.trivial
    assert chain.triple is None and chain.system is None
    assert "trivial quotient" in chain.note


def test_chain_accepts_explicit_order_and_horizon():
    chain = build_chain(get_fixture("inner-zw"), order=(4, 4), horizon=(3, 3))
    assert chain.space.dim == 25
    assert chain.system.horizon == (3, 3)
    assert chain.system.ncols == 16
