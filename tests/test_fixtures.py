"""The built-in catalog and the standard construction chain."""

import warnings

import numpy as np
import pytest

from bidiscframes import fixtures
from bidiscframes.fixtures import (
    CATALOG,
    Fixture,
    build_chain,
    catalog_inner_specs,
    get_fixture,
    list_fixtures,
)
from bidiscframes.frames import GuardError, PreconditionError, frame_bounds
from bidiscframes.hardy import BidiscPoly, DegreePair
from bidiscframes.runner import ExperimentConfig, run


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
        assert not chain.note
        rep = frame_bounds(chain.system)
        assert rep.classification == "parseval"
        assert rep.kernel_dim == chain.submodule.rank


def test_riesz_chain_is_minimal_frame():
    chain = build_chain(get_fixture("riesz-model"))
    rep = frame_bounds(chain.system)
    assert rep.classification == "minimal_frame"
    assert chain.quotient.dim == chain.space.dim


def test_generated_chain_small_quotient():
    chain = build_chain(get_fixture("generated-zw"))
    assert chain.quotient.dim == 1
    assert frame_bounds(chain.system).is_frame


def test_blaschke_chain_builds_exact_module():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(get_fixture("blaschke-half"))
        assert chain.submodule.rank == 25
        assert chain.quotient.comm_residual <= 1e-12
    # the quotient carries truncation directions beyond the true model,
    # so the iterate system is honestly not a frame
    assert frame_bounds(chain.system).classification == "not_frame"


def test_product_chain_stops_at_quotient():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = build_chain(get_fixture("blaschke-product"))
        assert "commute" in chain.note
    with pytest.raises(PreconditionError, match="commute"):
        chain.system


def test_trivial_quotient_chain_stops_with_a_note():
    fixture = Fixture(name="one", summary="generated by the constant 1", kind="generated",
                      order=DegreePair(3, 3), generators=(BidiscPoly.one(),))
    chain = build_chain(fixture)
    with pytest.warns(UserWarning, match="trivial quotient"):
        assert chain.quotient.trivial
    for stage in ("triple", "system"):
        with pytest.raises(PreconditionError, match="trivial quotient"):
            getattr(chain, stage)
    assert "trivial quotient" in chain.note


def test_chain_accepts_explicit_order_and_horizon():
    chain = build_chain(get_fixture("inner-zw"), order=(4, 4), horizon=(3, 3))
    assert chain.space.dim == 25
    assert chain.system.horizon == (3, 3)
    assert chain.system.ncols == 16


def test_chain_guard_trips_before_the_submodule(monkeypatch):
    """The space is the chain's first stage and holds the desk guard, so a
    box the guard refuses never pays for its submodule, even when its
    quotient would fit under the guard."""
    assert build_chain(get_fixture("inner-zw")).quotient.dim == 13
    calls = []
    monkeypatch.setattr(fixtures, "beurling_submodule", lambda *args: calls.append(args))
    monkeypatch.setenv("BDF_MAX_DIM", "20")
    chain = build_chain(get_fixture("inner-zw"))
    for stage in ("space", "submodule", "system"):
        with pytest.raises(GuardError, match="dimension 49 at or beyond the desk guard 20"):
            getattr(chain, stage)
    assert calls == []


def _counting_quotients(monkeypatch) -> list:
    calls = []
    real = fixtures.quotient
    monkeypatch.setattr(fixtures, "quotient", lambda sub: calls.append(sub) or real(sub))
    return calls


def _reports(config, checks):
    outcome = run(ExperimentConfig.from_json({**config, "checks": checks}))
    assert outcome.exit_code == 0
    return [r.to_json() for r in outcome.results]


RIESZ_MODEL = {"fixture": "riesz-model", "order": [5, 3]}


def test_riesz_check_reuses_the_riesz_model_run_chain(monkeypatch):
    """On riesz-model at its order, the riesz check reads the run's own
    chain: one quotient for both checks, and the reports of the two
    single-check runs."""
    alone = _reports(RIESZ_MODEL, ["frame-bounds"]) + _reports(RIESZ_MODEL, ["riesz"])
    calls = _counting_quotients(monkeypatch)
    assert _reports(RIESZ_MODEL, ["frame-bounds", "riesz"]) == alone
    assert len(calls) == 1


@pytest.mark.parametrize("config,kinds", [
    ({**RIESZ_MODEL, "horizon": [4, 2]}, ["zero", "zero"]),
    ({"order": [5, 3]}, ["zero"]),
    ({"inner": "zw", "order": [5, 3]}, ["beurling", "zero"]),
], ids=["other-horizon", "no-recipe", "inner-zw"])
def test_riesz_check_builds_its_own_chain_otherwise(monkeypatch, config, kinds):
    """Off the riesz-model chain at its order, the riesz check builds that
    chain itself, after the run's own chain when the config has a
    recipe."""
    (riesz,) = _reports(RIESZ_MODEL, ["riesz"])
    checks = ["build-module", "riesz"] if len(kinds) > 1 else ["riesz"]
    calls = _counting_quotients(monkeypatch)
    assert _reports(config, checks)[-1] == riesz
    assert [sub.kind for sub in calls] == kinds
