"""Experiment configs, the check registry, report files, and the CLI."""

import json

import numpy as np
import pytest

from bidiscframes.cli import main
from bidiscframes.frames import OperatorTriple
from bidiscframes.runner import (
    CHECK_NAMES,
    ExperimentConfig,
    RunContext,
    run,
    run_file,
    run_suite,
)

ALL_CHECKS = list(CHECK_NAMES)


def write_config(path, **data):
    path.write_text(json.dumps(data))
    return str(path)


def test_config_parses_spec_shapes():
    cfg = ExperimentConfig.from_json(
        {"order": [4, 4], "inner": "zw", "checks": ["parseval"], "seed": 3}
    )
    assert tuple(cfg.order) == (4, 4)
    assert tuple(cfg.horizon) == (4, 4)
    assert cfg.checks == ("parseval",)
    assert cfg.seed == 3


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_json({"order": [2, 2], "bogus": 1})


def test_config_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown check name: nope"):
        ExperimentConfig.from_json({"order": [2, 2], "checks": ["nope"]})


def test_config_rejects_multiple_recipes():
    with pytest.raises(ValueError, match="at most one"):
        ExperimentConfig.from_json(
            {"order": [2, 2], "inner": "zw", "generators": ["z"]}
        )


def test_config_rejects_unknown_inner():
    with pytest.raises(ValueError, match="unknown inner"):
        ExperimentConfig.from_json({"order": [2, 2], "inner": "q"})


def test_config_warns_on_oversized_horizon():
    with pytest.warns(UserWarning, match="exceeds order"):
        ExperimentConfig.from_json(
            {"order": [3, 3], "horizon": [5, 5], "inner": "zw"}
        )


def test_config_generator_parsing():
    cfg = ExperimentConfig.from_json(
        {"order": [3, 3], "generators": ["z", "w2", [1, 1]]}
    )
    degs = [tuple(g.maxdeg) for g in cfg.generators]
    assert degs == [(1, 0), (0, 2), (1, 1)]


def test_config_fixture_defaults_order():
    cfg = ExperimentConfig.from_json({"fixture": "inner-zw"})
    assert tuple(cfg.order) == (6, 6)


def test_parseval_example_passes():
    out = run(
        ExperimentConfig.from_json(
            {"order": [4, 4], "inner": "zw", "checks": ["parseval"]}
        )
    )
    assert out.exit_code == 0
    assert out.results[0].passed
    data = out.results[0].data
    assert data["lower"] == pytest.approx(1.0, abs=1e-10)
    assert data["upper"] == pytest.approx(1.0, abs=1e-10)


def test_mandrekar_failure_recorded_not_fatal():
    out = run(
        ExperimentConfig.from_json(
            {"order": [4, 4], "generators": ["z", "w"], "checks": ["mandrekar"]}
        )
    )
    assert out.exit_code == 0
    assert out.results[0].data["verdict"] is False


KERNEL_CHECKS = ["kernel-invariance", "kernel-doubly-commutes"]


@pytest.mark.filterwarnings("ignore:submodule is approximate")
def test_kernel_checks_pass_an_inconclusive_report_without_residuals():
    """The complex z-Blaschke factor at (4, 4) has its synthesis kernel on
    the outer rim of the horizon, so neither kernel check has a vector to
    test: each passes with the data {inconclusive, n_checked 0} and the
    report's message as its note."""
    out = run(ExperimentConfig.from_json(
        {"order": [4, 4], "inner": {"kind": "blaschke_z", "zeros": [[0.3, 0.4]]},
         "checks": KERNEL_CHECKS}))
    assert out.exit_code == 0 and [r.name for r in out.results] == KERNEL_CHECKS
    for r in out.results:
        assert r.passed and r.data == {"inconclusive": True, "n_checked": 0}
        assert r.note == "kernel supported only on the outer rim; enlarge horizon"


@pytest.mark.filterwarnings("ignore:submodule is approximate")
@pytest.mark.parametrize("fixture,vacuous", [("blaschke-half", False), ("riesz-model", True)])
def test_kernel_checks_report_their_fields(fixture, vacuous):
    """A conclusive kernel check passes on a small residual, or when it is
    vacuous, and its data holds the report's fields under their names."""
    out = run(ExperimentConfig.from_json({"fixture": fixture, "checks": KERNEL_CHECKS}))
    inv, com = (r.data for r in out.results)
    assert out.exit_code == 0
    assert set(inv) == {"residual", "vacuous", "inconclusive", "n_checked"}
    assert set(com) == {"residual", "verdict", "vacuous", "residual_z", "residual_w",
                        "n_checked"}
    assert inv["vacuous"] is com["vacuous"] is vacuous and inv["inconclusive"] is False
    assert (inv["n_checked"] == 0) == (com["n_checked"] == 0) == vacuous


def test_empty_checks_empty_summary():
    out = run(ExperimentConfig.from_json({"order": [4, 4], "inner": "zw"}))
    assert out.exit_code == 0
    assert out.results == []
    assert out.summary_lines == ["summary: pass (0 checks)"]


def test_all_checks_pass_on_zw(tmp_path):
    cfg = ExperimentConfig.from_json(
        {
            "order": [5, 5],
            "inner": "zw",
            "seed": 11,
            "checks": ALL_CHECKS,
            "output": str(tmp_path / "zw"),
        }
    )
    out = run(cfg)
    assert out.exit_code == 0
    assert len(out.results) == len(ALL_CHECKS)
    # checks execute in registry (dependency) order regardless of input order
    assert [r.name for r in out.results] == ALL_CHECKS
    summary = json.loads((tmp_path / "zw.summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["checks"]) == len(ALL_CHECKS)


def test_reports_are_byte_identical_across_runs(tmp_path):
    base = {
        "order": [4, 4],
        "inner": "zw",
        "seed": 5,
        "checks": ["similarity", "decay", "recover"],
    }
    for name in ("a", "b"):
        cfg = ExperimentConfig.from_json(dict(base, output=str(tmp_path / name)))
        assert run(cfg).exit_code == 0
    for check in base["checks"] + ["summary"]:
        fa = (tmp_path / f"a.{check}.json").read_bytes()
        fb = (tmp_path / f"b.{check}.json").read_bytes()
        assert fa == fb


def test_seed_changes_similarity_data(tmp_path):
    reports = []
    for seed in (1, 2):
        cfg = ExperimentConfig.from_json(
            {"order": [4, 4], "inner": "zw", "seed": seed, "checks": ["similarity"]}
        )
        reports.append(run(cfg).results[0].data["condition"])
    assert reports[0] != reports[1]


def test_csv_mirrors_written(tmp_path):
    cfg = ExperimentConfig.from_json(
        {
            "order": [4, 4],
            "inner": "zw",
            "checks": ["frame-bounds", "decay", "codimension"],
            "output": str(tmp_path / "rep"),
            "format": "csv",
        }
    )
    out = run(cfg)
    assert out.exit_code == 0
    trace = (tmp_path / "rep.frame-bounds.csv").read_text().splitlines()
    assert trace[0] == "horizon,lower,upper"
    assert len(trace) == 1 + 5  # square sub-horizons 0..4
    orbit = (tmp_path / "rep.decay.csv").read_text().splitlines()
    assert orbit[0] == "i,j,norm"
    assert len(orbit) == 1 + 6 * 6  # decay horizon (5, 5)
    codim = (tmp_path / "rep.codimension.csv").read_text().splitlines()
    assert codim[0] == "order,codimension"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rewritten_reports_are_the_bytes_of_a_fresh_run(tmp_path, fmt):
    """Reports are rewritten in place and cut at their new end: a prefix
    that held longer reports ends up with exactly the files and bytes of a
    fresh run."""
    def config(order, prefix):
        return ExperimentConfig.from_json({
            "order": order, "inner": "zw", "checks": ["frame-bounds", "decay"],
            "output": str(tmp_path / prefix), "format": fmt})

    run(config([6, 6], "old/r"))
    before = {p.name: p.stat().st_size for p in (tmp_path / "old").iterdir()}
    run(config([3, 3], "old/r"))
    run(config([3, 3], "new/r"))
    old, new = sorted((tmp_path / "old").iterdir()), sorted((tmp_path / "new").iterdir())
    assert [p.name for p in old] == [p.name for p in new] == sorted(before)
    assert len(old) == (6 if fmt == "csv" else 4)
    for a, b in zip(old, new):
        if a.name.endswith(".meta.json"):
            assert json.loads(a.read_text())["files"] == [
                f.replace("new", "old") for f in json.loads(b.read_text())["files"]]
        else:
            assert a.read_bytes() == b.read_bytes(), a.name
            if ".summary." not in a.name:  # the summary keeps its length
                assert a.stat().st_size < before[a.name], a.name


def test_meta_file_separate_from_reports(tmp_path):
    cfg = ExperimentConfig.from_json(
        {"order": [3, 3], "inner": "z", "checks": ["parseval"],
         "output": str(tmp_path / "m")}
    )
    run(cfg)
    meta = json.loads((tmp_path / "m.meta.json").read_text())
    assert "written_at" in meta
    report = json.loads((tmp_path / "m.parseval.json").read_text())
    assert "written_at" not in report


def test_riesz_check_needs_no_recipe():
    out = run(ExperimentConfig.from_json({"order": [4, 4], "checks": ["riesz"]}))
    assert out.exit_code == 0


@pytest.mark.parametrize("recipe", [{}, {"inner": "zw"}], ids=["no-recipe", "inner-zw"])
def test_riesz_check_reports_the_riesz_model_chain(recipe):
    """The riesz check iterates the quotient of the zero submodule, which
    is the riesz-model fixture's chain, whatever the config's recipe."""
    order = [5, 3]
    riesz = run(ExperimentConfig.from_json({**recipe, "order": order, "checks": ["riesz"]}))
    model = run(ExperimentConfig.from_json(
        {"fixture": "riesz-model", "order": order, "checks": ["frame-bounds"]}))
    assert riesz.exit_code == model.exit_code == 0
    assert riesz.results[0].to_json()["data"] == model.results[0].to_json()["data"]


Z3_TIMES_Z3 = {"kind": "product", "factors": [{"kind": "monomial", "degree": [3, 0]},
                                             {"kind": "monomial", "degree": [3, 0]}]}


@pytest.mark.parametrize(
    "inner,order,orders",
    [({"kind": "monomial", "degree": [3, 0]}, [4, 4], [[3, 3], [4, 4]]),
     ("z", [1, 0], [[1, 1]]),
     ({"kind": "product", "factors": [{"kind": "blaschke_w", "zeros": [[0.5, 0]]},
                                      {"kind": "monomial", "degree": [0, 3]}]},
      [5, 4], [[3, 3], [4, 4]]),
     (Z3_TIMES_Z3, [8, 8], [[6, 6], [7, 7], [8, 8]])],
    ids=["z3-at-4-4", "z-at-1-0", "product-w3-at-5-4", "z3-z3-at-8-8"],
)
@pytest.mark.filterwarnings("ignore:submodule is approximate")
def test_codimension_ladder_starts_where_the_monomial_fits(inner, order, orders):
    """The ladder starts at the bidegree of the monomial part (the sum of
    the monomial factors of a product) when that exceeds 2, and is one
    rung when the box is smaller than the monomial."""
    out = run(ExperimentConfig.from_json(
        {"inner": inner, "order": order, "checks": ["codimension"]}))
    assert out.exit_code == 0
    assert out.results[0].to_json()["data"]["orders"] == orders


def test_monomial_product_past_the_box_is_config_error_naming_its_degree(tmp_path, capsys):
    """z^3 z^3 at (4, 4): each factor fits, the product does not, and the
    config error says so (not that the clipped polynomial is zero)."""
    path = write_config(tmp_path / "c.json", inner=Z3_TIMES_Z3, order=[4, 4])
    assert main(["build-module", "--config", path]) == 2
    assert "monomial degree (6, 0) exceeds box (4, 4)" in capsys.readouterr().err


def test_recover_on_a_horizon_too_small_for_a_frame_fails_its_precondition():
    """inner-zw at (6, 6) over the horizon (1, 1): four iterates for a
    13-dimensional quotient are no frame, and recover records that."""
    out = run(ExperimentConfig.from_json(
        {"inner": "zw", "order": [6, 6], "horizon": [1, 1], "checks": ["recover"]}))
    assert out.exit_code == 1
    result = out.results[0]
    assert not result.passed and result.data == {}
    assert result.note == "recovery needs a frame system"


def test_submodule_check_without_recipe_is_config_error():
    with pytest.raises(ValueError, match="recipe"):
        run(ExperimentConfig.from_json({"order": [4, 4], "checks": ["jordan"]}))


def test_run_suite_directory(tmp_path):
    write_config(tmp_path / "one.json", order=[3, 3], inner="z", checks=["parseval"])
    write_config(tmp_path / "two.json", order=[3, 3], checks=["riesz"])
    results = run_suite(tmp_path, output=str(tmp_path / "suite"))
    assert [code for _, out in results for code in [out.exit_code]] == [0, 0]
    assert (tmp_path / "suite.one.summary.json").exists()
    assert (tmp_path / "suite.two.summary.json").exists()


def test_run_suite_rejects_empty_dir(tmp_path):
    with pytest.raises(ValueError, match="no .*json"):
        run_suite(tmp_path)


def test_fixture_config_runs_chain(tmp_path):
    path = write_config(
        tmp_path / "fx.json", fixture="generated-zw", checks=["mandrekar"]
    )
    out = run_file(path)
    assert out.exit_code == 0
    assert out.results[0].data["verdict"] is False


# --- command-line interface ---------------------------------------------


def test_cli_parseval_pass(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", order=[4, 4], inner="zw")
    code = main(["frame-check", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "check frame-bounds: pass" in out
    assert "summary: pass" in out


def test_cli_forces_namesake_check(tmp_path, capsys):
    # config asks for parseval; the jordan subcommand runs jordan instead
    path = write_config(
        tmp_path / "c.json", order=[4, 4], inner="zw", checks=["parseval"]
    )
    code = main(["jordan", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "check jordan: pass" in out
    assert "parseval" not in out


@pytest.mark.parametrize("command,check", [
    ("build-module", "build-module"),
    ("jordan", "jordan"),
    ("frame-check", "frame-bounds"),
    ("similarity", "similarity"),
    ("recover", "recover"),
    ("decay", "decay"),
    ("probe-conjecture", "probe-conjecture"),
    ("equiv-vector", "equiv-vector"),
])
def test_cli_subcommand_runs_exactly_its_check(tmp_path, capsys, command, check):
    path = write_config(tmp_path / "c.json", fixture="inner-zw", order=[3, 3],
                        checks=["parseval", "riesz"])
    prefix = tmp_path / "r"
    code = main([command, "--config", path, "--out", str(prefix)])
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert [c["check"] for c in summary["checks"]] == [check]
    assert code == summary["exit_code"] == (0 if summary["passed"] else 1)
    assert capsys.readouterr().out.startswith(f"check {check}: ")


def test_cli_suite_runs_config_as_written(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json", order=[4, 4], inner="zw", checks=["parseval", "jordan"]
    )
    code = main(["suite", "--config", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "check jordan: pass" in out
    assert "check parseval: pass" in out


def test_cli_unknown_check_exit_2(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", order=[4, 4], checks=["bogus"])
    code = main(["suite", "--config", path])
    assert code == 2
    assert "unknown check name: bogus" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    code = main(["suite", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_cli_guard_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BDF_MAX_DIM", "10")
    path = write_config(tmp_path / "c.json", order=[4, 4], inner="zw")
    code = main(["frame-check", "--config", path])
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_cli_env_override_lifts_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BDF_MAX_DIM", "10")
    path = write_config(tmp_path / "c.json", order=[3, 3], inner="z")
    assert main(["frame-check", "--config", path]) == 3
    monkeypatch.setenv("BDF_MAX_DIM", "50")
    assert main(["frame-check", "--config", path]) == 0


def test_cli_out_and_seed_flags(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", order=[4, 4], inner="zw", seed=0)
    prefix = tmp_path / "cli"
    code = main(
        ["similarity", "--config", path, "--seed", "9", "--out", str(prefix)]
    )
    assert code == 0
    report = json.loads((tmp_path / "cli.similarity.json").read_text())
    assert report["passed"] is True
    summary = json.loads((tmp_path / "cli.summary.json").read_text())
    assert summary["config"]["seed"] == 9


def test_cli_list_fixtures(capsys):
    assert main(["list-fixtures"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert main(["list-fixtures", "beurling"]) == 0
    filtered = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(filtered) < len(lines)
    assert all("Beurling" in line for line in filtered)
    assert main(["list-fixtures", "zzzz-none"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_cli_suite_directory(tmp_path, capsys):
    write_config(tmp_path / "a.json", order=[3, 3], inner="z", checks=["parseval"])
    write_config(tmp_path / "b.json", order=[3, 3], checks=["riesz"])
    code = main(["suite", "--config", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 2


def test_suite_goes_on_past_a_bad_config(tmp_path, capsys):
    """A config error is that config's exit 2 and a tripped guard its exit
    3; the configs after it still run and write their reports, and the
    command exits with the worst code."""
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs / "a.json", fixture="generated-zw", checks=["codimension"])
    write_config(configs / "b.json", order=[3, 3], inner="zw", checks=["build-module"])
    prefix = tmp_path / "out" / "r"
    results = run_suite(configs, output=str(prefix))
    assert [(name, out.exit_code) for name, out in results] == [
        (str(configs / "a.json"), 2), (str(configs / "b.json"), 0),
    ]
    assert results[0][1].error == "codimension check requires an inner recipe"
    assert results[0][1].results == [] and results[1][1].error == ""
    assert (tmp_path / "out" / "r.b.summary.json").exists()

    assert main(["suite", "--config", str(configs), "--out", str(prefix)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"{configs / 'a.json'}: config error: "
                            "codimension check requires an inner recipe\n")
    assert captured.out.startswith(f"{configs / 'b.json'}: pass\n")

    # dimension 51 * 51 = 2601 trips the desk guard of 2000
    write_config(configs / "c.json", order=[50, 50], inner="zw", checks=["build-module"])
    assert main(["suite", "--config", str(configs)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[1].startswith(f"{configs / 'c.json'}: guard tripped: ")


def test_equiv_vector_check_reuses_the_run_system(monkeypatch):
    """The check iterates only the moved seed; the base system is the
    run's own, with its cached frame report."""
    from bidiscframes import dynamics

    cfg = ExperimentConfig.from_json({"inner": "z2w", "order": [4, 4], "checks": ["equiv-vector"]})
    base = run(cfg).results[0]
    calls = []
    real_iterate = dynamics.iterate
    monkeypatch.setattr(dynamics, "iterate",
                        lambda *args: calls.append(args) or real_iterate(*args))
    again = run(cfg).results[0]
    assert len(calls) == 1
    assert again.to_json() == base.to_json()


def _diagonal_triple():
    """T1 = T2 = diag(c, 1/c) with seed (1/c, 1): the frame of the seed and
    its T2-image is well conditioned, but ||T1|| = c makes the rounding of
    the estimated witness show in its conjugation residual."""
    c = 1e8
    t = np.diag([c, 1 / c])
    return OperatorTriple(T1=t, T2=t, phi=np.array([1 / c, 1.0]))


def _nilpotent_triple():
    """T1 = T2 = c J on C^3 with seed e3, c^4 = 0.7e8: a frame whose moved
    seed (I + 0.5 T1 T2) e3 is not one at the classification tolerance."""
    c = 0.7e8 ** 0.25
    t = c * np.diag([1.0, 1.0], 1)
    return OperatorTriple(T1=t, T2=t, phi=np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "check,make,horizon,note",
    [
        ("similarity", _diagonal_triple, [0, 1], "second witness not certified"),
        ("equiv-vector", _nilpotent_triple, [1, 1], "frame class not preserved"),
    ],
)
def test_numerical_failure_inside_a_check_is_its_fail(
        tmp_path, capsys, monkeypatch, check, make, horizon, note):
    """An uncertified witness (uniqueness_of_L) and a broken invariant
    (equivalent_frame_report) are that check's FAIL with exit 1, not a
    config error or a traceback."""
    triple = make()
    monkeypatch.setattr(RunContext, "triple", property(lambda self: triple))
    data = {"order": [1, 1], "horizon": horizon, "checks": [check]}
    outcome = run(ExperimentConfig.from_json(data))
    assert outcome.exit_code == 1
    (result,) = outcome.results
    assert not result.passed and result.note.startswith(note)

    code = main(["suite", "--config", write_config(tmp_path / "c.json", **data)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"check {check}: FAIL  ({note}" in captured.out
    assert captured.err == ""


def test_report_data_is_plain_python():
    """CheckResult.to_json turns numpy scalars and arrays of every kind
    into plain Python values, complex entries into {"re", "im"}."""
    from bidiscframes.runner import CheckResult

    data = {
        "floats": np.array([[0.5, -0.0], [np.inf, 1e-300]]),
        "ints": np.arange(3, dtype=np.int32),
        "flags": np.array([True, False]),
        "complex": np.array([1 + 2j, -0.5j]),
        "scalars": (np.float64(0.25), np.int64(7), np.bool_(True), np.complex128(1j)),
    }
    out = CheckResult("demo", True, data).to_json()["data"]
    assert out == {
        "floats": [[0.5, -0.0], [np.inf, 1e-300]],
        "ints": [0, 1, 2],
        "flags": [True, False],
        "complex": [{"re": 1.0, "im": 2.0}, {"re": -0.0, "im": -0.5}],
        "scalars": [0.25, 7, True, {"re": 0.0, "im": 1.0}],
    }

    def kinds(obj):
        if isinstance(obj, dict):
            return set().union(*map(kinds, obj.values()))
        if isinstance(obj, list):
            return set().union(*map(kinds, obj))
        return {type(obj)}

    assert kinds(out) == {float, int, bool}
