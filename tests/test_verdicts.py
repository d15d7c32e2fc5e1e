"""The verdict rules of the runner: one rule per check in runner._PASS, a
function of the check's data alone.

The rules are tested at their thresholds, and on the standard config set
of tools/report_configs.py: every config keeps its exit code and its
failing checks (tests/standard_failures.json), and every report read back
from its JSON file is judged as it was written.
"""

import ast
import importlib.util
import inspect
import json
import math
from pathlib import Path

import pytest

from bidiscframes import runner
from bidiscframes.runner import _PASS, _REGISTRY, run_suite

_ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_rule_per_check():
    assert set(_PASS) == set(_REGISTRY)


def test_checks_compare_nothing():
    """No check body orders two values: every threshold lives in _PASS,
    and only _run_check builds a CheckResult."""
    tree = ast.parse(inspect.getsource(runner))
    builders = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "CheckResult":
                builders.add(fn.name)
            if fn.name.startswith("_check_") and isinstance(node, ast.Compare):
                ordered = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
                assert not any(isinstance(op, ordered) for op in node.ops), fn.name
    assert builders == {"_run_check"}


def _up(x):
    return math.nextafter(x, math.inf)


def _judge(check, data):
    return bool(_PASS[check](data))


@pytest.mark.parametrize("check,field,bound", [
    ("jordan", "max_residual", 1e-9),
    ("recover", "intertwine_residual_z", 1e-7),
    ("recover", "intertwine_residual_w", 1e-7),
    ("recover", "residual_phi", 1e-8),
    ("kernel-invariance", "residual", 1e-8),
    ("similarity", "kernel_distance", 1e-10),
    ("similarity", "witness_distance", 1e-8),
])
def test_threshold_rules_pass_at_their_bound(check, field, bound):
    base = {
        "jordan": {"max_residual": 0.0},
        "recover": {"intertwine_residual_z": 0.0, "intertwine_residual_w": 0.0,
                    "residual_phi": 0.0},
        "kernel-invariance": {"inconclusive": False, "vacuous": False, "residual": 0.0},
        "similarity": {"certified": True, "base_class": "frame", "moved_class": "frame",
                       "moved_bounds": [1.0, 2.0], "singular_bracket": [1.0, 2.0],
                       "kernel_distance": 0.0, "witness_distance": 0.0},
    }[check]
    assert _judge(check, base)
    assert _judge(check, {**base, field: bound})
    assert not _judge(check, {**base, field: _up(bound)})


def test_similarity_bracket_slack():
    """The moved bounds may leave the singular bracket by 1e-9 on either
    side, and no further."""
    def data(lower, upper):
        return {"certified": True, "base_class": "frame", "moved_class": "frame",
                "moved_bounds": [lower, upper], "singular_bracket": [0.0, 0.0],
                "kernel_distance": 0.0, "witness_distance": 0.0}

    assert _judge("similarity", data(-1e-9, 1e-9))
    assert not _judge("similarity", data(math.nextafter(-1e-9, -math.inf), 1e-9))
    assert not _judge("similarity", data(-1e-9, _up(1e-9)))


def test_similarity_needs_a_certified_witness_and_the_same_frame_kind():
    good = {"certified": True, "base_class": "frame", "moved_class": "parseval",
            "moved_bounds": [1.0, 1.0], "singular_bracket": [1.0, 1.0],
            "kernel_distance": 0.0, "witness_distance": 0.0}
    assert _judge("similarity", good)
    assert not _judge("similarity", {**good, "certified": False})
    assert not _judge("similarity", {**good, "moved_class": "not_frame"})


def _last_within(tol, sign):
    """The float farthest from 1 on the given side whose distance from 1
    is at most tol."""
    x = 1.0 + sign * tol
    while abs(x - 1.0) > tol:
        x = math.nextafter(x, 1.0)
    while abs(math.nextafter(x, sign * math.inf) - 1.0) <= tol:
        x = math.nextafter(x, sign * math.inf)
    return x


@pytest.mark.parametrize("check,tol", [("parseval", 1e-10), ("riesz", 1e-12)])
@pytest.mark.parametrize("field", ["lower", "upper"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_near_one_rules_pass_at_their_bound(check, tol, field, sign):
    base = {"lower": 1.0, "upper": 1.0, "classification": "minimal_frame"}
    edge = _last_within(tol, sign)
    assert _judge(check, {**base, field: edge})
    assert not _judge(check, {**base, field: math.nextafter(edge, sign * math.inf)})


def test_riesz_needs_a_minimal_frame():
    assert not _judge("riesz", {"lower": 1.0, "upper": 1.0, "classification": "parseval"})


@pytest.mark.parametrize("constant,profile,passed", [
    (True, [0, 0, 0], True), (True, [0, 1], False),
    (False, [1, 2, 4], True), (False, [1, 2, 2], False),
])
def test_codimension_rule(constant, profile, passed):
    assert _judge("codimension", {"profile": profile, "constant_inner": constant}) is passed


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_standard_set_keeps_its_verdicts(tmp_path):
    """The standard config set runs with its pinned exit codes and failing
    checks, and the rule of each check gives back the passed flag of every
    report with data, judged on the data read from its JSON file; a report
    without data is a failed precondition."""
    configs = tmp_path / "configs"
    _load_tool("report_configs").main([str(configs)])
    expected = json.loads((_ROOT / "tests" / "standard_failures.json").read_text())
    out = tmp_path / "out"
    outcomes = run_suite(configs, output=str(out / "r"))
    assert len(outcomes) == 181
    for path, outcome in outcomes:
        stem = Path(path).stem
        failing = [r.name for r in outcome.results if not r.passed]
        assert (outcome.exit_code, failing) == (1 if failing else 0, expected.get(stem, [])), stem
        for r in outcome.results:
            report = json.loads((out / f"r.{stem}.{r.name}.json").read_text())
            if report["data"]:
                assert _judge(r.name, report["data"]) is report["passed"], (stem, r.name)
            else:
                assert not report["passed"] and report["note"], (stem, r.name)
    failed = {Path(path).stem for path, outcome in outcomes if outcome.exit_code}
    assert failed == set(expected) and len(failed) == 47
