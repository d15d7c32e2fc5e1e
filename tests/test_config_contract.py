"""Malformed configs end as config errors, failed mathematical
preconditions as check failures, and the package runs as a module."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bidiscframes
from bidiscframes.cli import main
from bidiscframes.runner import ExperimentConfig

BASE = {"fixture": "inner-zw", "checks": ["build-module"]}


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"order": [6]}, "order must be a list of two"),
        ({"horizon": [3]}, "horizon must be a list of two"),
        ({"order": "66"}, "order must be a list of two"),
        ({"order": [6, 6, 6]}, "order must be a list of two"),
        ({"order": 6}, "order must be a list of two"),
        ({"order": [True, 2]}, "order must be an integer"),
        ({"order": [6.0, 6]}, "order must be an integer"),
        ({"horizon": ["3", 3]}, "horizon must be an integer"),
        ({"order": [-1, 2]}, "order must be nonnegative"),
        ({"horizon": [2, -3]}, "horizon must be nonnegative"),
        ({"seed": 1.7}, "seed must be an integer"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"seed": False}, "seed must be an integer"),
        ({"transport": {"seed": 2.5}}, "transport seed must be an integer"),
        ({"checks": 5}, "checks must be a list of check names"),
        ({"generators": 5}, "generators must be a list"),
        ({"inner": {"kind": "monomial"}}, "lacks the key 'degree'"),
        ({"inner": {"kind": "blaschke_z", "zeros": [0.5]}},
         "inner zeros must be a list of [re, im] pairs"),
        ({"output": 5}, "output must be a path prefix string"),
        ({"transport": {"condition_cap": [1]}}, "condition_cap must be a number >= 1"),
        ({"transport": {"condition_cap": -1}}, "condition_cap must be a number >= 1"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"transport": {"seed": -3}}, "transport seed must be nonnegative"),
    ],
)
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, patch, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **patch}))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_file(path)
    assert main(["suite", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "recipe,checks,note",
    [
        ({"fixture": "blaschke-half"}, ["frame-bounds", "similarity"],
         "witness uniqueness requires a frame system"),
        ({"fixture": "blaschke-half"}, ["recover"], "recovery needs a frame system"),
        ({"fixture": "riesz-model"}, ["mandrekar"],
         "doubly-commute test needs a nonzero submodule"),
        ({"fixture": "blaschke-product"}, ["parseval"], "operators do not commute"),
        ({"order": [3, 3], "inner": {"kind": "monomial", "degree": [0, 0]}},
         ["build-module", "frame-bounds"], "trivial quotient has no operator triple"),
    ],
    # a fixture recipe is named after its fixture
    ids=lambda v: v.get("fixture", "constant-inner") if isinstance(v, dict) else None,
)
@pytest.mark.filterwarnings("ignore:submodule is approximate", "ignore:compressed shifts commute",
                            "ignore:trivial quotient")
def test_failed_precondition_exits_1_with_every_report(tmp_path, capsys, recipe,
                                                       checks, note):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**recipe, "checks": checks}))
    prefix = tmp_path / "out"
    assert main(["suite", "--config", str(path), "--out", str(prefix)]) == 1
    assert capsys.readouterr().err == ""
    for name in [*checks, "summary", "meta"]:
        assert Path(f"{prefix}.{name}.json").is_file()
    failed = json.loads(Path(f"{prefix}.{checks[-1]}.json").read_text())
    assert failed["passed"] is False and note in failed["note"]


@pytest.mark.parametrize(
    "cfg,message",
    [
        ({"fixture": "generated-zw", "checks": ["codimension"]},
         "codimension check requires an inner recipe"),
        ({"order": [4, 4], "checks": ["mandrekar"]}, "needs a submodule recipe"),
    ],
)
def test_config_errors_inside_checks_still_exit_2(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["suite", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_well_formed_values_still_parse():
    cfg = ExperimentConfig.from_json(
        {**BASE, "order": (4, 3), "horizon": [0, 2], "seed": 0, "transport": {"seed": 5}}
    )
    assert (tuple(cfg.order), tuple(cfg.horizon), cfg.seed) == ((4, 3), (0, 2), 0)
    assert cfg.transport_seed == 5


def test_python_dash_m_runs_the_cli():
    src = str(Path(bidiscframes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "bidiscframes", "list-fixtures"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "inner-zw" in proc.stdout
