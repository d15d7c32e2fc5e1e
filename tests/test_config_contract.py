"""Malformed configs end as config errors, and the package runs as a module."""

import json
import os
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
    ],
)
def test_malformed_config_exits_2_without_traceback(tmp_path, capsys, patch, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **patch}))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_file(path)
    assert main(["suite", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


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
